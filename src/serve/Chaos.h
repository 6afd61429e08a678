//===- Chaos.h - Service-level chaos injection ------------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic chaos injection at the serving layer's seams — the
/// service-level sibling of sim::FaultPlan. Where FaultSim perturbs a
/// kernel *below* the engine (bit flips, dropped atomics, stuck warps),
/// a ChaosPlan perturbs the machinery *around* it:
///
///  - CompileFail: a cold VariantCache::getOrCompile flight fails with
///    SynthesisError instead of compiling (a flaky build host). Failures
///    are never cached, so the key stays cold and a later flight may
///    succeed once the storm passes.
///  - SlowWorker: a shard worker stalls for DelaySeconds before draining
///    a batch of queued jobs (a descheduled or page-faulting worker).
///  - SpuriousReject: an admission attempt is refused with Overloaded
///    even though the queue has room (a flapping load-shedder) — the
///    seam ResilientClient's retry/backoff is built for.
///  - QuarantineStorm: the lane's primary batch variant is quarantined
///    mid-stream, as a trapped launch or fault campaign would; the lane
///    degrades to the same variant on the other backend, and the circuit
///    breaker's half-open probe is what un-quarantines it.
///  - QueueDelay: a deadline-eating stall between dequeue and launch —
///    the window the pre-launch deadline re-check exists for.
///
/// Firing is a pure function of (Seed, eligible-event ordinal) via the
/// same splitmix64 mix FaultInjector uses, so a plan perturbs a pumped
/// (StartWorkers = false) service identically on every host and run.
/// MaxFires bounds a storm so recovery paths are observable.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_SERVE_CHAOS_H
#define TANGRAM_SERVE_CHAOS_H

#include <cstdint>
#include <mutex>
#include <string>

namespace tangram::serve {

enum class ChaosKind : unsigned char {
  None = 0,
  CompileFail,     ///< Fail a cold variant compile in the shard's cache.
  SlowWorker,      ///< Stall the shard worker before it drains a batch.
  SpuriousReject,  ///< Refuse an admission attempt despite queue room.
  QuarantineStorm, ///< Quarantine the lane's primary batch variant.
  QueueDelay,      ///< Stall a job group between dequeue and launch.
};

const char *getChaosKindName(ChaosKind K);

/// Parses the CLI spelling ("compile-fail", "slow-worker", ...) used by
/// `tgrc serve --chaos=`. Returns false on an unknown name.
bool parseChaosKind(const std::string &Name, ChaosKind &Out);

/// The injectable kinds (None excluded), in chaos-matrix order.
const ChaosKind *getAllChaosKinds(unsigned &Count);

/// One chaos campaign: which seam to perturb and when. Default-constructed
/// plans are inactive and leave the service untouched.
struct ChaosPlan {
  ChaosKind Kind = ChaosKind::None;
  /// Seed feeding the firing schedule (same splitmix64 mix as FaultPlan).
  uint64_t Seed = 1;
  /// Fire on roughly one in Period eligible events (1 = every event).
  uint64_t Period = 4;
  /// Total firings allowed (0 = unbounded). A bounded storm lets tests
  /// watch the breaker trip, half-open, and recover once chaos subsides.
  uint64_t MaxFires = 0;
  /// Stall applied per SlowWorker / QueueDelay firing.
  double DelaySeconds = 0.002;

  bool active() const { return Kind != ChaosKind::None; }
};

/// Per-shard injection state: counts eligible events per seam and decides,
/// purely from (Seed, ordinal), which ones fire. Thread-safe so admission
/// (caller threads) and execution (the worker) can share one injector;
/// ordinals — and therefore chaos sites — are deterministic whenever the
/// service is pumped from one thread (StartWorkers = false).
class ChaosInjector {
public:
  explicit ChaosInjector(const ChaosPlan &Plan) : Plan(Plan) {}

  const ChaosPlan &getPlan() const { return Plan; }

  /// Counts one eligible event at seam \p K; true when the plan targets
  /// this seam, the schedule fires on this ordinal, and MaxFires has not
  /// been exhausted.
  bool fires(ChaosKind K);

  /// Chaos events actually injected so far.
  uint64_t getFireCount() const;
  /// Eligible events observed at the plan's seam so far.
  uint64_t getEventCount() const;

private:
  ChaosPlan Plan;
  mutable std::mutex Mu;
  uint64_t Events = 0;
  uint64_t Fires = 0;
};

} // namespace tangram::serve

#endif // TANGRAM_SERVE_CHAOS_H
