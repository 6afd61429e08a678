//===- Shard.h - Per-architecture serving shard -----------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One shard per architecture generation: a bounded admission queue, one
/// worker thread draining it, and one engine lane per (op, dtype) the
/// shard has seen. Lanes share the shard's variant cache (so a variant is
/// compiled once per shard no matter how many lanes race through
/// single-flight resolution) but each lane owns its facade, engine, batch
/// descriptor and breaker — engine state is worker-thread-confined, which
/// is what makes the shard safe without locking the execution path.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_SERVE_SHARD_H
#define TANGRAM_SERVE_SHARD_H

#include "serve/CircuitBreaker.h"
#include "serve/ReductionService.h"

#include "engine/TunedPack.h"
#include "tangram/Tangram.h"

#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

namespace tangram::serve {

/// A queued job plus its completion plumbing.
struct PendingJob {
  JobSpec Spec;
  ReductionService::Completion Done;
  double AdmitSeconds = 0; ///< engine::steadySeconds() at admission.
};

class Shard {
public:
  Shard(const sim::ArchDesc &Arch, const ServiceOptions &Opts);
  ~Shard();
  Shard(const Shard &) = delete;
  Shard &operator=(const Shard &) = delete;

  /// Admits \p Job or refuses with Overloaded (queue full) / Unavailable
  /// (stopping).
  support::Status enqueue(PendingJob Job);

  /// Spawns the worker thread (idempotent).
  void start();

  /// Drains the queue on the calling thread. No-op while a worker runs
  /// (the worker already drains).
  void drainNow();

  /// Stops admission, drains everything still queued, joins the worker.
  /// Idempotent.
  void stop();

  const sim::ArchDesc &getArch() const { return Arch; }
  ServiceStats getStats() const;
  ShardHealth getHealth() const;

  /// Lane introspection (creates the lane on demand). Worker-thread state:
  /// only call while the worker is not running.
  engine::ExecutionEngine *laneEngine(ReduceOp Op, ir::ScalarType Elem);
  const synth::VariantDescriptor *laneBatchDescriptor(ReduceOp Op,
                                                      ir::ScalarType Elem);

private:
  /// One (op, dtype) execution lane.
  struct Lane {
    support::Status Create = support::Status::success();
    std::unique_ptr<TangramReduction> TR;
    engine::ExecutionEngine *E = nullptr;
    /// The lane's one kernel: batches, lone jobs and failover all run it.
    synth::VariantDescriptor BatchDesc;
    bool BatchDescValid = false;
    size_t Tile = 0; ///< Elements one batch slot (block) holds.
    /// Guards the lane's primary (batch-variant) path. unique_ptr keeps
    /// Lane movable (the breaker owns a mutex).
    std::unique_ptr<CircuitBreaker> Breaker;
  };
  using LaneKey = std::pair<unsigned, unsigned>;

  Lane &laneFor(ReduceOp Op, ir::ScalarType Elem);
  void workerLoop();
  void process(std::deque<PendingJob> &Work);
  void processGroup(Lane &L, std::vector<PendingJob *> &Jobs);
  void complete(PendingJob &Job, support::Expected<JobResult> Out);
  support::Expected<JobResult> runDirect(Lane &L, const JobSpec &Spec);
  /// Completes (DeadlineExceeded) and removes every job in \p Jobs whose
  /// deadline has passed — called at dequeue AND again immediately before
  /// each launch, so a deadline that expires between the two never rides
  /// the launch.
  void dropExpired(std::vector<PendingJob *> &Jobs);
  /// Consults the lane's breaker for one primary attempt; a Probe decision
  /// un-quarantines the batch variant (the supervised second chance).
  BreakerDecision decidePrimary(Lane &L);
  /// Publishes the lane's health snapshot (worker thread only — it is the
  /// only thread allowed to touch the lane's engine).
  void snapshotLane(const LaneKey &Key, Lane &L);

  sim::ArchDesc Arch;
  ServiceOptions Opts;
  std::shared_ptr<engine::VariantCache> Cache;
  std::shared_ptr<support::ThreadPool> Pool; ///< One thread: the worker is
                                             ///< the unit of concurrency.
  std::unique_ptr<ChaosInjector> Injector; ///< Null without a chaos plan.
  std::map<LaneKey, Lane> Lanes; ///< Worker-thread confined.
  /// Quarantine records from imported packs for this shard's generation,
  /// applied to each lane's engine as the lane comes up (laneFor) — packs
  /// are imported at construction, before any lane or engine exists.
  std::vector<engine::PackQuarantine> PendingQuarantines;
  /// Warm-start problems recorded at construction (unreadable pack, bad
  /// entry): the shard came up cold instead of failing. Written once in
  /// the constructor, read-only afterwards; getHealth() reports them as
  /// ShardHealth::Warnings.
  std::vector<std::string> StartupWarnings;

  mutable std::mutex Mu; ///< Guards Queue, Stopping, Stats, HealthSnap.
  std::condition_variable WorkCv;
  std::deque<PendingJob> Queue;
  bool Stopping = false;
  std::thread Worker;
  ServiceStats Stats;
  /// Worker-published per-lane health, readable from any thread under Mu.
  std::map<LaneKey, LaneHealth> HealthSnap;
};

} // namespace tangram::serve

#endif // TANGRAM_SERVE_SHARD_H
