//===- ReductionService.h - Multi-tenant reduction serving ------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reduction-as-a-service over the request-based engine API: callers
/// submit streams of small reduction jobs; the service owns admission
/// (bounded queue with backpressure), routing (one shard per architecture
/// generation, one engine lane per (op, dtype) inside it), coalescing
/// (many small-N jobs of one lane become a single segmented launch — see
/// serve/Batch.h for the bit-identity argument), and failover (a
/// quarantined batch variant or a tripped lane breaker degrades jobs to
/// the same batch variant on the other backend, which gives the same bits,
/// then to the host loop — instead of failing them).
///
///   ReductionService Svc({});
///   JobSpec Job;
///   Job.FloatData = {1, 2, 3};
///   auto Fut = Svc.submit(std::move(Job));
///   auto Out = Fut.get();          // Expected<JobResult>
///
/// Completion is asynchronous: submit() returns a std::future, or takes a
/// completion callback invoked on the shard's worker thread. Admission
/// failures surface as StatusCode::Overloaded (queue full — retry with
/// backoff) and StatusCode::Unavailable (service stopping).
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_SERVE_REDUCTIONSERVICE_H
#define TANGRAM_SERVE_REDUCTIONSERVICE_H

#include "engine/Backend.h"
#include "gpusim/Arch.h"
#include "reduce/OpDef.h"
#include "serve/Chaos.h"
#include "serve/Health.h"
#include "support/Expected.h"
#include "synth/Variant.h"

#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <vector>

namespace tangram::engine {
class ExecutionEngine;
} // namespace tangram::engine

namespace tangram::serve {

/// One reduction job. The payload lives in the spec (the service owns the
/// device); exactly one of FloatData/IntData is read, matching Elem.
struct JobSpec {
  ReduceOp Op = ReduceOp::Add;
  ir::ScalarType Elem = ir::ScalarType::F32;
  /// Which shard serves the job (per-generation engines).
  sim::ArchGeneration Gen = sim::ArchGeneration::Pascal;
  std::vector<double> FloatData;   ///< Payload for float element types.
  std::vector<long long> IntData;  ///< Payload for integer element types.
  /// Absolute engine::steadySeconds() deadline; jobs still queued past it
  /// complete with StatusCode::DeadlineExceeded. 0 = none.
  double DeadlineSeconds = 0;

  size_t size() const {
    return ir::isFloatType(Elem) ? FloatData.size() : IntData.size();
  }
};

/// A completed job. Value lanes follow engine::ReduceResult conventions: the
/// lane matching the element type is authoritative, the other mirrors it.
struct JobResult {
  double FloatValue = 0;
  long long IntValue = 0;
  long long IndexValue = 0; ///< Winning index for ArgMin/ArgMax.
  /// Backend-attributed seconds (modeled cycles on the simulator, host
  /// wall-clock on native). A coalesced job reports its even share of the
  /// batch launch.
  double Seconds = 0;
  /// Host wall-clock from admission to completion (queueing + batching +
  /// execution) — the latency a serving client observes.
  double LatencySeconds = 0;
  engine::Backend Used = engine::Backend::Simulator;
  bool Coalesced = false;   ///< Served by a segmented batch launch.
  bool Degraded = false;    ///< Answered by the failover chain, not by
                            ///< the lane's primary backend.
  unsigned BatchJobs = 1;   ///< Jobs sharing the launch (1 = alone).
};

// ServiceStats, LaneHealth/ShardHealth/HealthReport, and the shared
// latency-percentile helper live in serve/Health.h.

/// Construction knobs.
struct ServiceOptions {
  /// Admission bound per shard; a full queue rejects with Overloaded.
  size_t QueueDepth = 1024;
  /// Most jobs coalesced into one segmented launch.
  size_t MaxBatchJobs = 256;
  /// Master switch for coalescing (off = every job launches alone).
  bool Coalesce = true;
  engine::Backend BackendKind = engine::Backend::Simulator;
  /// Architectures to shard over; empty = Pascal P100 only.
  std::vector<sim::ArchDesc> Archs;
  /// False: no worker threads are spawned; callers pump queues with
  /// drainNow() (deterministic tests, benchmark harnesses).
  bool StartWorkers = true;
  /// Tunables of the shards' batch variant: the block tile is
  /// BatchBlockSize x BatchCoarsen elements, and jobs larger than one tile
  /// go direct.
  unsigned BatchBlockSize = 256;
  unsigned BatchCoarsen = 1;
  /// Tuned-variant packs (engine/TunedPack.h) imported into every shard's
  /// cache at construction, so a shard whose keys a pack carries opens with
  /// hot lanes: the first request per (op, dtype) is served without a
  /// single-flight compile. A shard applies a pack's quarantine records to
  /// its lanes' engines as the lanes come up. An unreadable or invalid
  /// pack degrades that shard to a cold start; the problem is surfaced in
  /// ShardHealth::Warnings, never thrown at admission time.
  std::vector<std::string> ImportPacks;
  /// Chaos campaign injected at the service seams (inactive by default).
  /// Each shard owns one deterministic injector built from this plan.
  ChaosPlan Chaos;
  /// Per-lane circuit breaker guarding the primary batch path (enabled by
  /// default; a tripped breaker fast-fails jobs to the failover chain and
  /// recovers through half-open probes).
  CircuitBreakerOptions Breaker;
};

class Shard;

/// The programmatic serving facade (`tgrc serve` wraps this).
class ReductionService {
public:
  using Completion = std::function<void(support::Expected<JobResult>)>;

  explicit ReductionService(ServiceOptions Opts = {});
  ~ReductionService();
  ReductionService(const ReductionService &) = delete;
  ReductionService &operator=(const ReductionService &) = delete;

  /// Submits one job; the future resolves when the job completes (or with
  /// the admission Status — Overloaded, Unavailable — when it is refused).
  std::future<support::Expected<JobResult>> submit(JobSpec Job);

  /// Callback form: \p Done runs on the shard's worker thread once the
  /// job completes. A non-Ok return means the job was NOT admitted and
  /// \p Done will never run.
  support::Status submit(JobSpec Job, Completion Done);

  /// Pumps every shard queue on the calling thread. Only meaningful with
  /// StartWorkers == false (otherwise the workers already drain).
  void drainNow();

  /// Stops admission, drains in-flight jobs, and joins workers. Jobs
  /// still queued are completed, not dropped. Idempotent; the destructor
  /// calls it.
  void stop();

  ServiceStats getStats() const;

  /// Point-in-time health snapshot: per-shard queue depths, per-lane
  /// breaker states, degraded/expiry ratios, and the aggregated totals.
  /// Safe to call while workers run (lane health is snapshotted by the
  /// worker itself; breakers are internally synchronized).
  HealthReport getHealth() const;

  const ServiceOptions &getOptions() const { return Opts; }

  /// Test/introspection hooks: the engine (and the batch descriptor)
  /// behind one (generation, op, dtype) lane, created on demand. Lanes
  /// are worker-thread state — only call these while workers are not
  /// running (StartWorkers == false, or after stop()).
  engine::ExecutionEngine *laneEngine(sim::ArchGeneration Gen, ReduceOp Op,
                                      ir::ScalarType Elem);
  const synth::VariantDescriptor *
  laneBatchDescriptor(sim::ArchGeneration Gen, ReduceOp Op,
                      ir::ScalarType Elem);

private:
  Shard *shardFor(sim::ArchGeneration Gen);

  ServiceOptions Opts;
  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace tangram::serve

#endif // TANGRAM_SERVE_REDUCTIONSERVICE_H
