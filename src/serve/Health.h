//===- Health.h - Serving-layer stats and health reporting ------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's observable surface: ServiceStats (the aggregated
/// counters getStats() returns), the per-shard / per-lane HealthReport
/// behind `tgrc serve --health`, and the shared latency-percentile helper
/// every serving report uses (guarded against zero completed jobs, so an
/// all-refused run renders zeros instead of indexing an empty vector).
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_SERVE_HEALTH_H
#define TANGRAM_SERVE_HEALTH_H

#include "engine/VariantCache.h"
#include "reduce/OpDef.h"
#include "serve/CircuitBreaker.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tangram::serve {

/// Aggregated serving counters (summed over shards by getStats()).
struct ServiceStats {
  uint64_t Submitted = 0; ///< Jobs accepted into a queue.
  /// Admission refusals, split by cause so backpressure (retry with
  /// backoff — transient) and shutdown (don't retry — terminal) are
  /// distinguishable in stats and BENCH JSON. Chaos-injected spurious
  /// rejections count as Overloaded: that is the status the client saw.
  uint64_t RejectedOverloaded = 0;  ///< Queue-full backpressure refusals.
  uint64_t RejectedUnavailable = 0; ///< Service-stopping refusals.
  uint64_t Completed = 0; ///< Jobs finished with a result.
  uint64_t Failed = 0;    ///< Jobs finished with a Status.
  uint64_t Expired = 0;   ///< Jobs whose deadline passed before launch.
  uint64_t Batches = 0;   ///< Segmented batch launches.
  uint64_t CoalescedJobs = 0;   ///< Jobs served by those launches.
  uint64_t DirectJobs = 0;      ///< Jobs served one launch each.
  uint64_t DegradedJobs = 0;    ///< Jobs answered by the failover chain.
  uint64_t DegradedBatches = 0; ///< Batches demoted to per-job failover.
  uint64_t MaxBatchJobs = 0;    ///< Largest batch seen.
  uint64_t BreakerTrips = 0;      ///< Lane breakers tripped open.
  uint64_t BreakerFastFails = 0;  ///< Requests denied by an open breaker.
  uint64_t BreakerRecoveries = 0; ///< Breakers closed again via probes.
  uint64_t ChaosInjected = 0;     ///< Chaos events actually fired.

  /// Total admission refusals (the pre-split `Rejected` counter).
  uint64_t rejected() const {
    return RejectedOverloaded + RejectedUnavailable;
  }
};

/// Health of one (op, dtype) execution lane inside a shard.
struct LaneHealth {
  ReduceOp Op = ReduceOp::Add;
  ir::ScalarType Elem = ir::ScalarType::F32;
  BreakerState State = BreakerState::Closed;
  BreakerCounters Breaker;
  /// Failure ratio over the breaker's current rolling window.
  double FailureRatio = 0;
  /// The lane's primary batch variant is quarantined on its engine.
  bool BatchQuarantined = false;
};

/// Health of one per-generation shard.
struct ShardHealth {
  std::string ArchName;
  size_t QueueDepth = 0; ///< Jobs waiting in the admission queue now.
  ServiceStats Stats;    ///< This shard's counters.
  /// The shard's variant cache: hits, misses and compiles. A shard
  /// warm-started from a pack shows hits where a cold one shows compiles.
  engine::CacheStats Cache;
  /// Startup problems (an unreadable or rejected tuned pack).
  /// The shard degraded to a cold start instead of failing construction.
  std::vector<std::string> Warnings;
  std::vector<LaneHealth> Lanes;

  /// Fraction of completed jobs answered by the failover chain.
  double degradedRatio() const {
    return Stats.Completed
               ? static_cast<double>(Stats.DegradedJobs) /
                     static_cast<double>(Stats.Completed)
               : 0;
  }
  /// Fraction of admitted jobs whose deadline expired before launch.
  double expiryRatio() const {
    return Stats.Submitted
               ? static_cast<double>(Stats.Expired) /
                     static_cast<double>(Stats.Submitted)
               : 0;
  }
};

/// Whole-service health snapshot (`tgrc serve --health`).
struct HealthReport {
  std::vector<ShardHealth> Shards;
  ServiceStats Totals;

  /// Human-oriented multi-line rendering (one block per shard, one line
  /// per lane).
  std::string renderText() const;
};

/// Nearest-rank percentile over \p Sorted (ascending); \p Q in [0, 1].
/// Returns 0 for an empty sample — the zero-completed-jobs guard shared
/// by `tgrc serve`, bench_serving_latency, and bench_serving_chaos.
double percentileSorted(const std::vector<double> &Sorted, double Q);

} // namespace tangram::serve

#endif // TANGRAM_SERVE_HEALTH_H
