//===- ResilientClient.h - Retry/backoff serving client ---------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The client half of the resilience story: ReductionService refuses
/// admission with Overloaded when a shard queue is full (and chaos can
/// make it refuse spuriously); ResilientClient absorbs those refusals
/// with bounded retries, exponential backoff with decorrelated jitter,
/// and hard deadline propagation — it never sleeps a retry past the
/// job's own DeadlineSeconds. A retry after Overloaded is the only
/// resubmission: the client never duplicates a job that was admitted.
///
/// Blocking facade: run() resolves the submit future on the calling
/// thread, so the service must have running workers (StartWorkers=true);
/// in manual-pump mode the wait would never finish.
///
/// Every decision the client makes is counted in ClientStats so tests
/// and benchmarks can assert on the retry economy, not just outcomes.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_SERVE_RESILIENTCLIENT_H
#define TANGRAM_SERVE_RESILIENTCLIENT_H

#include "serve/ReductionService.h"

#include <cstdint>
#include <mutex>

namespace tangram::serve {

/// Retry policy knobs.
struct ResilientClientOptions {
  /// Total submit attempts per job (1 = no retries).
  unsigned MaxAttempts = 4;
  /// First backoff sleep; later sleeps jitter upward from here.
  double BaseBackoffSeconds = 0.0005;
  /// Backoff cap (decorrelated jitter grows fast — the cap keeps tail
  /// retries from sleeping through the whole deadline budget).
  double MaxBackoffSeconds = 0.05;
};

/// Counters of every decision the client made.
struct ClientStats {
  uint64_t Submitted = 0;        ///< run() calls.
  uint64_t Succeeded = 0;        ///< Jobs that returned a result.
  uint64_t Failed = 0;           ///< Jobs that returned a Status.
  uint64_t Retries = 0;          ///< Re-submissions after Overloaded.
  uint64_t RetriesExhausted = 0; ///< Gave up: attempts hit MaxAttempts.
  uint64_t DeadlineStops = 0;    ///< Gave up: backoff would cross the
                                 ///< job's deadline.
  double BackoffSecondsTotal = 0; ///< Total time slept between attempts.
};

/// Thread-safe: many submitter threads may share one client (the jitter
/// stream and stats are mutex-guarded; the service itself is safe).
class ResilientClient {
public:
  explicit ResilientClient(ReductionService &Svc,
                           ResilientClientOptions Opts = {});

  /// Submits \p Job, retrying Overloaded refusals with backoff until it
  /// succeeds, exhausts MaxAttempts, or would sleep past the job's
  /// deadline. All other failures (Unavailable, DeadlineExceeded, engine
  /// errors) are terminal and returned as-is.
  support::Expected<JobResult> run(JobSpec Job);

  ClientStats getStats() const;
  const ResilientClientOptions &getOptions() const { return Opts; }

private:
  /// Next decorrelated-jitter sleep given the previous one.
  double nextBackoff(double Prev);

  ReductionService &Svc;
  ResilientClientOptions Opts;
  mutable std::mutex Mu; ///< Guards Stats and RngState.
  ClientStats Stats;
  uint64_t RngState = 1; ///< Jitter stream state, from a fixed seed.
};

} // namespace tangram::serve

#endif // TANGRAM_SERVE_RESILIENTCLIENT_H
