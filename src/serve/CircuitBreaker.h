//===- CircuitBreaker.h - Per-lane failure circuit breaker ------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A rolling-window circuit breaker guarding one shard lane's *primary*
/// execution path (the lane's batch variant). The classic three-state
/// machine:
///
///   Closed   — requests flow; outcomes land in a rolling window of the
///              last WindowSize attempts. When the window holds at least
///              MinSamples outcomes and the failure ratio reaches
///              FailureRatio, the breaker trips to Open.
///   Open     — requests fast-fail (the shard routes them straight to the
///              failover chain without touching the primary) until
///              OpenSeconds of cooldown pass.
///   HalfOpen — after cooldown, one supervised probe at a time is allowed
///              through the primary. ProbeSuccesses consecutive probe
///              successes close the breaker (and reset the window); any
///              probe failure re-trips it to Open.
///
/// Time is injected (callers pass engine::steadySeconds()) so state
/// transitions are testable without sleeping. The class is internally
/// synchronized: the shard worker drives decide()/record() while health
/// reporting reads state from other threads.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_SERVE_CIRCUITBREAKER_H
#define TANGRAM_SERVE_CIRCUITBREAKER_H

#include <cstdint>
#include <mutex>
#include <vector>

namespace tangram::serve {

enum class BreakerState : unsigned char { Closed, Open, HalfOpen };

const char *getBreakerStateName(BreakerState S);

/// Tuning knobs; the defaults suit the serving tests' short horizons.
struct CircuitBreakerOptions {
  /// Master switch: disabled breakers always allow and never trip.
  bool Enabled = true;
  /// Rolling outcome window consulted while Closed.
  unsigned WindowSize = 16;
  /// Outcomes required in the window before the ratio is meaningful.
  unsigned MinSamples = 4;
  /// Failure ratio (failures / samples) at which the breaker trips.
  double FailureRatio = 0.5;
  /// Cooldown between tripping and the first half-open probe.
  double OpenSeconds = 0.05;
  /// Consecutive probe successes required to close again.
  unsigned ProbeSuccesses = 1;
};

/// Monotonic event counters, exposed through the health report.
struct BreakerCounters {
  uint64_t Trips = 0;      ///< Closed/HalfOpen -> Open transitions.
  uint64_t FastFails = 0;  ///< Requests denied while Open.
  uint64_t Probes = 0;     ///< Half-open probes admitted.
  uint64_t Recoveries = 0; ///< HalfOpen -> Closed transitions.
};

/// What the breaker says about one request against the primary path.
enum class BreakerDecision : unsigned char {
  Allow,    ///< Closed: run the primary normally.
  Probe,    ///< HalfOpen: run the primary as a supervised probe.
  FastFail, ///< Open: skip the primary, degrade immediately.
};

class CircuitBreaker {
public:
  explicit CircuitBreaker(CircuitBreakerOptions Opts = {});

  /// Decides one request at time \p Now (seconds, steady clock). Open
  /// breakers transition to HalfOpen here once the cooldown has elapsed;
  /// the transitioning call is the first Probe.
  BreakerDecision decide(double Now);

  /// Records the outcome of an Allow'd or Probe'd primary attempt.
  void record(bool Success, double Now);

  BreakerState getState() const;
  BreakerCounters getCounters() const;
  /// Failure ratio over the current rolling window (0 when empty).
  double getFailureRatio() const;
  const CircuitBreakerOptions &getOptions() const { return Opts; }

private:
  void tripLocked(double Now);

  CircuitBreakerOptions Opts;
  mutable std::mutex Mu;
  BreakerState State = BreakerState::Closed;
  /// Rolling window of outcomes (true = success), oldest first.
  std::vector<bool> Window;
  unsigned Failures = 0; ///< Failures currently inside Window.
  double OpenedAt = 0;
  unsigned ProbeStreak = 0; ///< Consecutive successful probes.
  bool ProbeInFlight = false;
  BreakerCounters Counters;
};

} // namespace tangram::serve

#endif // TANGRAM_SERVE_CIRCUITBREAKER_H
