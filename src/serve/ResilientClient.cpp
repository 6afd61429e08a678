//===- ResilientClient.cpp - Retry/backoff serving client ------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "serve/ResilientClient.h"

#include "engine/ExecutionEngine.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <chrono>
#include <thread>

using namespace tangram;
using namespace tangram::serve;

using support::Expected;
using support::Status;
using support::StatusCode;

ResilientClient::ResilientClient(ReductionService &Svc,
                                 ResilientClientOptions Options)
    : Svc(Svc), Opts(Options) {}

ClientStats ResilientClient::getStats() const {
  std::lock_guard<std::mutex> L(Mu);
  return Stats;
}

double ResilientClient::nextBackoff(double Prev) {
  std::lock_guard<std::mutex> L(Mu);
  // Decorrelated jitter: uniform in [base, prev * 3], capped. Grows like
  // exponential backoff in expectation but desynchronizes retrying
  // clients, so a rejected burst does not re-arrive as a burst.
  const double Lo = Opts.BaseBackoffSeconds;
  const double Hi = std::max(Lo, Prev * 3);
  // The shared splitmix64 generator, from a fixed seed, replays the
  // identical jitter stream every run, like the chaos/fault plans.
  const double U =
      static_cast<double>(support::splitmix64Next(RngState) >> 11) *
      (1.0 / 9007199254740992.0); // 2^-53: U in [0, 1).
  return std::min(Opts.MaxBackoffSeconds, Lo + U * (Hi - Lo));
}

Expected<JobResult> ResilientClient::run(JobSpec Job) {
  {
    std::lock_guard<std::mutex> L(Mu);
    ++Stats.Submitted;
  }
  double Backoff = Opts.BaseBackoffSeconds;
  for (unsigned Attempt = 1;; ++Attempt) {
    auto Out = Svc.submit(Job).get();
    if (Out) {
      std::lock_guard<std::mutex> L(Mu);
      ++Stats.Succeeded;
      return Out;
    }
    // Only Overloaded is worth retrying: it is the service's explicit
    // "try again later". Unavailable means shutdown, DeadlineExceeded
    // means the budget is spent, engine errors are deterministic.
    const bool Retryable = Out.status().Code == StatusCode::Overloaded;
    if (!Retryable || Attempt >= Opts.MaxAttempts) {
      std::lock_guard<std::mutex> L(Mu);
      ++Stats.Failed;
      if (Retryable)
        ++Stats.RetriesExhausted;
      return Out;
    }
    Backoff = nextBackoff(Backoff);
    // Deadline propagation: a retry that would sleep past the job's own
    // deadline cannot possibly be admitted in time — stop now and report
    // the deadline, not the transient overload.
    if (Job.DeadlineSeconds > 0 &&
        engine::steadySeconds() + Backoff >= Job.DeadlineSeconds) {
      std::lock_guard<std::mutex> L(Mu);
      ++Stats.Failed;
      ++Stats.DeadlineStops;
      return Expected<JobResult>(
          Status(StatusCode::DeadlineExceeded,
                 "retry backoff would cross the job deadline; giving up"));
    }
    {
      std::lock_guard<std::mutex> L(Mu);
      ++Stats.Retries;
      Stats.BackoffSecondsTotal += Backoff;
    }
    std::this_thread::sleep_for(std::chrono::duration<double>(Backoff));
  }
}
