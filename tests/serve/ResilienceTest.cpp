//===- ResilienceTest.cpp - Resilience building-block tests ----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Unit-level coverage of the resilience layer's building blocks:
//  - ChaosInjector firing schedules are deterministic, seam-scoped, and
//    bounded by MaxFires;
//  - CircuitBreaker walks the full Closed -> Open -> HalfOpen -> Closed
//    lifecycle under injected time, re-trips on probe failure, and never
//    trips when disabled;
//  - percentileSorted survives the zero-completed-jobs case;
//  - ResilientClient absorbs Overloaded refusals with retries, treats
//    Unavailable as terminal, never sleeps a retry past the job deadline,
//    and gives up cleanly when attempts are exhausted;
//  - getHealth() reports per-lane breaker state and the stats split
//    distinguishes Overloaded from Unavailable refusals.
//
//===----------------------------------------------------------------------===//

#include "serve/ResilientClient.h"

#include "engine/ExecutionEngine.h"

#include <gtest/gtest.h>

#include <string>

using namespace tangram;
using namespace tangram::serve;

using support::StatusCode;

namespace {

JobSpec smallAddJob() {
  JobSpec Job;
  Job.Op = ReduceOp::Add;
  Job.Elem = ir::ScalarType::F32;
  Job.FloatData = {1, 2, 3}; // Exact in any fold order: sum == 6.0.
  return Job;
}

// --- ChaosInjector -------------------------------------------------------

TEST(ChaosSchedule, DeterministicAcrossInjectors) {
  ChaosPlan P;
  P.Kind = ChaosKind::SpuriousReject;
  P.Seed = 42;
  P.Period = 3;
  ChaosInjector A(P), B(P);
  unsigned Fired = 0;
  for (unsigned I = 0; I != 64; ++I) {
    bool FA = A.fires(ChaosKind::SpuriousReject);
    EXPECT_EQ(FA, B.fires(ChaosKind::SpuriousReject)) << "event " << I;
    Fired += FA ? 1 : 0;
  }
  EXPECT_EQ(A.getEventCount(), 64u);
  EXPECT_EQ(A.getFireCount(), Fired);
  // Period 3 fires on roughly a third of events — never none, never all.
  EXPECT_GT(Fired, 0u);
  EXPECT_LT(Fired, 64u);
}

TEST(ChaosSchedule, OtherSeamsNeverFire) {
  ChaosPlan P;
  P.Kind = ChaosKind::QueueDelay;
  P.Period = 1;
  ChaosInjector I(P);
  EXPECT_FALSE(I.fires(ChaosKind::CompileFail));
  EXPECT_FALSE(I.fires(ChaosKind::SlowWorker));
  EXPECT_TRUE(I.fires(ChaosKind::QueueDelay)); // Period 1: every event.
}

TEST(ChaosSchedule, MaxFiresBoundsTheStorm) {
  ChaosPlan P;
  P.Kind = ChaosKind::QuarantineStorm;
  P.Period = 1;
  P.MaxFires = 5;
  ChaosInjector I(P);
  unsigned Fired = 0;
  for (unsigned E = 0; E != 32; ++E)
    Fired += I.fires(ChaosKind::QuarantineStorm) ? 1 : 0;
  EXPECT_EQ(Fired, 5u);
  EXPECT_EQ(I.getFireCount(), 5u);
  EXPECT_EQ(I.getEventCount(), 32u); // Post-storm events still counted.
}

TEST(ChaosNames, ParseRoundTrip) {
  unsigned Count = 0;
  const ChaosKind *Kinds = getAllChaosKinds(Count);
  ASSERT_EQ(Count, 5u);
  for (unsigned I = 0; I != Count; ++I) {
    ChaosKind K = ChaosKind::None;
    EXPECT_TRUE(parseChaosKind(getChaosKindName(Kinds[I]), K));
    EXPECT_EQ(K, Kinds[I]);
  }
  ChaosKind K = ChaosKind::None;
  EXPECT_TRUE(parseChaosKind("none", K));
  EXPECT_EQ(K, ChaosKind::None);
  EXPECT_FALSE(parseChaosKind("meteor-strike", K));
}

// --- CircuitBreaker ------------------------------------------------------

CircuitBreakerOptions tinyBreaker() {
  CircuitBreakerOptions BO;
  BO.WindowSize = 4;
  BO.MinSamples = 2;
  BO.FailureRatio = 0.5;
  BO.OpenSeconds = 1.0;
  BO.ProbeSuccesses = 2;
  return BO;
}

TEST(Breaker, TripFastFailProbeRecover) {
  CircuitBreaker B(tinyBreaker());
  EXPECT_EQ(B.getState(), BreakerState::Closed);
  EXPECT_EQ(B.decide(0.0), BreakerDecision::Allow);
  B.record(false, 0.0); // One failure: below MinSamples, stays Closed.
  EXPECT_EQ(B.getState(), BreakerState::Closed);
  B.record(false, 0.1); // Two of two failed: trip.
  EXPECT_EQ(B.getState(), BreakerState::Open);
  EXPECT_EQ(B.getCounters().Trips, 1u);

  // Open: fast-fail until the cooldown elapses.
  EXPECT_EQ(B.decide(0.5), BreakerDecision::FastFail);
  EXPECT_EQ(B.getCounters().FastFails, 1u);

  // Cooldown over: the transitioning call is the first probe, and only
  // one probe is in flight at a time.
  EXPECT_EQ(B.decide(1.5), BreakerDecision::Probe);
  EXPECT_EQ(B.getState(), BreakerState::HalfOpen);
  EXPECT_EQ(B.decide(1.6), BreakerDecision::FastFail);
  B.record(true, 1.7); // Probe 1 of 2 succeeded: still HalfOpen.
  EXPECT_EQ(B.getState(), BreakerState::HalfOpen);
  EXPECT_EQ(B.decide(1.8), BreakerDecision::Probe);
  B.record(true, 1.9); // Probe 2 of 2: recovered.
  EXPECT_EQ(B.getState(), BreakerState::Closed);
  EXPECT_EQ(B.getCounters().Recoveries, 1u);
  EXPECT_EQ(B.getCounters().Probes, 2u);
  EXPECT_EQ(B.getFailureRatio(), 0.0); // Recovery resets the window.
}

TEST(Breaker, ProbeFailureReTrips) {
  CircuitBreaker B(tinyBreaker());
  B.record(false, 0.0);
  B.record(false, 0.0);
  ASSERT_EQ(B.getState(), BreakerState::Open);
  ASSERT_EQ(B.decide(1.5), BreakerDecision::Probe);
  B.record(false, 1.6); // The probe failed: back to Open, cooldown anew.
  EXPECT_EQ(B.getState(), BreakerState::Open);
  EXPECT_EQ(B.getCounters().Trips, 2u);
  EXPECT_EQ(B.decide(2.0), BreakerDecision::FastFail); // 1.6 + 1.0 > 2.0.
  EXPECT_EQ(B.decide(2.7), BreakerDecision::Probe);
}

TEST(Breaker, DisabledNeverTrips) {
  CircuitBreakerOptions BO = tinyBreaker();
  BO.Enabled = false;
  CircuitBreaker B(BO);
  for (unsigned I = 0; I != 16; ++I) {
    EXPECT_EQ(B.decide(static_cast<double>(I)), BreakerDecision::Allow);
    B.record(false, static_cast<double>(I));
  }
  EXPECT_EQ(B.getState(), BreakerState::Closed);
  EXPECT_EQ(B.getCounters().Trips, 0u);
}

// --- percentileSorted ----------------------------------------------------

TEST(Percentile, EmptySampleIsZeroNotUB) {
  std::vector<double> Empty;
  EXPECT_EQ(percentileSorted(Empty, 0.50), 0.0);
  EXPECT_EQ(percentileSorted(Empty, 0.99), 0.0);
}

TEST(Percentile, NearestRankAndClamping) {
  std::vector<double> S = {1, 2, 3, 4};
  EXPECT_EQ(percentileSorted(S, 0.0), 1.0);
  EXPECT_EQ(percentileSorted(S, 1.0), 4.0);
  EXPECT_EQ(percentileSorted(S, 0.5), 2.0);
  EXPECT_EQ(percentileSorted(S, -1.0), 1.0); // Clamped.
  EXPECT_EQ(percentileSorted(S, 2.0), 4.0);  // Clamped.
}

// --- ResilientClient -----------------------------------------------------

TEST(Client, RetriesAbsorbSpuriousRejects) {
  ServiceOptions SO;
  SO.Chaos.Kind = ChaosKind::SpuriousReject;
  SO.Chaos.Seed = 7;
  SO.Chaos.Period = 2;
  SO.Chaos.MaxFires = 6; // Bounded storm: every job eventually lands.
  ReductionService Svc(SO);
  ResilientClientOptions CO;
  CO.MaxAttempts = 8;
  CO.BaseBackoffSeconds = 1e-4;
  CO.MaxBackoffSeconds = 1e-3;
  ResilientClient Client(Svc, CO);

  for (unsigned J = 0; J != 8; ++J) {
    auto Out = Client.run(smallAddJob());
    ASSERT_TRUE(Out.ok()) << "job " << J << ": "
                          << Out.status().toString();
    EXPECT_EQ(Out->FloatValue, 6.0);
  }
  ClientStats CS = Client.getStats();
  EXPECT_EQ(CS.Succeeded, 8u);
  EXPECT_EQ(CS.Failed, 0u);
  EXPECT_GT(CS.Retries, 0u); // The storm really refused some admissions.
  ServiceStats St = Svc.getStats();
  EXPECT_EQ(St.RejectedOverloaded, CS.Retries);
  EXPECT_EQ(St.RejectedUnavailable, 0u);
  EXPECT_EQ(St.ChaosInjected, CS.Retries);
}

TEST(Client, UnavailableIsTerminal) {
  ReductionService Svc{ServiceOptions()};
  Svc.stop();
  ResilientClient Client(Svc);
  auto Out = Client.run(smallAddJob());
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.code(), StatusCode::Unavailable);
  ClientStats CS = Client.getStats();
  EXPECT_EQ(CS.Retries, 0u); // Shutdown is not worth retrying.
  EXPECT_EQ(CS.Failed, 1u);
  // The split keeps shutdown refusals out of the backpressure counter.
  ServiceStats St = Svc.getStats();
  EXPECT_EQ(St.RejectedUnavailable, 1u);
  EXPECT_EQ(St.RejectedOverloaded, 0u);
  EXPECT_EQ(St.rejected(), 1u);
}

TEST(Client, DeadlineStopsRetries) {
  ServiceOptions SO;
  SO.Chaos.Kind = ChaosKind::SpuriousReject;
  SO.Chaos.Period = 1; // Every admission refused: only retries remain.
  ReductionService Svc(SO);
  ResilientClientOptions CO;
  CO.MaxAttempts = 10;
  CO.BaseBackoffSeconds = 0.05;
  CO.MaxBackoffSeconds = 0.05; // Deterministic backoff: jitter range is 0.
  ResilientClient Client(Svc, CO);

  JobSpec Job = smallAddJob();
  Job.DeadlineSeconds = engine::steadySeconds() + 0.12;
  auto Out = Client.run(std::move(Job));
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.code(), StatusCode::DeadlineExceeded);
  ClientStats CS = Client.getStats();
  EXPECT_EQ(CS.DeadlineStops, 1u);
  // The budget allowed some sleeping but nowhere near MaxAttempts worth.
  EXPECT_LT(CS.Retries, 4u);
}

TEST(Client, ExhaustedRetriesReportOverloaded) {
  ServiceOptions SO;
  SO.Chaos.Kind = ChaosKind::SpuriousReject;
  SO.Chaos.Period = 1;
  ReductionService Svc(SO);
  ResilientClientOptions CO;
  CO.MaxAttempts = 3;
  CO.BaseBackoffSeconds = 1e-4;
  CO.MaxBackoffSeconds = 1e-3;
  ResilientClient Client(Svc, CO);
  auto Out = Client.run(smallAddJob());
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.code(), StatusCode::Overloaded);
  ClientStats CS = Client.getStats();
  EXPECT_EQ(CS.RetriesExhausted, 1u);
  EXPECT_EQ(CS.Retries, 2u); // MaxAttempts - 1 re-submissions.
  EXPECT_GT(CS.BackoffSecondsTotal, 0.0);
}

// --- Health reporting ----------------------------------------------------

TEST(Health, ReportsLaneBreakerStateAndTotals) {
  ServiceOptions SO;
  SO.StartWorkers = false;
  ReductionService Svc(SO);
  std::vector<std::future<support::Expected<JobResult>>> Futures;
  for (unsigned J = 0; J != 3; ++J)
    Futures.push_back(Svc.submit(smallAddJob()));
  Svc.drainNow();
  for (auto &F : Futures)
    EXPECT_TRUE(F.get().ok());

  HealthReport R = Svc.getHealth();
  ASSERT_EQ(R.Shards.size(), 1u);
  const ShardHealth &S = R.Shards.front();
  EXPECT_FALSE(S.ArchName.empty());
  EXPECT_EQ(S.QueueDepth, 0u);
  EXPECT_EQ(S.Stats.Completed, 3u);
  ASSERT_EQ(S.Lanes.size(), 1u);
  EXPECT_EQ(S.Lanes.front().State, BreakerState::Closed);
  EXPECT_FALSE(S.Lanes.front().BatchQuarantined);
  EXPECT_EQ(S.degradedRatio(), 0.0);
  EXPECT_EQ(R.Totals.Completed, 3u);

  std::string Text = R.renderText();
  EXPECT_NE(Text.find(S.ArchName), std::string::npos);
  EXPECT_NE(Text.find("lane"), std::string::npos);
  EXPECT_NE(Text.find("closed"), std::string::npos);
}

} // namespace
