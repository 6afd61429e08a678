//===- FailoverBitsTest.cpp - Failover keeps the primary's bits ------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// A degraded job runs the lane's own batch descriptor on the other backend,
// and both backends fold that descriptor identically. So every degraded
// answer must equal the chaos-free primary answer bit for bit, on general
// random payloads too — ChaosMatrixTest's exact payloads would hide a
// failover that picked a different kernel, because every fold order gives
// them the same bits.
//
// A period-1 quarantine storm quarantines the batch variant before every
// drain. The failed attempts trip the lane breaker, so jobs reach failover
// both ways: past a quarantined primary, and by a breaker fast-fail. The
// breaker's cooldown outlasts the test, so no half-open probe restores the
// primary and every job degrades.
//
//===----------------------------------------------------------------------===//

#include "serve/ReductionService.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

using namespace tangram;
using namespace tangram::serve;

namespace {

struct FailoverPoint {
  engine::Backend Lane;
  ReduceOp Op;
  ir::ScalarType Elem;
};

/// Random payload: uniform(-1, 1) floats, whose sums round differently
/// in different fold orders, or integers of up to 40 bits.
JobSpec randomJob(ReduceOp Op, ir::ScalarType Elem, size_t N,
                  uint64_t Seed) {
  std::mt19937_64 Rng(Seed);
  std::uniform_real_distribution<double> Unit(-1.0, 1.0);
  std::uniform_int_distribution<long long> Wide(-(1LL << 40), 1LL << 40);
  JobSpec Job;
  Job.Op = Op;
  Job.Elem = Elem;
  for (size_t I = 0; I != N; ++I) {
    if (ir::isFloatType(Elem))
      Job.FloatData.push_back(Unit(Rng));
    else
      Job.IntData.push_back(Wide(Rng));
  }
  return Job;
}

/// Serves one job per size through a fresh pumped service.
std::vector<support::Expected<JobResult>>
serveAll(const ServiceOptions &SO, const FailoverPoint &P,
         const std::vector<size_t> &Sizes, ServiceStats &Stats) {
  ReductionService Svc(SO);
  std::vector<std::future<support::Expected<JobResult>>> Futures;
  for (size_t J = 0; J != Sizes.size(); ++J)
    Futures.push_back(Svc.submit(randomJob(P.Op, P.Elem, Sizes[J], J + 1)));
  Svc.drainNow();
  std::vector<support::Expected<JobResult>> Out;
  for (auto &F : Futures)
    Out.push_back(F.get());
  Stats = Svc.getStats();
  return Out;
}

class FailoverBits : public ::testing::TestWithParam<FailoverPoint> {};

TEST_P(FailoverBits, DegradedAnswersKeepThePrimarysBits) {
  const FailoverPoint P = GetParam();
  // One tile and less coalesces in the clean run; larger jobs go direct.
  const std::vector<size_t> Sizes = {16, 100, 256, 300, 1000, 4097, 9000};

  ServiceOptions Base;
  Base.StartWorkers = false;
  Base.BackendKind = P.Lane;
  ServiceStats CleanStats, StormStats;
  const auto Clean = serveAll(Base, P, Sizes, CleanStats);

  ServiceOptions Storm = Base;
  Storm.Chaos.Kind = ChaosKind::QuarantineStorm;
  Storm.Chaos.Period = 1;
  Storm.Breaker.OpenSeconds = 3600;
  const auto Degraded = serveAll(Storm, P, Sizes, StormStats);
  EXPECT_GT(CleanStats.CoalescedJobs, 0u);
  EXPECT_EQ(StormStats.DegradedJobs, Sizes.size());
  EXPECT_EQ(StormStats.BreakerTrips, 1u);
  EXPECT_GT(StormStats.BreakerFastFails, 0u);

  for (size_t J = 0; J != Sizes.size(); ++J) {
    SCOPED_TRACE("job " + std::to_string(J) + ", N = " +
                 std::to_string(Sizes[J]));
    ASSERT_TRUE(Clean[J].ok()) << Clean[J].status().toString();
    ASSERT_TRUE(Degraded[J].ok()) << Degraded[J].status().toString();
    EXPECT_FALSE(Clean[J]->Degraded);
    EXPECT_TRUE(Degraded[J]->Degraded);
    EXPECT_EQ(Degraded[J]->Used, engine::getOtherBackend(P.Lane));
    EXPECT_EQ(Degraded[J]->FloatValue, Clean[J]->FloatValue);
    EXPECT_EQ(Degraded[J]->IntValue, Clean[J]->IntValue);
    if (isArgReduce(P.Op)) {
      EXPECT_EQ(Degraded[J]->IndexValue, Clean[J]->IndexValue);
    }
  }
}

std::string pointName(const ::testing::TestParamInfo<FailoverPoint> &I) {
  return std::string(engine::getBackendName(I.param.Lane)) + "_" +
         getReduceOpSpelling(I.param.Op) + "_" +
         reduce::getScalarTypeSpelling(I.param.Elem);
}

std::vector<FailoverPoint> allPoints() {
  std::vector<FailoverPoint> Points;
  for (engine::Backend Lane :
       {engine::Backend::Simulator, engine::Backend::NativeCpu})
    for (ReduceOp Op : {ReduceOp::Add, ReduceOp::Min, ReduceOp::ArgMax})
      for (ir::ScalarType Elem : {ir::ScalarType::F32, ir::ScalarType::F64,
                                  ir::ScalarType::I64})
        Points.push_back({Lane, Op, Elem});
  return Points;
}

INSTANTIATE_TEST_SUITE_P(BackendOpDtype, FailoverBits,
                         ::testing::ValuesIn(allPoints()), pointName);

} // namespace
