//===- ReductionServiceTest.cpp - Serving-layer acceptance tests ------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The serving-layer acceptance suite:
//  - coalesced (batched) results are bit-identical to running each job
//    alone on the same engine with the same variant, across the
//    op x dtype matrix;
//  - a full admission queue refuses with StatusCode::Overloaded and a
//    stopping service with StatusCode::Unavailable, each without invoking
//    the completion;
//  - a quarantined batch variant degrades jobs through the failover chain
//    instead of failing them;
//  - stop() drains every queued job before the workers exit.
//
//===----------------------------------------------------------------------===//

#include "serve/ReductionService.h"

#include "engine/ExecutionEngine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>

using namespace tangram;
using namespace tangram::serve;

using support::StatusCode;

namespace {

/// Deterministic payload for job \p J: small signed values with a distinct
/// extremum per job so Min/Max/ArgMax answers differ across jobs.
JobSpec makeJob(ReduceOp Op, ir::ScalarType Elem, size_t J, size_t N) {
  JobSpec Job;
  Job.Op = Op;
  Job.Elem = Elem;
  for (size_t I = 0; I != N; ++I) {
    long long V = static_cast<long long>((I * 7 + J * 13) % 101) - 50;
    if (I == (J * 3) % N)
      V = 60 + static_cast<long long>(J); // Unique extremum, unique index.
    if (ir::isFloatType(Elem))
      Job.FloatData.push_back(static_cast<double>(V) * 0.25);
    else
      Job.IntData.push_back(V);
  }
  return Job;
}

/// Runs \p Spec alone on the lane's engine with the lane's batch variant —
/// the reference a coalesced result must match bit-for-bit.
engine::ReduceResult runAlone(ReductionService &Svc, const JobSpec &Spec) {
  engine::ExecutionEngine *E =
      Svc.laneEngine(Spec.Gen, Spec.Op, Spec.Elem);
  const synth::VariantDescriptor *Desc =
      Svc.laneBatchDescriptor(Spec.Gen, Spec.Op, Spec.Elem);
  EXPECT_NE(E, nullptr);
  EXPECT_NE(Desc, nullptr);
  sim::Device &Dev = E->getDevice();
  size_t Mark = Dev.mark();
  sim::BufferId In = Dev.alloc(Spec.Elem, std::max<size_t>(1, Spec.size()));
  if (ir::isFloatType(Spec.Elem)) {
    std::vector<float> Host;
    for (double V : Spec.FloatData)
      Host.push_back(static_cast<float>(V));
    Dev.writeFloats(In, Host);
  } else {
    std::vector<int> Host;
    for (long long V : Spec.IntData)
      Host.push_back(static_cast<int>(V));
    Dev.writeInts(In, Host);
  }
  engine::ReduceRequest Req;
  Req.Desc = *Desc;
  Req.In = In;
  Req.N = Spec.size();
  auto Out = E->run(Req);
  Dev.release(Mark);
  EXPECT_TRUE(Out.ok()) << Out.status().toString();
  return Out.ok() ? *Out : engine::ReduceResult{};
}

struct MatrixPoint {
  ReduceOp Op;
  ir::ScalarType Elem;
};

std::string pointName(const MatrixPoint &P) {
  return std::string(getReduceOpSpelling(P.Op)) + "_" +
         reduce::getScalarTypeSpelling(P.Elem);
}

class BatchBitIdentity : public ::testing::TestWithParam<MatrixPoint> {};

// Batched answers must be indistinguishable from lone runs: same kernel,
// same value bits, same winning index. The padding lanes, the segmented
// arena, and the host-side epilogue must all be invisible.
TEST_P(BatchBitIdentity, CoalescedMatchesPerJobRun) {
  const MatrixPoint P = GetParam();
  ServiceOptions SO;
  SO.StartWorkers = false; // Deterministic: we pump the queue ourselves.
  ReductionService Svc(SO);

  // Mixed sizes below one tile, including the empty job (identity) and a
  // single-element one.
  const size_t Sizes[] = {193, 256, 1, 64, 0, 100, 256, 31};
  std::vector<JobSpec> Specs;
  std::vector<std::future<support::Expected<JobResult>>> Futures;
  for (size_t J = 0; J != std::size(Sizes); ++J) {
    JobSpec Job = makeJob(P.Op, P.Elem, J, Sizes[J]);
    Specs.push_back(Job);
    Futures.push_back(Svc.submit(std::move(Job)));
  }
  Svc.drainNow();

  for (size_t J = 0; J != Specs.size(); ++J) {
    auto Out = Futures[J].get();
    ASSERT_TRUE(Out.ok()) << pointName(P) << " job " << J << ": "
                          << Out.status().toString();
    EXPECT_TRUE(Out->Coalesced) << pointName(P) << " job " << J;
    EXPECT_FALSE(Out->Degraded);
    engine::ReduceResult Ref = runAlone(Svc, Specs[J]);
    // Bitwise equality, not EXPECT_NEAR: the segmented launch must fold
    // in the same order with the same rounding as the lone launch.
    EXPECT_EQ(Out->FloatValue, Ref.FloatValue)
        << pointName(P) << " job " << J;
    EXPECT_EQ(Out->IntValue, Ref.IntValue) << pointName(P) << " job " << J;
    if (isArgReduce(P.Op)) {
      EXPECT_EQ(Out->IndexValue, Ref.IndexValue)
          << pointName(P) << " job " << J;
    }
  }

  ServiceStats St = Svc.getStats();
  EXPECT_EQ(St.CoalescedJobs, std::size(Sizes));
  EXPECT_EQ(St.DirectJobs, 0u);
  EXPECT_GE(St.Batches, 1u);
  EXPECT_EQ(St.Failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    OpDtypeMatrix, BatchBitIdentity,
    ::testing::Values(MatrixPoint{ReduceOp::Add, ir::ScalarType::F32},
                      MatrixPoint{ReduceOp::Add, ir::ScalarType::I32},
                      MatrixPoint{ReduceOp::Add, ir::ScalarType::I64},
                      MatrixPoint{ReduceOp::Min, ir::ScalarType::F32},
                      MatrixPoint{ReduceOp::Min, ir::ScalarType::I32},
                      MatrixPoint{ReduceOp::Min, ir::ScalarType::I64},
                      MatrixPoint{ReduceOp::Max, ir::ScalarType::F32},
                      MatrixPoint{ReduceOp::Max, ir::ScalarType::I32},
                      MatrixPoint{ReduceOp::Max, ir::ScalarType::I64},
                      MatrixPoint{ReduceOp::ArgMax, ir::ScalarType::F32},
                      MatrixPoint{ReduceOp::ArgMax, ir::ScalarType::I32},
                      MatrixPoint{ReduceOp::ArgMax, ir::ScalarType::I64}),
    [](const ::testing::TestParamInfo<MatrixPoint> &I) {
      return pointName(I.param);
    });

// A job bigger than one tile cannot ride a segmented launch; it must fall
// through to the direct path and still answer correctly.
TEST(Batching, OversizedJobsGoDirect) {
  ServiceOptions SO;
  SO.StartWorkers = false;
  SO.BatchBlockSize = 128;
  SO.BatchCoarsen = 1; // Tile = 128 elements.
  ReductionService Svc(SO);
  auto Fut = Svc.submit(makeJob(ReduceOp::Add, ir::ScalarType::F32, 0, 4096));
  Svc.drainNow();
  auto Out = Fut.get();
  ASSERT_TRUE(Out.ok()) << Out.status().toString();
  EXPECT_FALSE(Out->Coalesced);
  double Want = 0;
  for (double V : makeJob(ReduceOp::Add, ir::ScalarType::F32, 0, 4096)
                      .FloatData)
    Want += V;
  EXPECT_NEAR(Out->FloatValue, Want, std::abs(Want) * 1e-4 + 1e-2);
  EXPECT_EQ(Svc.getStats().DirectJobs, 1u);
}

TEST(Backpressure, FullQueueRefusesWithOverloaded) {
  ServiceOptions SO;
  SO.StartWorkers = false; // Nothing drains: the queue genuinely fills.
  SO.QueueDepth = 2;
  ReductionService Svc(SO);

  std::atomic<unsigned> Completions{0};
  auto Done = [&](support::Expected<JobResult>) { ++Completions; };
  EXPECT_TRUE(
      Svc.submit(makeJob(ReduceOp::Add, ir::ScalarType::F32, 0, 16), Done)
          .ok());
  EXPECT_TRUE(
      Svc.submit(makeJob(ReduceOp::Add, ir::ScalarType::F32, 1, 16), Done)
          .ok());
  support::Status Third =
      Svc.submit(makeJob(ReduceOp::Add, ir::ScalarType::F32, 2, 16), Done);
  ASSERT_FALSE(Third.ok());
  EXPECT_EQ(Third.Code, StatusCode::Overloaded);
  // A refused submit must never invoke the completion.
  EXPECT_EQ(Completions.load(), 0u);

  Svc.drainNow(); // The two admitted jobs still complete.
  EXPECT_EQ(Completions.load(), 2u);
  ServiceStats St = Svc.getStats();
  EXPECT_EQ(St.rejected(), 1u);
  EXPECT_EQ(St.RejectedOverloaded, 1u);
  EXPECT_EQ(St.RejectedUnavailable, 0u);
  EXPECT_EQ(St.Completed, 2u);
}

TEST(Backpressure, RefusedFutureCarriesTheStatus) {
  ServiceOptions SO;
  SO.StartWorkers = false;
  SO.QueueDepth = 1;
  ReductionService Svc(SO);
  auto First = Svc.submit(makeJob(ReduceOp::Add, ir::ScalarType::F32, 0, 8));
  auto Second =
      Svc.submit(makeJob(ReduceOp::Add, ir::ScalarType::F32, 1, 8));
  auto Out = Second.get(); // Resolves immediately: admission failed.
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.code(), StatusCode::Overloaded);
  Svc.drainNow();
  EXPECT_TRUE(First.get().ok());
}

TEST(Routing, UnknownGenerationIsInvalidArgument) {
  ServiceOptions SO;
  SO.StartWorkers = false; // Pascal-only service.
  ReductionService Svc(SO);
  JobSpec Job = makeJob(ReduceOp::Add, ir::ScalarType::F32, 0, 8);
  Job.Gen = sim::ArchGeneration::Kepler;
  auto Out = Svc.submit(std::move(Job)).get();
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.code(), StatusCode::InvalidArgument);
}

TEST(Deadlines, ExpiredWhileQueuedIsDeadlineExceeded) {
  ServiceOptions SO;
  SO.StartWorkers = false;
  ReductionService Svc(SO);
  JobSpec Job = makeJob(ReduceOp::Add, ir::ScalarType::F32, 0, 8);
  Job.DeadlineSeconds = engine::steadySeconds() - 1.0; // Already past.
  auto Fut = Svc.submit(std::move(Job));
  Svc.drainNow();
  auto Out = Fut.get();
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(Svc.getStats().Expired, 1u);
}

// A quarantined batch variant must cost availability nothing: the batch
// demotes, the direct path skips its quarantined primary, and the same
// variant on the other backend answers — flagged Degraded so operators
// can see the shard is limping.
TEST(Failover, QuarantinedBatchVariantDegradesInsteadOfFailing) {
  ServiceOptions SO;
  SO.StartWorkers = false;
  ReductionService Svc(SO);

  // Force lane creation, then quarantine its batch variant — as a fault
  // campaign or a trapped launch would mid-stream.
  engine::ExecutionEngine *E = Svc.laneEngine(
      sim::ArchGeneration::Pascal, ReduceOp::Add, ir::ScalarType::F32);
  const synth::VariantDescriptor *Desc = Svc.laneBatchDescriptor(
      sim::ArchGeneration::Pascal, ReduceOp::Add, ir::ScalarType::F32);
  ASSERT_NE(E, nullptr);
  ASSERT_NE(Desc, nullptr);
  E->quarantineVariant(*Desc,
                       support::Status(StatusCode::DeadlineExceeded,
                                       "injected: variant livelocked"));

  const size_t Jobs = 6;
  std::vector<std::future<support::Expected<JobResult>>> Futures;
  std::vector<double> Want;
  for (size_t J = 0; J != Jobs; ++J) {
    JobSpec Job = makeJob(ReduceOp::Add, ir::ScalarType::F32, J, 64);
    double W = 0;
    for (double V : Job.FloatData)
      W += V;
    Want.push_back(W);
    Futures.push_back(Svc.submit(std::move(Job)));
  }
  Svc.drainNow();

  for (size_t J = 0; J != Jobs; ++J) {
    auto Out = Futures[J].get();
    ASSERT_TRUE(Out.ok()) << "job " << J << ": "
                          << Out.status().toString();
    EXPECT_TRUE(Out->Degraded) << "job " << J;
    EXPECT_FALSE(Out->Coalesced) << "job " << J;
    EXPECT_NEAR(Out->FloatValue, Want[J], std::abs(Want[J]) * 1e-4 + 1e-2);
  }
  ServiceStats St = Svc.getStats();
  EXPECT_EQ(St.Failed, 0u);
  EXPECT_GE(St.DegradedBatches, 1u);
  EXPECT_EQ(St.DegradedJobs, Jobs);
  EXPECT_EQ(St.CoalescedJobs, 0u);
}

TEST(Shutdown, StopDrainsQueuedJobsBeforeExiting) {
  ServiceOptions SO; // Worker threads on: the real serving configuration.
  std::vector<std::future<support::Expected<JobResult>>> Futures;
  ReductionService Svc(SO);
  const size_t Jobs = 32;
  for (size_t J = 0; J != Jobs; ++J)
    Futures.push_back(
        Svc.submit(makeJob(ReduceOp::Add, ir::ScalarType::I32, J, 128)));
  // Stop immediately: most jobs are still queued. Every accepted job must
  // still resolve with a result, not be dropped.
  Svc.stop();
  unsigned Completed = 0;
  for (auto &Fut : Futures) {
    auto Out = Fut.get();
    EXPECT_TRUE(Out.ok()) << Out.status().toString();
    Completed += Out.ok() ? 1 : 0;
  }
  EXPECT_EQ(Completed, Jobs);
  EXPECT_EQ(Svc.getStats().Completed, Jobs);

  // After stop, admission refuses with Unavailable and never completes.
  auto Late = Svc.submit(makeJob(ReduceOp::Add, ir::ScalarType::I32, 0, 8));
  auto Out = Late.get();
  ASSERT_FALSE(Out.ok());
  EXPECT_EQ(Out.code(), StatusCode::Unavailable);
}

TEST(Shutdown, StopIsIdempotentAndDestructorSafe) {
  ServiceOptions SO;
  ReductionService Svc(SO);
  auto Fut = Svc.submit(makeJob(ReduceOp::Max, ir::ScalarType::F32, 0, 32));
  Svc.stop();
  Svc.stop();
  EXPECT_TRUE(Fut.get().ok());
} // Destructor runs stop() a third time.

// The serving path honors Coalesce = false: every job launches alone.
TEST(Options, CoalesceOffServesEveryJobDirect) {
  ServiceOptions SO;
  SO.StartWorkers = false;
  SO.Coalesce = false;
  ReductionService Svc(SO);
  std::vector<std::future<support::Expected<JobResult>>> Futures;
  for (size_t J = 0; J != 4; ++J)
    Futures.push_back(
        Svc.submit(makeJob(ReduceOp::Min, ir::ScalarType::I64, J, 100)));
  Svc.drainNow();
  for (auto &Fut : Futures) {
    auto Out = Fut.get();
    ASSERT_TRUE(Out.ok()) << Out.status().toString();
    EXPECT_FALSE(Out->Coalesced);
  }
  ServiceStats St = Svc.getStats();
  EXPECT_EQ(St.Batches, 0u);
  EXPECT_EQ(St.DirectJobs, 4u);
}

} // namespace
