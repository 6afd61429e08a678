//===- BaselinesTest.cpp - Comparison framework tests -----------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "baselines/CubReduce.h"
#include "baselines/KokkosReduce.h"
#include "baselines/OmpCpuReduce.h"

#include <gtest/gtest.h>

#include <random>

using namespace tangram;
using namespace tangram::baselines;

namespace {

std::vector<float> randomFloats(size_t N, unsigned Seed) {
  std::mt19937 Rng(Seed);
  std::uniform_real_distribution<float> Dist(-2.0f, 2.0f);
  std::vector<float> Data(N);
  for (float &V : Data)
    V = Dist(Rng);
  return Data;
}

double referenceSum(const std::vector<float> &Data) {
  double Sum = 0;
  for (float V : Data)
    Sum += V;
  return Sum;
}

// A std::string (not const char *) parameter keeps gtest's printed value,
// and so the discovered ctest name, free of addresses.
class GpuBaselineCorrectness
    : public ::testing::TestWithParam<std::tuple<std::string, size_t>> {};

TEST_P(GpuBaselineCorrectness, MatchesReference) {
  auto [Which, N] = GetParam();
  std::unique_ptr<ReductionFramework> FW;
  if (Which == "cub")
    FW = std::make_unique<CubReduce>();
  else
    FW = std::make_unique<KokkosReduce>();

  std::vector<float> Data = randomFloats(N, static_cast<unsigned>(N) + 3);
  double Expected = referenceSum(Data);

  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  for (unsigned A = 0; A != Count; ++A) {
    engine::ExecutionEngine E(Archs[A]);
    sim::BufferId In =
        E.getDevice().alloc(ir::ScalarType::F32, std::max<size_t>(N, 4));
    E.getDevice().writeFloats(In, Data);
    FrameworkResult R = FW->run(E, In, N, sim::ExecMode::Functional);
    ASSERT_TRUE(R.Ok) << Archs[A].Name << ": " << R.Error;
    EXPECT_NEAR(R.Value, Expected, std::abs(Expected) * 1e-4 + 1e-2)
        << Archs[A].Name << " N=" << N;
    EXPECT_GT(R.Seconds, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, GpuBaselineCorrectness,
    ::testing::Combine(::testing::Values(std::string("cub"),
                                         std::string("kokkos")),
                       ::testing::Values<size_t>(1, 3, 4, 64, 100, 1024,
                                                 4097, 65536, 262144)),
    [](const auto &Info) {
      return std::get<0>(Info.param) + "_n" +
             std::to_string(std::get<1>(Info.param));
    });

TEST(OmpCpuReduce, FunctionalCorrectness) {
  OmpCpuReduce Omp(2);
  engine::ExecutionEngine E(sim::getKeplerK40c());
  for (size_t N : {1u, 100u, 5000u, 100000u}) {
    std::vector<float> Data = randomFloats(N, 5);
    double Expected = referenceSum(Data);
    size_t Mark = E.deviceMark();
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    E.getDevice().writeFloats(In, Data);
    FrameworkResult R = Omp.run(E, In, N, sim::ExecMode::Functional);
    E.deviceRelease(Mark);
    ASSERT_TRUE(R.Ok);
    EXPECT_NEAR(R.Value, Expected, std::abs(Expected) * 1e-6 + 1e-3);
  }
}

TEST(OmpCpuReduce, ParallelMatchesSerial) {
  std::vector<float> Data = randomFloats(250000, 11);
  double Serial = OmpCpuReduce::parallelReduce(Data, 1);
  double Parallel = OmpCpuReduce::parallelReduce(Data, 4);
  EXPECT_NEAR(Serial, Parallel, std::abs(Serial) * 1e-9 + 1e-6);
}

TEST(OmpCpuReduce, ModelIsMonotonicInN) {
  Power8Model Model;
  double Prev = 0;
  for (size_t N : {64u, 1024u, 65536u, 1u << 20, 1u << 24}) {
    double T = Model.seconds(N);
    EXPECT_GT(T, Prev);
    Prev = T;
  }
}

TEST(OmpCpuReduce, SmallArraysBeatCub) {
  // The paper's observation: the OpenMP version is ~4x faster than CUB
  // below 65K elements (Section IV-C1).
  OmpCpuReduce Omp(2);
  CubReduce Cub;
  engine::ExecutionEngine E(sim::getPascalP100());
  for (size_t N : {64u, 1024u, 16384u}) {
    std::vector<float> Data = randomFloats(N, 1);
    size_t Mark = E.deviceMark();
    sim::BufferId In =
        E.getDevice().alloc(ir::ScalarType::F32, std::max<size_t>(N, 4));
    E.getDevice().writeFloats(In, Data);
    double CubT = Cub.run(E, In, N, sim::ExecMode::Functional).Seconds;
    double OmpT = Omp.run(E, In, N, sim::ExecMode::Functional).Seconds;
    E.deviceRelease(Mark);
    EXPECT_GT(CubT, 2.0 * OmpT) << "N=" << N;
  }
}

TEST(CubReduce, VectorizedLoadsDominateAtLargeN) {
  // At 16M+ elements CUB must be memory-bound on its vectorized stream.
  CubReduce Cub;
  const size_t N = 1u << 24;
  std::vector<float> Data(N, 0.5f);
  const sim::ArchDesc &Arch = sim::getKeplerK40c();
  engine::ExecutionEngine E(Arch);
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
  E.getDevice().writeFloats(In, Data);
  FrameworkResult R = Cub.run(E, In, N, sim::ExecMode::Sampled);
  ASSERT_TRUE(R.Ok) << R.Error;
  double IdealSeconds =
      N * 4.0 / (Arch.DramBandwidthGBs * 1e9 * Arch.VectorLoadEfficiency);
  EXPECT_GT(R.Seconds, IdealSeconds * 0.9);
  EXPECT_LT(R.Seconds, IdealSeconds * 1.8);
}

TEST(KokkosReduce, StagedSchemeBeatsCubAtHugeN) {
  // Fig. 8-10: beyond ~10M elements Kokkos outperforms CUB, reaching
  // 2.2-2.7x at the largest sizes.
  CubReduce Cub;
  KokkosReduce Kokkos;
  const size_t N = 1u << 28;
  std::vector<float> Data(8, 0.0f); // Only pricing; sampled mode.
  Data.resize(8);
  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  for (unsigned A = 0; A != Count; ++A) {
    engine::ExecutionEngine E(Archs[A]);
    sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
    std::vector<float> Full(N, 0.25f);
    E.getDevice().writeFloats(In, Full);
    double CubT = Cub.run(E, In, N, sim::ExecMode::Sampled).Seconds;
    double KokkosT = Kokkos.run(E, In, N, sim::ExecMode::Sampled).Seconds;
    double Ratio = CubT / KokkosT;
    EXPECT_GT(Ratio, 1.6) << Archs[A].Name;
    EXPECT_LT(Ratio, 3.5) << Archs[A].Name;
  }
}

} // namespace
