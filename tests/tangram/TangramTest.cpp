//===- TangramTest.cpp - Facade and figure-shape tests ------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// End-to-end tests of the public facade plus the paper's qualitative
// claims as executable assertions: per-architecture winning variant
// families, the small-N Tangram advantage over CUB, the large-N CUB
// advantage, and the Kokkos crossover (Sections IV-C1..4). Every row
// those claims compute is also compared exactly against
// golden_figures.txt, so a change that moves a modeled figure by one ULP
// fails here even when the claim itself still holds.
//
//===----------------------------------------------------------------------===//

#include "tangram/FigureHarness.h"
#include "tangram/Tangram.h"

#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <sstream>

using namespace tangram;
using namespace tangram::synth;

namespace {

TangramReduction &facade() {
  static std::unique_ptr<TangramReduction> TR = [] {
    auto T = TangramReduction::create();
    EXPECT_TRUE(T.ok()) << T.status().toString();
    return std::move(*T);
  }();
  return *TR;
}

TEST(Tangram, CreateCompilesCanonicalSource) {
  TangramReduction &TR = facade();
  EXPECT_EQ(TR.getUnit().Codelets.size(), 6u);
  EXPECT_EQ(TR.getSearchSpace().Pruned.size(), 30u);
  EXPECT_FALSE(TR.getSourceText().empty());
}

TEST(Tangram, TuneRespectsCandidateBounds) {
  TangramReduction &TR = facade();
  VariantDescriptor V =
      *findByFigure6Label(TR.getSearchSpace(), "a");
  VariantDescriptor Tuned = TR.tune(V, sim::getMaxwellGTX980(), 1 << 20);
  const engine::TuneOptions &Tune = TR.getOptions().Tune;
  EXPECT_NE(std::find(Tune.BlockSizes.begin(), Tune.BlockSizes.end(),
                      Tuned.BlockSize),
            Tune.BlockSizes.end());
  EXPECT_LE(static_cast<size_t>(Tuned.BlockSize) * Tuned.Coarsen,
            Tune.MaxElemsPerBlock);
  EXPECT_TRUE(Tuned.sameStructure(V));
}

TEST(Tangram, TimeVariantIsFiniteForAllPruned) {
  TangramReduction &TR = facade();
  for (const VariantDescriptor &V : TR.getSearchSpace().Pruned) {
    double T = TR.timeVariant(V, sim::getKeplerK40c(), 4096);
    EXPECT_GT(T, 0.0) << V.getName();
    EXPECT_LT(T, 1.0) << V.getName();
  }
}

TEST(Tangram, InfeasibleSharedFootprintPricedOut) {
  // A direct-coop tree at block size 1024 needs >4KB shared; still fine.
  // Block size above the arch limit must never be selected by tune().
  TangramReduction &TR = facade();
  VariantDescriptor V = *findByFigure6Label(TR.getSearchSpace(), "l");
  VariantDescriptor Tuned = TR.tune(V, sim::getPascalP100(), 1 << 16);
  EXPECT_LE(Tuned.BlockSize, sim::getPascalP100().MaxThreadsPerBlock);
}

//===----------------------------------------------------------------------===//
// The paper's qualitative claims (Sections IV-C1..4)
//===----------------------------------------------------------------------===//

/// golden_figures.txt, one row per line: a key ("best <arch> <N>" for a
/// findBest winner, "figure <arch> <N>" for a FigureHarness row) and the
/// row's fields. Lines starting with '#' are comments.
const std::map<std::string, std::string> &goldenFigures() {
  static const std::map<std::string, std::string> Rows = [] {
    std::map<std::string, std::string> M;
    std::ifstream In(TGR_GOLDEN_FIGURES_PATH);
    EXPECT_TRUE(In.good()) << "cannot read " << TGR_GOLDEN_FIGURES_PATH;
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty() || Line[0] == '#')
        continue;
      std::istringstream S(Line);
      std::string Kind, Arch, N, Fields;
      if (S >> Kind >> Arch >> N && std::getline(S >> std::ws, Fields))
        M[Kind + " " + Arch + " " + N] = Fields;
    }
    return M;
  }();
  return Rows;
}

/// Compares one computed row with its golden record, bit for bit (every
/// time is printed %.17g). The failure message carries the computed line.
void expectGolden(const std::string &Key, const std::string &Row) {
  auto It = goldenFigures().find(Key);
  if (It == goldenFigures().end()) {
    ADD_FAILURE() << "no golden row; computed:\n" << Key << " " << Row;
    return;
  }
  EXPECT_EQ(It->second, Row) << "computed:\n" << Key << " " << Row;
}

std::string goldenKey(const char *Kind, const sim::ArchDesc &Arch, size_t N) {
  return strformat("%s %s %zu", Kind, sim::getArchGenerationName(Arch.Gen),
                   N);
}

std::string labelOrDash(const std::string &Label) {
  return Label.empty() ? "-" : Label;
}

/// A findBest winner: label, descriptor name, block size, coarsening and
/// modeled seconds.
void expectGoldenBest(const sim::ArchDesc &Arch, size_t N,
                      const TangramReduction::BestResult &Best) {
  expectGolden(goldenKey("best", Arch, N),
               strformat("%s %s %u %u %.17g",
                         labelOrDash(Best.Fig6Label).c_str(),
                         Best.Desc.getName().c_str(), Best.Desc.BlockSize,
                         Best.Desc.Coarsen, Best.Seconds));
}

/// A figure row: the winner as above, then the modeled Tangram, CUB,
/// Kokkos and OpenMP seconds.
FigureRow measureGolden(FigureHarness &H, const sim::ArchDesc &Arch,
                        size_t N) {
  FigureRow R = H.measure(Arch, N);
  expectGolden(goldenKey("figure", Arch, N),
               strformat("%s %s %u %u %.17g %.17g %.17g %.17g",
                         labelOrDash(R.BestLabel).c_str(), R.BestName.c_str(),
                         R.BestBlockSize, R.BestCoarsen, R.TangramSeconds,
                         R.CubSeconds, R.KokkosSeconds, R.OmpSeconds));
  return R;
}

struct ArchCase {
  const sim::ArchDesc *Arch;
  /// Expected winner labels for small inputs (1K).
  std::vector<std::string> SmallWinners;
};

class PerArchClaims : public ::testing::TestWithParam<int> {};

TEST_P(PerArchClaims, SmallArrayWinnersUseTheNewInstructions) {
  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  const sim::ArchDesc &Arch = Archs[GetParam()];
  TangramReduction::BestResult Best = facade().findBest(Arch, 1024);
  expectGoldenBest(Arch, 1024, Best);
  // Small arrays: direct cooperative codelets with shared atomics and/or
  // shuffles win everywhere (versions n/p family).
  EXPECT_FALSE(Best.Desc.BlockDistributes) << Arch.Name;
  EXPECT_TRUE(coopUsesSharedAtomics(Best.Desc.Coop) ||
              coopUsesShuffle(Best.Desc.Coop))
      << Arch.Name << " picked " << Best.Desc.getName();
  if (Arch.Gen == sim::ArchGeneration::Kepler) {
    // Kepler's software-lock shared atomics: the all-threads accumulator
    // (n) must NOT be the winner (Section IV-C2).
    EXPECT_NE(Best.Fig6Label, "n") << Arch.Name;
  } else {
    // Native units make (n) the small-array winner (Sections IV-C3/4).
    EXPECT_EQ(Best.Fig6Label, "n") << Arch.Name;
  }
}

TEST_P(PerArchClaims, LargeArraysPreferCoarsenedStridedVersions) {
  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  const sim::ArchDesc &Arch = Archs[GetParam()];
  TangramReduction::BestResult Best = facade().findBest(Arch, 1 << 26);
  expectGoldenBest(Arch, 1 << 26, Best);
  // Large arrays: two-level distribution with strided (coalesced) thread
  // access and coarsening ("distribute the input array twice").
  EXPECT_TRUE(Best.Desc.BlockDistributes) << Arch.Name;
  EXPECT_EQ(Best.Desc.BlockDist, DistPattern::Strided) << Arch.Name;
  EXPECT_GT(Best.Desc.Coarsen, 1u) << Arch.Name;
}

std::string archCaseName(const ::testing::TestParamInfo<int> &Info) {
  return Info.param == 0   ? "Kepler"
         : Info.param == 1 ? "Maxwell"
                           : "Pascal";
}

INSTANTIATE_TEST_SUITE_P(AllArchs, PerArchClaims, ::testing::Values(0, 1, 2),
                         archCaseName);

TEST(FigureShape, SmallArraysBeatCubEverywhere) {
  FigureHarness H(facade());
  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  for (unsigned A = 0; A != Count; ++A) {
    FigureRow R = measureGolden(H, Archs[A], 4096);
    EXPECT_GT(R.tangramSpeedup(), 2.0) << Archs[A].Name;
    EXPECT_LT(R.tangramSpeedup(), 12.0) << Archs[A].Name;
  }
}

TEST(FigureShape, LargeArraysLoseToCub) {
  // Section IV-C1: 17-38% slower than CUB beyond ~16M-268M elements.
  FigureHarness H(facade());
  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  for (unsigned A = 0; A != Count; ++A) {
    FigureRow R = measureGolden(H, Archs[A], 1u << 28);
    EXPECT_LT(R.tangramSpeedup(), 1.0) << Archs[A].Name;
    EXPECT_GT(R.tangramSpeedup(), 0.55) << Archs[A].Name;
  }
}

TEST(FigureShape, KokkosCrossesOverAtLargeSizes) {
  FigureHarness H(facade());
  const sim::ArchDesc &Arch = sim::getKeplerK40c();
  FigureRow Small = measureGolden(H, Arch, 4096);
  FigureRow Huge = measureGolden(H, Arch, 1u << 28);
  EXPECT_LT(Small.kokkosSpeedup(), 1.0);
  EXPECT_GT(Huge.kokkosSpeedup(), 2.0);
}

TEST(FigureShape, OpenMpWinsSmallLosesLarge) {
  FigureHarness H(facade());
  const sim::ArchDesc &Arch = sim::getMaxwellGTX980();
  FigureRow Small = measureGolden(H, Arch, 256);
  FigureRow Large = measureGolden(H, Arch, 1u << 24);
  EXPECT_GT(Small.ompSpeedup(), 3.0);
  EXPECT_LT(Large.ompSpeedup(), 0.6);
}

TEST(FigureShape, PascalPeakSpeedupNearPaperHeadline) {
  // "up to 7.8x" — the peak lives in Pascal's small/medium region.
  FigureHarness H(facade());
  FigureRow R = measureGolden(H, sim::getPascalP100(), 16384);
  EXPECT_GT(R.tangramSpeedup(), 6.0);
  EXPECT_LT(R.tangramSpeedup(), 11.0);
}

TEST(FigureHarnessTable, FormatsAllColumns) {
  FigureHarness H(facade());
  std::vector<FigureRow> Rows = {H.measure(sim::getKeplerK40c(), 1024)};
  std::string Table = formatFigureTable("Fig. X", Rows);
  EXPECT_NE(Table.find("Fig. X"), std::string::npos);
  EXPECT_NE(Table.find("1024"), std::string::npos);
  EXPECT_NE(Table.find("tangram_x"), std::string::npos);
}

} // namespace
