//===- RaceCheckTest.cpp - Dynamic race-detector tests -----------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Both directions of the RaceCheck contract:
//
//  - every variant the enumerator produces is race-free on every
//    architecture (the synthesized synchronization really is sufficient);
//  - stripping the shared-atomic qualifier or the global-atomic Map
//    lowering from curated variants seeds a race the detector reports,
//    with a diagnostic that names the codelet source line.
//
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"
#include "ir/Bytecode.h"
#include "ir/Transforms.h"
#include "tangram/Tangram.h"

#include <gtest/gtest.h>

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

/// One race campaign via the request-shaped diagnose() entry point.
support::Expected<engine::RaceReport>
raceDiagnose(const TangramReduction &TR, const VariantDescriptor &V,
             const sim::ArchDesc &Arch, size_t N) {
  engine::DiagnoseRequest DR;
  DR.Kind = engine::DiagnoseKind::Race;
  DR.Desc = V;
  DR.N = N;
  auto Report = TR.diagnose(Arch, DR);
  if (!Report)
    return Report.status();
  return Report->Race;
}

std::string renderAll(const TangramReduction &TR,
                      const engine::RaceReport &Report) {
  std::string Out;
  for (const sim::RaceDiagnostic &D : Report.Diagnostics)
    Out += TR.renderRace(D) + "\n";
  return Out;
}

//===----------------------------------------------------------------------===//
// Direction 1: the enumerated space is race-free everywhere.
//===----------------------------------------------------------------------===//

class CleanSweep : public ::testing::TestWithParam<int> {};

TEST_P(CleanSweep, EveryEnumeratedVariantIsRaceFree) {
  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  const sim::ArchDesc &Arch = Archs[GetParam()];
  TangramReduction &TR = facade();
  for (const VariantDescriptor &V : TR.getSearchSpace().All) {
    auto Report = raceDiagnose(TR, V, Arch, 1 << 12);
    ASSERT_TRUE(Report.ok())
        << V.getName() << ": " << Report.status().toString();
    EXPECT_TRUE(Report->clean())
        << V.getName() << " on " << Arch.Name << ":\n"
        << renderAll(TR, *Report);
    EXPECT_FALSE(Report->Truncated) << V.getName();
    EXPECT_EQ(Report->LaunchCount, V.usesSecondKernel() ? 2u : 1u)
        << V.getName();
  }
}

std::string archName(const ::testing::TestParamInfo<int> &Info) {
  return Info.param == 0   ? "Kepler"
         : Info.param == 1 ? "Maxwell"
                           : "Pascal";
}

INSTANTIATE_TEST_SUITE_P(AllArchs, CleanSweep, ::testing::Values(0, 1, 2),
                         archName);

TEST(RaceCheck, SecondKernelVariantCoversBothLaunches) {
  // The pruned set keeps only atomic-grid versions, so the two-kernel
  // aggregation path (Listing 1) needs an explicit descriptor.
  TangramReduction &TR = facade();
  const VariantDescriptor *TwoKernel = nullptr;
  for (const VariantDescriptor &V : TR.getSearchSpace().All)
    if (V.usesSecondKernel() && V.Coop != CoopKind::SerialThread0) {
      TwoKernel = &V;
      break;
    }
  ASSERT_NE(TwoKernel, nullptr);
  auto Report =
      raceDiagnose(TR, *TwoKernel, sim::getMaxwellGTX980(), 1 << 12);
  ASSERT_TRUE(Report.ok()) << Report.status().toString();
  EXPECT_EQ(Report->LaunchCount, 2u);
  EXPECT_TRUE(Report->clean()) << renderAll(TR, *Report);
}

TEST(RaceCheck, EngineReportsMultiBlockGridsClean) {
  // Grid-atomic combine across many blocks: the cross-block accesses are
  // atomic-vs-atomic, which the detector must not flag.
  TangramReduction &TR = facade();
  VariantDescriptor V =
      *findByFigure6Label(TR.getSearchSpace(), "n");
  V.BlockSize = 64; // 1<<12 elements / 64 = 64 blocks.
  engine::ExecutionEngine &E = TR.engineFor(sim::getPascalP100());
  engine::DiagnoseRequest DR;
  DR.Kind = engine::DiagnoseKind::Race;
  DR.Desc = V;
  DR.N = 1 << 12;
  auto Full = E.diagnose(DR);
  ASSERT_TRUE(Full.ok()) << Full.status().toString();
  const engine::RaceReport &Report = Full->Race;
  EXPECT_TRUE(Report.clean()) << renderAll(TR, Report);
}

//===----------------------------------------------------------------------===//
// Direction 2: seeded races are caught and located.
//===----------------------------------------------------------------------===//

/// Synthesizes \p Desc, strips atomics in the selected memory space(s)
/// from the main kernel, recompiles, and runs the intentionally racy
/// variant under RaceCheck on \p Arch.
engine::RaceReport seedAndCheck(const VariantDescriptor &Desc,
                                const sim::ArchDesc &Arch, bool Shared,
                                bool Global, size_t N) {
  TangramReduction &TR = facade();
  auto S = TR.synthesize(Desc);
  EXPECT_TRUE(S.ok()) << S.status().toString();
  synth::SynthesizedVariant &V = **S;
  ir::Kernel *K = V.M->getKernel(V.K->getName());
  EXPECT_NE(K, nullptr);
  ir::TransformStats Stats = ir::demoteAtomics(*V.M, *K, Shared, Global);
  EXPECT_GT(Stats.AtomicsDemoted, 0u) << Desc.getName();
  V.Compiled = ir::compileKernel(*K);

  engine::ExecutionEngine &E = TR.engineFor(Arch);
  size_t Mark = E.deviceMark();
  sim::BufferId In = E.getDevice().alloc(V.Elem, N);
  for (size_t I = 0; I != N; ++I) {
    sim::Cell C;
    C.I = static_cast<long long>(I % 17);
    C.F = static_cast<double>(I % 17);
    E.getDevice().get(In).write(I, C);
  }
  engine::ReduceRequest Req;
  Req.In = In;
  Req.N = N;
  Req.Mode = sim::ExecMode::RaceCheck;
  auto Run = E.run(Req, V);
  E.deviceRelease(Mark);
  EXPECT_TRUE(Run.ok()) << Run.status().toString();

  engine::RaceReport Report;
  if (Run) {
    Report.Diagnostics = Run->Launch.Races;
    Report.Conflicts = Run->Launch.RaceConflicts;
    Report.Truncated = Run->Launch.RaceCheckTruncated;
    Report.LaunchCount = V.SecondStage ? 2 : 1;
  }
  return Report;
}

TEST(SeededRace, SharedV1WithoutAtomicQualifierIsFlagged) {
  // Fig. 3a: every thread atomically accumulates into one shared cell.
  // Without the qualifier all 32 lanes of a warp RMW the same address in
  // the same lockstep step — a same-step write-write race.
  TangramReduction &TR = facade();
  VariantDescriptor V = *findByFigure6Label(TR.getSearchSpace(), "n");
  engine::RaceReport Report =
      seedAndCheck(V, sim::getMaxwellGTX980(), /*Shared=*/true,
                   /*Global=*/false, 1 << 10);
  ASSERT_FALSE(Report.clean());
  ASSERT_FALSE(Report.Diagnostics.empty());
  const sim::RaceDiagnostic &D = Report.Diagnostics.front();
  EXPECT_EQ(D.Space, sim::MemSpace::Shared);
  // The diagnostic maps back to a codelet source line.
  std::string Rendered = TR.renderRace(D);
  EXPECT_NE(Rendered.find("reduction.tgr:"), std::string::npos) << Rendered;
}

TEST(SeededRace, SharedV2WithoutAtomicQualifierIsFlagged) {
  // Fig. 3b: per-warp trees then one shared-atomic combine per warp.
  // Demoted, the warp leaders race write-write on the accumulator across
  // warps (no barrier between their combines).
  TangramReduction &TR = facade();
  VariantDescriptor V = *findByFigure6Label(TR.getSearchSpace(), "o");
  engine::RaceReport Report =
      seedAndCheck(V, sim::getPascalP100(), /*Shared=*/true,
                   /*Global=*/false, 1 << 10);
  ASSERT_FALSE(Report.clean());
  ASSERT_FALSE(Report.Diagnostics.empty());
  EXPECT_EQ(Report.Diagnostics.front().Space, sim::MemSpace::Shared);
  std::string Rendered = TR.renderRace(Report.Diagnostics.front());
  EXPECT_NE(Rendered.find("reduction.tgr:"), std::string::npos) << Rendered;
}

TEST(SeededRace, GlobalCombineWithoutMapLoweringIsFlagged) {
  // Listing 2's grid combine demoted to a plain load/op/store: blocks are
  // never ordered against each other, so any two blocks race on the
  // accumulator cell.
  TangramReduction &TR = facade();
  VariantDescriptor V = *findByFigure6Label(TR.getSearchSpace(), "n");
  ASSERT_EQ(V.GridScheme, GridCombine::GlobalAtomic);
  V.BlockSize = 64; // 4096 elements -> 64 blocks sharing one accumulator.
  engine::RaceReport Report =
      seedAndCheck(V, sim::getKeplerK40c(), /*Shared=*/false,
                   /*Global=*/true, 1 << 12);
  ASSERT_FALSE(Report.clean());
  ASSERT_FALSE(Report.Diagnostics.empty());
  bool SawGlobal = false;
  for (const sim::RaceDiagnostic &D : Report.Diagnostics)
    SawGlobal |= D.Space == sim::MemSpace::Global;
  EXPECT_TRUE(SawGlobal);
}

TEST(SeededRace, DiagnosticNamesKernelAndMemory) {
  TangramReduction &TR = facade();
  VariantDescriptor V = *findByFigure6Label(TR.getSearchSpace(), "n");
  engine::RaceReport Report =
      seedAndCheck(V, sim::getMaxwellGTX980(), /*Shared=*/true,
                   /*Global=*/false, 1 << 10);
  ASSERT_FALSE(Report.Diagnostics.empty());
  const sim::RaceDiagnostic &D = Report.Diagnostics.front();
  EXPECT_FALSE(D.KernelName.empty());
  EXPECT_FALSE(D.MemName.empty());
  std::string Body = D.render();
  EXPECT_NE(Body.find(D.MemName), std::string::npos) << Body;
}

TEST(SeededRace, ReportIsDeduplicatedAndCapped) {
  // 1024 threads all racing on one cell must not produce 1024 diagnostics:
  // conflicts are counted raw but diagnostics dedup to the racing PC pair.
  TangramReduction &TR = facade();
  VariantDescriptor V = *findByFigure6Label(TR.getSearchSpace(), "n");
  engine::RaceReport Report =
      seedAndCheck(V, sim::getMaxwellGTX980(), /*Shared=*/true,
                   /*Global=*/false, 1 << 10);
  ASSERT_FALSE(Report.clean());
  EXPECT_GT(Report.Conflicts, Report.Diagnostics.size());
  EXPECT_LE(Report.Diagnostics.size(), size_t(16));
}

} // namespace
