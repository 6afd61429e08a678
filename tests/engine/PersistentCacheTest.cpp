//===- PersistentCacheTest.cpp - Tuned-pack persistence guarantees ----------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The persistence guarantees of tuned-variant packs, the one path by which
// a fresh process reuses what an earlier one compiled:
//   - cross-process reuse: export -> writeTunedPack -> a fresh facade with
//     Engine.ImportPacks serves every {op, element type, backend}
//     combination with VariantsCompiled == 0, reconstructing bit-identical
//     bytecode that produces identical reduction results;
//   - a corrupted pack is one InvalidArgument startup warning and a cold
//     start, never a wrong answer;
//   - an entry whose embedded key contradicts the key it is filed under is
//     a hard InternalError, and the rejected pack leaves the cache and the
//     quarantine untouched;
//   - a round trip warm-starts an engine that never compiles, with the
//     pack's quarantine verdicts applied;
//   - a quarantine verdict applies only to engines and service lanes of
//     the generation, op and element type it was recorded for.
//
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"
#include "engine/TunedPack.h"
#include "serve/ReductionService.h"
#include "tangram/Tangram.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace tangram;
using namespace tangram::synth;

namespace {

namespace fs = std::filesystem;

/// A unique scratch directory per test, removed on scope exit.
class TempDir {
public:
  explicit TempDir(const char *Tag) {
    Path = fs::temp_directory_path() /
           ("tgr_persistent_cache_" + std::string(Tag) + "_" +
            std::to_string(::getpid()));
    std::error_code EC;
    fs::remove_all(Path, EC);
    fs::create_directories(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string file(const char *Name) const { return (Path / Name).string(); }
  fs::path Path;
};

std::unique_ptr<TangramReduction>
makeFacade(ReduceOp Op, ir::ScalarType Elem,
           std::vector<std::string> Packs = {}) {
  TangramReduction::Options Opts;
  Opts.Op = Op;
  Opts.Elem = Elem;
  Opts.Engine.ImportPacks = std::move(Packs);
  auto TR = TangramReduction::create(Opts);
  EXPECT_TRUE(TR.ok()) << TR.status().toString();
  return TR ? std::move(*TR) : nullptr;
}

/// First two-kernel descriptor that resolves on \p B, so the round trip
/// covers a second stage too (the pruned set has none; native lowering
/// rejects bytecode outside the typed subset, so the sweep skips
/// SynthesisError).
VariantDescriptor pickDescriptor(TangramReduction &TR,
                                 engine::ExecutionEngine &E,
                                 engine::Backend B) {
  for (const VariantDescriptor &D : TR.getSearchSpace().All) {
    if (!D.usesSecondKernel())
      continue;
    auto V = E.getVariant(D, {}, B);
    if (V.ok())
      return D;
    EXPECT_EQ(V.code(), support::StatusCode::SynthesisError)
        << V.status().toString();
  }
  ADD_FAILURE() << "no two-kernel descriptor resolves on "
                << engine::getBackendName(B);
  return {};
}

/// Exports \p Descs as tuned on \p E for backend \p B and writes them to
/// \p Path as one pack.
void writePack(engine::ExecutionEngine &E,
               const std::vector<VariantDescriptor> &Descs, engine::Backend B,
               const std::string &Path) {
  engine::TunedPack Pack;
  for (const VariantDescriptor &D : Descs) {
    auto Entry = E.exportTunedVariant(D, B, 0);
    ASSERT_TRUE(Entry.ok()) << Entry.status().toString();
    Pack.Entries.push_back(std::move(*Entry));
  }
  support::Status S = engine::writeTunedPack(Path, Pack);
  ASSERT_TRUE(S.ok()) << S.toString();
}

engine::ReduceResult runOnce(engine::ExecutionEngine &E,
                             const VariantDescriptor &D, ir::ScalarType Elem,
                             engine::Backend B, size_t N) {
  size_t Mark = E.deviceMark();
  sim::BufferId In = E.getDevice().alloc(Elem, N);
  if (Elem == ir::ScalarType::F32) {
    std::vector<float> Data(N);
    for (size_t I = 0; I != N; ++I)
      Data[I] = 0.5f * static_cast<float>((I * 13 + 7) % 257);
    E.getDevice().writeFloats(In, Data);
  } else {
    std::vector<int> Data(N);
    for (size_t I = 0; I != N; ++I)
      Data[I] = static_cast<int>((I * 13 + 7) % 257) - 128;
    E.getDevice().writeInts(In, Data);
  }
  engine::ReduceRequest Req;
  Req.Desc = D;
  Req.In = In;
  Req.N = N;
  Req.BackendKind = B;
  auto Out = E.run(Req);
  EXPECT_TRUE(Out.ok()) << Out.status().toString();
  E.deviceRelease(Mark);
  return Out.ok() ? *Out : engine::ReduceResult{};
}

/// Bytecode digests of a variant and (when present) its second stage.
std::pair<uint64_t, uint64_t>
bytecodeHashes(const synth::SynthesizedVariant &V) {
  return {ir::stableHash(V.Compiled),
          V.SecondStage ? ir::stableHash(V.SecondStage->Compiled) : 0};
}

} // namespace

TEST(PersistentCache, CrossProcessPackReuseMatrix) {
  const ReduceOp Ops[] = {ReduceOp::Add, ReduceOp::ArgMax};
  const ir::ScalarType Elems[] = {ir::ScalarType::F32, ir::ScalarType::I64};
  const engine::Backend Backends[] = {engine::Backend::Simulator,
                                      engine::Backend::NativeCpu};
  const size_t N = 1024 + 39;

  for (ReduceOp Op : Ops)
    for (ir::ScalarType Elem : Elems)
      for (engine::Backend B : Backends) {
        SCOPED_TRACE(std::string(getReduceOpName(Op)) + "/" +
                     ir::getScalarTypeName(Elem) + "/" +
                     engine::getBackendName(B));
        TempDir Dir("matrix");
        const std::string PackPath = Dir.file("matrix.tgrp");

        // "Process" A: compile, run, and export the variant.
        uint64_t HashA, SecondA;
        engine::ReduceResult ResA;
        VariantDescriptor D;
        {
          auto TR = makeFacade(Op, Elem);
          engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
          D = pickDescriptor(*TR, E, B);
          auto V = E.getVariant(D, {}, B);
          ASSERT_TRUE(V.ok()) << V.status().toString();
          std::tie(HashA, SecondA) = bytecodeHashes(**V);
          ResA = runOnce(E, D, Elem, B, N);
          EXPECT_GE(E.getCacheStats().VariantsCompiled, 1u);
          writePack(E, {D}, B, PackPath);
        }

        // "Process" B: a fresh facade importing the pack must serve the
        // same key without compiling anything.
        auto TR = makeFacade(Op, Elem, {PackPath});
        engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
        EXPECT_TRUE(E.getStartupWarnings().empty());
        auto V = E.getVariant(D, {}, B);
        ASSERT_TRUE(V.ok()) << V.status().toString();
        EXPECT_EQ(E.getCacheStats().VariantsCompiled, 0u);

        // Bit-identical reconstruction: same bytecode, second stage
        // included, and identical results on every value lane.
        auto [HashB, SecondB] = bytecodeHashes(**V);
        EXPECT_EQ(HashA, HashB);
        EXPECT_NE(SecondA, 0u);
        EXPECT_EQ(SecondA, SecondB);

        engine::ReduceResult ResB = runOnce(E, D, Elem, B, N);
        EXPECT_EQ(ResA.FloatValue, ResB.FloatValue);
        EXPECT_EQ(ResA.IntValue, ResB.IntValue);
        EXPECT_EQ(ResA.IndexValue, ResB.IndexValue);
        EXPECT_EQ(E.getCacheStats().VariantsCompiled, 0u);
      }
}

TEST(PersistentCache, DisassemblyRoundTripsExactly) {
  TempDir Dir("disasm");
  const std::string PackPath = Dir.file("disasm.tgrp");
  VariantDescriptor D;
  std::string TextA, SecondTextA;
  {
    auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32);
    engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
    D = pickDescriptor(*TR, E, engine::Backend::Simulator);
    auto V = E.getVariant(D);
    ASSERT_TRUE(V.ok()) << V.status().toString();
    ASSERT_TRUE((**V).SecondStage);
    TextA = (**V).Compiled.disassemble();
    SecondTextA = (**V).SecondStage->Compiled.disassemble();
    writePack(E, {D}, engine::Backend::Simulator, PackPath);
  }
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, {PackPath});
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  auto V = E.getVariant(D);
  ASSERT_TRUE(V.ok()) << V.status().toString();
  ASSERT_TRUE((**V).SecondStage);
  EXPECT_EQ(TextA, (**V).Compiled.disassemble());
  EXPECT_EQ(SecondTextA, (**V).SecondStage->Compiled.disassemble());
  EXPECT_EQ(E.getCacheStats().VariantsCompiled, 0u);
}

TEST(PersistentCache, CorruptionBitFlipRecompilesCleanly) {
  TempDir Dir("corrupt");
  const std::string PackPath = Dir.file("corrupt.tgrp");
  VariantDescriptor D;
  uint64_t HashA;
  {
    auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32);
    engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
    D = TR->getSearchSpace().Pruned.front();
    auto V = E.getVariant(D);
    ASSERT_TRUE(V.ok()) << V.status().toString();
    HashA = ir::stableHash((**V).Compiled);
    writePack(E, {D}, engine::Backend::Simulator, PackPath);
  }

  // Flip one byte in the middle of the pack (inside the entry's artifact).
  {
    std::fstream F(PackPath, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(F.good());
    const auto Size = fs::file_size(PackPath);
    ASSERT_GT(Size, 64u);
    F.seekg(static_cast<std::streamoff>(Size / 2));
    char Byte = 0;
    F.read(&Byte, 1);
    Byte ^= 0x40;
    F.seekp(static_cast<std::streamoff>(Size / 2));
    F.write(&Byte, 1);
  }

  // The damaged pack is one loud startup warning and a cold start: the
  // engine compiles the variant afresh, to the same bytecode.
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, {PackPath});
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  ASSERT_EQ(E.getStartupWarnings().size(), 1u);
  EXPECT_EQ(E.getStartupWarnings().front().Code,
            support::StatusCode::InvalidArgument);
  EXPECT_EQ(E.getCacheStats().Entries, 0u);
  auto V = E.getVariant(D);
  ASSERT_TRUE(V.ok()) << V.status().toString();
  EXPECT_EQ(ir::stableHash((**V).Compiled), HashA);
  EXPECT_EQ(E.getCacheStats().VariantsCompiled, 1u);
}

TEST(PersistentCache, KeyMismatchIsHardFailure) {
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32);
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  ASSERT_GE(TR->getSearchSpace().Pruned.size(), 2u);
  VariantDescriptor D1 = TR->getSearchSpace().Pruned[0];
  VariantDescriptor D2 = TR->getSearchSpace().Pruned[1];
  auto E1 = E.exportTunedVariant(D1, engine::Backend::Simulator, 0);
  auto E2 = E.exportTunedVariant(D2, engine::Backend::Simulator, 0);
  ASSERT_TRUE(E1.ok() && E2.ok());

  // A valid entry first, then one filed under D2's key that carries D1's
  // (structurally valid) artifact: the embedded key echo contradicts the
  // key the entry names. The pack also ships a quarantine verdict.
  engine::TunedPack Pack;
  Pack.Entries.push_back(*E1);
  Pack.Entries.push_back(*E2);
  Pack.Entries.back().Artifact = E1->Artifact;
  Pack.Quarantined.push_back(
      {sim::getPascalP100().Gen, ReduceOp::Add, ir::ScalarType::F32, D2,
       support::Status(support::StatusCode::DeadlineExceeded, "slow")});

  // Integrity failures are a hard error, never downgraded to a recompile,
  // and the rejected pack leaves the cache and the quarantine untouched.
  auto TR2 = makeFacade(ReduceOp::Add, ir::ScalarType::F32);
  engine::ExecutionEngine &Fresh = TR2->engineFor(sim::getPascalP100());
  const size_t EntriesBefore = Fresh.getCacheStats().Entries;
  auto Imported = Fresh.importTunedPack(Pack);
  ASSERT_FALSE(Imported.ok());
  EXPECT_EQ(Imported.code(), support::StatusCode::InternalError);
  EXPECT_EQ(Fresh.getCacheStats().Entries, EntriesBefore);
  EXPECT_EQ(Fresh.getCacheStats().VariantsCompiled, 0u);
  EXPECT_FALSE(Fresh.isQuarantined(D2));

  // The valid entry alone imports cleanly.
  Pack.Entries.pop_back();
  auto Again = Fresh.importTunedPack(Pack);
  ASSERT_TRUE(Again.ok()) << Again.status().toString();
  EXPECT_EQ(*Again, 1u);
  EXPECT_EQ(Fresh.getCacheStats().Entries, EntriesBefore + 1);
  EXPECT_TRUE(Fresh.isQuarantined(D2));
}

TEST(PersistentCache, PackRoundTripWarmStartsWithoutCompiling) {
  TempDir Dir("pack");
  const std::string PackPath = Dir.file("winner.tgrp");
  const size_t N = 2048 + 11;

  VariantDescriptor D, Quarantined;
  uint64_t HashA;
  engine::ReduceResult ResA;
  {
    auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32);
    engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
    D = TR->getSearchSpace().Pruned.front();
    Quarantined = TR->getSearchSpace().Pruned.back();
    auto V = E.getVariant(D);
    ASSERT_TRUE(V.ok()) << V.status().toString();
    HashA = ir::stableHash((**V).Compiled);
    ResA = runOnce(E, D, ir::ScalarType::F32, engine::Backend::Simulator, N);

    auto Entry =
        E.exportTunedVariant(D, engine::Backend::Simulator, 1.25e-4);
    ASSERT_TRUE(Entry.ok()) << Entry.status().toString();
    engine::TunedPack Pack;
    Pack.Entries.push_back(std::move(*Entry));
    Pack.Quarantined.push_back(
        {sim::getPascalP100().Gen, ReduceOp::Add, ir::ScalarType::F32,
         Quarantined,
         support::Status(support::StatusCode::DeadlineExceeded,
                         "timed out on tuning sweep")});
    support::Status S = engine::writeTunedPack(PackPath, Pack);
    ASSERT_TRUE(S.ok()) << S.toString();
  }

  // Warm start from the pack: the variant is served from memory,
  // bit-identical, with zero compiles; the pack's quarantine verdict is
  // pre-applied.
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, {PackPath});
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  EXPECT_TRUE(E.getStartupWarnings().empty());
  EXPECT_TRUE(E.isQuarantined(Quarantined));
  EXPECT_FALSE(E.isQuarantined(D));

  auto V = E.getVariant(D);
  ASSERT_TRUE(V.ok()) << V.status().toString();
  EXPECT_EQ(ir::stableHash((**V).Compiled), HashA);

  engine::ReduceResult ResB =
      runOnce(E, D, ir::ScalarType::F32, engine::Backend::Simulator, N);
  EXPECT_EQ(ResA.FloatValue, ResB.FloatValue);
  EXPECT_EQ(ResA.Seconds, ResB.Seconds);

  engine::CacheStats S = E.getCacheStats();
  EXPECT_EQ(S.VariantsCompiled, 0u);
  // Two hits: the explicit getVariant and the job's internal resolve.
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.Misses, 0u);
}

TEST(PersistentCache, UnreadablePackIsALoudStartupWarning) {
  TempDir Dir("badpack");
  const std::string PackPath = Dir.file("bad.tgrp");
  {
    std::ofstream F(PackPath, std::ios::binary);
    F << "this is not a tuned pack";
  }
  auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32, {PackPath});
  engine::ExecutionEngine &E = TR->engineFor(sim::getPascalP100());
  ASSERT_EQ(E.getStartupWarnings().size(), 1u);
  EXPECT_EQ(E.getStartupWarnings().front().Code,
            support::StatusCode::InvalidArgument);
  // The engine still works cold.
  ASSERT_TRUE(E.getVariant(TR->getSearchSpace().Pruned.front()).ok());
  EXPECT_EQ(E.getCacheStats().VariantsCompiled, 1u);
}

// A quarantine verdict names a configuration of one (op, dtype): the same
// descriptor lowers to different code for another. An Add f32 pack that
// quarantines the serving lanes' batch configuration on Pascal poisons
// Add f32 engines and lanes, and leaves ArgMax i64 ones untouched.
TEST(PersistentCache, PackQuarantineAppliesOnlyToItsOwnOpAndDtype) {
  TempDir Dir("scope");
  const std::string PackPath = Dir.file("add_f32.tgrp");
  const sim::ArchDesc &Pascal = sim::getPascalP100();

  VariantDescriptor Batch;
  {
    serve::ServiceOptions SO;
    SO.StartWorkers = false;
    serve::ReductionService Svc(SO);
    const VariantDescriptor *D = Svc.laneBatchDescriptor(
        Pascal.Gen, ReduceOp::Add, ir::ScalarType::F32);
    ASSERT_NE(D, nullptr);
    Batch = *D;
  }
  {
    auto TR = makeFacade(ReduceOp::Add, ir::ScalarType::F32);
    auto Entry = TR->engineFor(Pascal).exportTunedVariant(
        TR->getSearchSpace().Pruned.front(), engine::Backend::Simulator, 0);
    ASSERT_TRUE(Entry.ok()) << Entry.status().toString();
    engine::TunedPack Pack;
    Pack.Entries.push_back(std::move(*Entry));
    Pack.Quarantined.push_back(
        {Pascal.Gen, ReduceOp::Add, ir::ScalarType::F32, Batch,
         support::Status(support::StatusCode::WrongResult,
                         "wrong reduction while tuning add/f32")});
    support::Status S = engine::writeTunedPack(PackPath, Pack);
    ASSERT_TRUE(S.ok()) << S.toString();
  }

  // Facades: the verdict lands on Add f32 only.
  auto ArgMax = makeFacade(ReduceOp::ArgMax, ir::ScalarType::I64, {PackPath});
  engine::ExecutionEngine &AE = ArgMax->engineFor(Pascal);
  EXPECT_TRUE(AE.getStartupWarnings().empty());
  EXPECT_FALSE(AE.isQuarantined(Batch));
  auto Add = makeFacade(ReduceOp::Add, ir::ScalarType::F32, {PackPath});
  EXPECT_TRUE(Add->engineFor(Pascal).isQuarantined(Batch));

  // Service lanes: the same scoping.
  serve::ServiceOptions SO;
  SO.StartWorkers = false;
  SO.ImportPacks = {PackPath};
  serve::ReductionService Svc(SO);
  engine::ExecutionEngine *ArgMaxLane =
      Svc.laneEngine(Pascal.Gen, ReduceOp::ArgMax, ir::ScalarType::I64);
  engine::ExecutionEngine *AddLane =
      Svc.laneEngine(Pascal.Gen, ReduceOp::Add, ir::ScalarType::F32);
  ASSERT_NE(ArgMaxLane, nullptr);
  ASSERT_NE(AddLane, nullptr);
  EXPECT_FALSE(ArgMaxLane->isQuarantined(Batch));
  EXPECT_TRUE(AddLane->isQuarantined(Batch));
  EXPECT_TRUE(Svc.getHealth().Shards.front().Warnings.empty());
}
