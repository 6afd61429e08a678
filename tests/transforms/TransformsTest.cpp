//===- TransformsTest.cpp - AST transformation pass tests -------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Exercises the paper's three AST passes on the canonical reduction
// source: the global-atomic Map pass (Section III-A), the shared-atomic
// qualifier pass (Section III-B), and the Fig. 4 warp-shuffle detector
// (Section III-C).
//
//===----------------------------------------------------------------------===//

#include "transforms/Pipeline.h"

#include "lang/Parser.h"
#include "sema/Sema.h"
#include "support/Diagnostics.h"
#include "support/SourceManager.h"
#include "synth/ReductionSpectrum.h"

#include <gtest/gtest.h>

using namespace tangram;
using namespace tangram::lang;
using namespace tangram::transforms;

namespace {

struct Fixture {
  std::unique_ptr<SourceManager> SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<ASTContext> Ctx;
  TranslationUnit TU;

  explicit Fixture(const std::string &Text) {
    SM = std::make_unique<SourceManager>("test.tgr", Text);
    Diags = std::make_unique<DiagnosticEngine>(*SM);
    Ctx = std::make_unique<ASTContext>();
    Parser P(*SM, *Ctx, *Diags);
    TU = P.parseTranslationUnit();
    EXPECT_FALSE(Diags->hasErrors()) << Diags->renderAll();
    sema::Sema S(*Ctx, *Diags);
    EXPECT_TRUE(S.analyze(TU)) << Diags->renderAll();
  }
};

Fixture &canonical() {
  static Fixture F(synth::getReductionSource());
  return F;
}

//===----------------------------------------------------------------------===//
// Section III-A: global-atomic Map pass
//===----------------------------------------------------------------------===//

TEST(GlobalAtomicMapPass, DetectsAtomicApiAndSpectrumCall) {
  Fixture &F = canonical();
  CodeletDecl *C = F.TU.findByTag("dist_tile");
  auto Info = analyzeGlobalAtomicMap(C);
  ASSERT_TRUE(Info.has_value());
  EXPECT_EQ(Info->Op, ReduceOp::Add);
  ASSERT_NE(Info->MapVar, nullptr);
  EXPECT_EQ(Info->MapVar->getName(), "map");
  ASSERT_NE(Info->SpectrumCall, nullptr);
  EXPECT_TRUE(Info->SameComputation);
}

TEST(GlobalAtomicMapPass, NoAtomicApiMeansNoInfo) {
  Fixture &F = canonical();
  EXPECT_FALSE(analyzeGlobalAtomicMap(F.TU.findByTag("serial")).has_value());
  EXPECT_FALSE(
      analyzeGlobalAtomicMap(F.TU.findByTag("coop_tree")).has_value());
}

TEST(GlobalAtomicMapPass, DifferentComputationKeepsSpectrumCall) {
  // The spectrum call applies a different spectrum than the atomic API's
  // computation: the analysis must not report them as the same.
  Fixture F("__codelet int other(const Array<1,int> in) { return 0; }\n"
            "__codelet int sum(const Array<1,int> in) {\n"
            "  __tunable unsigned p;\n"
            "  Sequence s(tiled);\n"
            "  Map map(sum, partition(in, p, s, s, s));\n"
            "  map.atomicAdd();\n"
            "  return other(map);\n"
            "}");
  CodeletDecl *C = F.TU.getSpectrum("sum").front();
  auto Info = analyzeGlobalAtomicMap(C);
  ASSERT_TRUE(Info.has_value());
  EXPECT_FALSE(Info->SameComputation);
}

TEST(GlobalAtomicMapPass, AllFourOperatorsSupported) {
  const char *Api[4] = {"atomicAdd", "atomicSub", "atomicMax", "atomicMin"};
  ReduceOp Ops[4] = {ReduceOp::Add, ReduceOp::Sub, ReduceOp::Max,
                     ReduceOp::Min};
  for (int I = 0; I != 4; ++I) {
    Fixture F("__codelet int sum(const Array<1,int> in) {\n"
              "  __tunable unsigned p;\n"
              "  Sequence s(tiled);\n"
              "  Map map(sum, partition(in, p, s, s, s));\n"
              "  map." +
              std::string(Api[I]) +
              "();\n"
              "  return sum(map);\n"
              "}");
    auto Info = analyzeGlobalAtomicMap(F.TU.Codelets[0]);
    ASSERT_TRUE(Info.has_value());
    EXPECT_EQ(Info->Op, Ops[I]);
  }
}

//===----------------------------------------------------------------------===//
// Section III-B: shared-atomic qualifier pass
//===----------------------------------------------------------------------===//

TEST(SharedAtomicAnalysis, FindsWritesInSharedV1) {
  Fixture &F = canonical();
  SharedAtomicInfo Info =
      analyzeSharedAtomics(F.TU.findByTag("shared_V1"));
  ASSERT_EQ(Info.AtomicVars.size(), 1u);
  EXPECT_EQ(Info.AtomicVars[0]->getName(), "tmp");
  ASSERT_EQ(Info.Writes.size(), 1u);
  EXPECT_EQ(Info.Writes[0].Op, ReduceOp::Add);
  EXPECT_EQ(Info.Writes[0].Var->getName(), "tmp");
}

TEST(SharedAtomicAnalysis, FindsWritesInSharedV2) {
  Fixture &F = canonical();
  SharedAtomicInfo Info =
      analyzeSharedAtomics(F.TU.findByTag("shared_V2"));
  ASSERT_EQ(Info.AtomicVars.size(), 1u);
  EXPECT_EQ(Info.AtomicVars[0]->getName(), "partial");
  // Exactly one write becomes an atomic: `partial = val` under LaneId()==0.
  // The read `val = partial` is not a write.
  ASSERT_EQ(Info.Writes.size(), 1u);
  EXPECT_TRUE(Info.isAtomicWrite(Info.Writes[0].Write));
}

TEST(SharedAtomicAnalysis, TreeCodeletHasNone) {
  Fixture &F = canonical();
  SharedAtomicInfo Info = analyzeSharedAtomics(F.TU.findByTag("coop_tree"));
  EXPECT_TRUE(Info.AtomicVars.empty());
  EXPECT_FALSE(Info.any());
}

TEST(SharedAtomicAnalysis, MaxQualifierCarriesOperator) {
  Fixture F("__codelet __coop int m(const Array<1,int> in) {\n"
            "  Vector vthread();\n"
            "  __shared _atomicMax int best;\n"
            "  int v = in[vthread.ThreadId()];\n"
            "  best = v;\n"
            "  return best;\n"
            "}");
  SharedAtomicInfo Info = analyzeSharedAtomics(F.TU.Codelets[0]);
  ASSERT_EQ(Info.Writes.size(), 1u);
  EXPECT_EQ(Info.Writes[0].Op, ReduceOp::Max);
}

//===----------------------------------------------------------------------===//
// Section III-C: warp-shuffle detection (Fig. 4)
//===----------------------------------------------------------------------===//

TEST(WarpShuffleDetect, MatchesBothTreeLoopsOfFig1c) {
  Fixture &F = canonical();
  auto Opps = detectWarpShuffle(F.TU.findByTag("coop_tree"));
  ASSERT_EQ(Opps.size(), 2u);
  // First loop reduces over `tmp`, second over `partial`.
  EXPECT_EQ(Opps[0].Array->getName(), "tmp");
  EXPECT_EQ(Opps[1].Array->getName(), "partial");
  EXPECT_EQ(Opps[0].Direction, ir::ShuffleMode::Down);
  EXPECT_EQ(Opps[1].Direction, ir::ShuffleMode::Down);
  EXPECT_EQ(Opps[0].Accumulator->getName(), "val");
}

TEST(WarpShuffleDetect, ArrayElisionFollowsProducerConsumer) {
  // `tmp` holds data straight from the input: elidable. `partial` is fed
  // by the first loop's accumulator: must stay (Listing 4).
  Fixture &F = canonical();
  auto Opps = detectWarpShuffle(F.TU.findByTag("coop_tree"));
  ASSERT_EQ(Opps.size(), 2u);
  EXPECT_TRUE(Opps[0].ElideArray);
  EXPECT_FALSE(Opps[1].ElideArray);
}

TEST(WarpShuffleDetect, SharedV2LoopMatches) {
  Fixture &F = canonical();
  auto Opps = detectWarpShuffle(F.TU.findByTag("shared_V2"));
  ASSERT_EQ(Opps.size(), 1u);
  EXPECT_EQ(Opps[0].Array->getName(), "tmp");
  EXPECT_TRUE(Opps[0].ElideArray);
}

TEST(WarpShuffleDetect, SerialCodeletHasNoMatches) {
  Fixture &F = canonical();
  EXPECT_TRUE(detectWarpShuffle(F.TU.findByTag("serial")).empty());
  EXPECT_TRUE(detectWarpShuffle(F.TU.findByTag("shared_V1")).empty());
}

TEST(WarpShuffleDetect, Step1RequiresVectorBounds) {
  // Same loop shape but constant bounds: step (1) must reject it.
  Fixture F("__codelet __coop int f(const Array<1,int> in) {\n"
            "  Vector vthread();\n"
            "  __shared int tmp[in.Size()];\n"
            "  int val = in[vthread.ThreadId()];\n"
            "  tmp[vthread.ThreadId()] = val;\n"
            "  for (int offset = 16; offset > 0; offset /= 2) {\n"
            "    val += tmp[vthread.ThreadId() + offset];\n"
            "    tmp[vthread.ThreadId()] = val;\n"
            "  }\n"
            "  return val;\n"
            "}");
  EXPECT_TRUE(detectWarpShuffle(F.TU.Codelets[0]).empty());
}

TEST(WarpShuffleDetect, Step2RejectsNonConstantUpdate) {
  Fixture F("__codelet __coop int f(const Array<1,int> in) {\n"
            "  Vector vthread();\n"
            "  __shared int tmp[in.Size()];\n"
            "  int val = in[vthread.ThreadId()];\n"
            "  int step = 2;\n"
            "  tmp[vthread.ThreadId()] = val;\n"
            "  for (int offset = vthread.MaxSize() / 2; offset > 0; "
            "offset /= step) {\n"
            "    val += tmp[vthread.ThreadId() + offset];\n"
            "    tmp[vthread.ThreadId()] = val;\n"
            "  }\n"
            "  return val;\n"
            "}");
  EXPECT_TRUE(detectWarpShuffle(F.TU.Codelets[0]).empty());
}

TEST(WarpShuffleDetect, Step4RequiresIteratorInReadIndex) {
  Fixture F("__codelet __coop int f(const Array<1,int> in) {\n"
            "  Vector vthread();\n"
            "  __shared int tmp[in.Size()];\n"
            "  int val = in[vthread.ThreadId()];\n"
            "  tmp[vthread.ThreadId()] = val;\n"
            "  for (int offset = vthread.MaxSize() / 2; offset > 0; "
            "offset /= 2) {\n"
            "    val += tmp[vthread.ThreadId()];\n" // No iterator use.
            "    tmp[vthread.ThreadId()] = val;\n"
            "  }\n"
            "  return val;\n"
            "}");
  EXPECT_TRUE(detectWarpShuffle(F.TU.Codelets[0]).empty());
}

TEST(WarpShuffleDetect, Step7RejectsIteratorInWriteIndex) {
  Fixture F("__codelet __coop int f(const Array<1,int> in) {\n"
            "  Vector vthread();\n"
            "  __shared int tmp[in.Size()];\n"
            "  int val = in[vthread.ThreadId()];\n"
            "  tmp[vthread.ThreadId()] = val;\n"
            "  for (int offset = vthread.MaxSize() / 2; offset > 0; "
            "offset /= 2) {\n"
            "    val += tmp[vthread.ThreadId() + offset];\n"
            "    tmp[vthread.ThreadId() + offset] = val;\n"
            "  }\n"
            "  return val;\n"
            "}");
  EXPECT_TRUE(detectWarpShuffle(F.TU.Codelets[0]).empty());
}

TEST(WarpShuffleDetect, IncreasingIteratorSelectsShflUp) {
  Fixture F("__codelet __coop int f(const Array<1,int> in) {\n"
            "  Vector vthread();\n"
            "  __shared int tmp[in.Size()];\n"
            "  int val = in[vthread.ThreadId()];\n"
            "  tmp[vthread.ThreadId()] = val;\n"
            "  for (int offset = vthread.MaxSize() / 32; offset < 32; "
            "offset *= 2) {\n"
            "    val += tmp[vthread.ThreadId() + offset];\n"
            "    tmp[vthread.ThreadId()] = val;\n"
            "  }\n"
            "  return val;\n"
            "}");
  auto Opps = detectWarpShuffle(F.TU.Codelets[0]);
  ASSERT_EQ(Opps.size(), 1u);
  EXPECT_EQ(Opps[0].Direction, ir::ShuffleMode::Up);
}

//===----------------------------------------------------------------------===//
// General transforms + pipeline
//===----------------------------------------------------------------------===//

TEST(GeneralTransforms, MapStructureOfCompoundCodelets) {
  Fixture &F = canonical();
  auto Tile = analyzeMapStructure(F.TU.findByTag("dist_tile"));
  ASSERT_TRUE(Tile.has_value());
  EXPECT_EQ(Tile->MappedSpectrum, "sum");
  EXPECT_EQ(Tile->Pattern, DistPattern::Tiled);
  ASSERT_NE(Tile->TunableCount, nullptr);
  EXPECT_EQ(Tile->TunableCount->getName(), "p");
  ASSERT_NE(Tile->Partition, nullptr);

  auto Stride = analyzeMapStructure(F.TU.findByTag("dist_stride"));
  ASSERT_TRUE(Stride.has_value());
  EXPECT_EQ(Stride->Pattern, DistPattern::Strided);

  EXPECT_FALSE(analyzeMapStructure(F.TU.findByTag("serial")).has_value());
}

TEST(GeneralTransforms, ArgumentLinkFindsInputArray) {
  Fixture &F = canonical();
  for (const char *Tag : {"serial", "coop_tree", "shared_V1", "shared_V2"}) {
    auto Info = analyzeArgumentLink(F.TU.findByTag(Tag));
    ASSERT_NE(Info.InputArray, nullptr) << Tag;
    EXPECT_EQ(Info.InputArray->getName(), "in");
  }
}

TEST(GeneralTransforms, ReturnPromotionFindsTailReturn) {
  Fixture &F = canonical();
  for (lang::CodeletDecl *C : F.TU.Codelets)
    EXPECT_NE(analyzeReturnPromotion(C).TailReturn, nullptr)
        << C->getTag();
}

TEST(Pipeline, AggregatesAllPassResults) {
  Fixture &F = canonical();
  auto Results = runTransformPipeline(F.TU);
  EXPECT_EQ(Results.size(), 6u);

  const auto &Tile = Results.at(F.TU.findByTag("dist_tile"));
  EXPECT_TRUE(Tile.GlobalAtomic.has_value());
  EXPECT_TRUE(Tile.MapStructure.has_value());
  EXPECT_EQ(Tile.variantAxisCount(), 1u);

  const auto &Tree = Results.at(F.TU.findByTag("coop_tree"));
  EXPECT_EQ(Tree.Shuffles.size(), 2u);
  EXPECT_FALSE(Tree.SharedAtomics.any());
  EXPECT_EQ(Tree.variantAxisCount(), 1u);

  const auto &V2 = Results.at(F.TU.findByTag("shared_V2"));
  EXPECT_TRUE(V2.SharedAtomics.any());
  EXPECT_EQ(V2.Shuffles.size(), 1u);

  const auto &Serial = Results.at(F.TU.findByTag("serial"));
  EXPECT_EQ(Serial.variantAxisCount(), 0u);
}

} // namespace
