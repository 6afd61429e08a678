//===- KernelSynthesizer.cpp - Variant lowering to kernel IR ---------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The synthesizer proper is now a thin driver: it assembles the lowering
/// pass pipeline (LoweringPasses.cpp) for one descriptor, wires in the
/// shared instrumentation plus the IR verifier / CUDA printer adaptors,
/// runs it, and books the per-stage compile timings into the variant.
///
//===----------------------------------------------------------------------===//

#include "synth/KernelSynthesizer.h"

#include "codegen/CudaEmitter.h"
#include "ir/Verifier.h"
#include "pm/PassManager.h"
#include "reduce/OpDef.h"
#include "synth/LoweringPasses.h"

#include <cstdlib>
#include <string_view>

using namespace tangram;
using namespace tangram::synth;

namespace {

/// The CI hook: TGR_VERIFY_EACH=1 forces per-pass verification on for
/// every pipeline in the process (the tier1-verify-each preset), without
/// any tool plumbing.
bool verifyEachForced() {
  const char *Env = std::getenv("TGR_VERIFY_EACH");
  return Env && *Env && std::string_view(Env) != "0";
}

/// Folds \p Stage into \p Stages, aggregating by pass name (used to merge
/// a second-stage kernel's compile account into its parent variant).
void mergeStage(std::vector<pm::PassTiming> &Stages,
                const pm::PassTiming &Stage) {
  for (pm::PassTiming &T : Stages)
    if (T.Name == Stage.Name) {
      T.Invocations += Stage.Invocations;
      T.Seconds += Stage.Seconds;
      return;
    }
  Stages.push_back(Stage);
}

} // namespace

//===----------------------------------------------------------------------===//
// KernelSynthesizer
//===----------------------------------------------------------------------===//

KernelSynthesizer::KernelSynthesizer(
    const lang::TranslationUnit &TU,
    const std::map<const lang::CodeletDecl *,
                   transforms::CodeletTransformInfo> &Infos,
    ReduceOp Op, ir::ScalarType Elem)
    : TU(TU), Infos(Infos), Op(Op), Elem(Elem) {}

support::Expected<std::unique_ptr<SynthesizedVariant>>
KernelSynthesizer::synthesize(const VariantDescriptor &Desc,
                              const OptimizationFlags &Opts,
                              std::optional<sim::ArchGeneration> Target) const {
  return synthesizeImpl(Desc, Opts, Target, /*InputIsPairs=*/false);
}

support::Expected<std::unique_ptr<SynthesizedVariant>>
KernelSynthesizer::synthesizeImpl(const VariantDescriptor &Desc,
                                  const OptimizationFlags &Opts,
                                  std::optional<sim::ArchGeneration> Target,
                                  bool InputIsPairs) const {
  auto Result = std::make_unique<SynthesizedVariant>();
  Result->Desc = Desc;
  Result->Op = Op;
  Result->Elem = Elem;
  Result->M = std::make_unique<ir::Module>();

  LoweringContext Ctx;
  Ctx.TU = &TU;
  Ctx.Infos = &Infos;
  Ctx.Desc = Desc;
  Ctx.Flags = Opts;
  Ctx.Op = Op;
  Ctx.Elem = Elem;
  Ctx.Target = Target;
  Ctx.InputIsPairs = InputIsPairs;
  Ctx.Result = Result.get();

  pm::PassManager<LoweringContext> PM;
  buildLoweringPipeline(PM, Desc, Opts);
  PM.setInstrumentation(PI);
  PM.setForceVerifyEach(verifyEachForced());
  PM.setVerifier([](const LoweringContext &C) {
    std::vector<std::string> Errors;
    if (C.K) {
      ir::verifyKernel(*C.K, Errors);
      // Op x type x arch atomic legality, from the same OpDef lattice the
      // atomic-expand pass plans from: Illegal combinations are always
      // errors; Native-where-CAS only after expansion ran (earlier stages
      // legitimately carry the default Impl).
      if (C.Target)
        reduce::verifyAtomicLegality(*C.K, C.Elem, *C.Target,
                                     C.AtomicsExpanded, Errors);
    }
    return Errors;
  });
  PM.setPrinter([](const LoweringContext &C) {
    return C.K ? codegen::emitCuda(*C.K) : std::string("(no kernel)\n");
  });

  support::Status S = PM.run(Ctx);
  for (const auto &Stage : PM.getStageTimes()) {
    Result->CompileSeconds += Stage.Seconds;
    mergeStage(Result->CompileStages, {Stage.Name, 1, Stage.Seconds});
  }
  if (!S.ok())
    return S;

  // Second-kernel variants (Listing 1): the per-block partial sums are
  // consumed by another spectrum call — a cooperative tree kernel with an
  // atomic grid combine, launched repeatedly until one value remains.
  if (Desc.usesSecondKernel()) {
    VariantDescriptor Stage;
    Stage.GridDist = DistPattern::Tiled;
    Stage.GridScheme = GridCombine::GlobalAtomic;
    Stage.BlockDistributes = false;
    Stage.Coop = CoopKind::Tree;
    Stage.BlockSize = 256;
    // Arg-reductions carry (value, index) pairs in the partials buffer, so
    // the second stage must combine them as pairs rather than re-attach
    // positional indices of the partial buffer itself.
    auto StageResult =
        synthesizeImpl(Stage, Opts, Target, /*InputIsPairs=*/isArgReduce(Op));
    if (!StageResult)
      return StageResult.status();
    Result->SecondStage = std::move(*StageResult);
    Result->CompileSeconds += Result->SecondStage->CompileSeconds;
    for (const pm::PassTiming &T : Result->SecondStage->CompileStages)
      mergeStage(Result->CompileStages, T);
  }
  return Result;
}
