//===- Tangram.cpp - Public library facade ----------------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "tangram/Tangram.h"

#include "codegen/CudaEmitter.h"
#include "lang/Parser.h"
#include "sema/Sema.h"
#include "transforms/Pipeline.h"

#include <algorithm>
#include <limits>

using namespace tangram;
using namespace tangram::synth;

using support::Expected;
using support::Status;
using support::StatusCode;

/// Maps a declared language element type onto the IR scalar type.
static ir::ScalarType scalarTypeFor(const lang::Type *Ty,
                                    ir::ScalarType Default) {
  if (!Ty)
    return Default;
  switch (Ty->getKind()) {
  case lang::Type::Kind::Int:
    return ir::ScalarType::I32;
  case lang::Type::Kind::Unsigned:
    return ir::ScalarType::U32;
  case lang::Type::Kind::Float:
    return ir::ScalarType::F32;
  case lang::Type::Kind::Long:
    return ir::ScalarType::I64;
  case lang::Type::Kind::Double:
    return ir::ScalarType::F64;
  default:
    return Default;
  }
}

Expected<std::unique_ptr<TangramReduction>>
TangramReduction::create(const Options &Opts) {
  auto TR = std::unique_ptr<TangramReduction>(new TangramReduction());
  TR->Opts = Opts;
  TR->SourceText = Opts.SourceOverride.empty()
                       ? getReductionSource(Opts.Elem, Opts.Op)
                       : Opts.SourceOverride;
  TR->SM = std::make_unique<SourceManager>("reduction.tgr", TR->SourceText);
  TR->Diags = std::make_unique<DiagnosticEngine>(*TR->SM);
  TR->Ctx = std::make_unique<lang::ASTContext>();

  lang::Parser P(*TR->SM, *TR->Ctx, *TR->Diags);
  TR->TU = P.parseTranslationUnit();
  if (TR->Diags->hasErrors())
    return Status(StatusCode::ParseError, TR->Diags->renderAll());
  sema::Sema S(*TR->Ctx, *TR->Diags);
  if (!S.analyze(TR->TU))
    return Status(StatusCode::SemaError, TR->Diags->renderAll());
  // A source-level `__reduce(op, type);` declaration is authoritative: an
  // overriding source carries its own reduction axis, and the canonical
  // source's declaration matches the options it was generated from.
  if (TR->TU.HasReduceDecl) {
    TR->Opts.Op = TR->TU.DeclaredOp;
    TR->Opts.Elem = scalarTypeFor(TR->TU.DeclaredElem, Opts.Elem);
  }
  TR->PI = std::make_unique<pm::PassInstrumentation>(Opts.PM);
  TR->Infos = transforms::runTransformPipeline(TR->TU, TR->PI.get());
  TR->Synth =
      std::make_unique<KernelSynthesizer>(TR->TU, TR->Infos, TR->Opts.Op,
                                          TR->Opts.Elem);
  TR->Synth->setInstrumentation(TR->PI.get());
  TR->Space = enumerateVariants();
  TR->Cache = Opts.Engine.Cache
                  ? Opts.Engine.Cache
                  : std::make_shared<engine::VariantCache>(
                        Opts.Engine.CacheCapacity);
  TR->Pool = Opts.Engine.Pool
                 ? Opts.Engine.Pool
                 : std::make_shared<support::ThreadPool>(
                       Opts.Engine.ThreadCount);
  return Expected<std::unique_ptr<TangramReduction>>(std::move(TR));
}

engine::ExecutionEngine &
TangramReduction::engineFor(const sim::ArchDesc &Arch) const {
  auto It = Engines.find(Arch.Gen);
  if (It == Engines.end()) {
    engine::EngineOptions EO = Opts.Engine;
    EO.Cache = Cache;
    EO.Pool = Pool;
    auto E = std::make_unique<engine::ExecutionEngine>(Arch, EO);
    E->attachCompiler(*Synth, SourceText);
    It = Engines.emplace(Arch.Gen, std::move(E)).first;
  }
  return *It->second;
}

Expected<std::unique_ptr<SynthesizedVariant>>
TangramReduction::synthesize(const VariantDescriptor &Desc,
                             const OptimizationFlags &Opts) const {
  return Synth->synthesize(Desc, Opts);
}

Expected<std::string>
TangramReduction::emitCudaFor(const VariantDescriptor &Desc) const {
  auto S = Synth->synthesize(Desc);
  if (!S)
    return S.status();
  codegen::CudaEmitOptions Options;
  Options.EmitHostWrapper = true;
  return codegen::emitCuda(*(*S)->K, Options);
}

Expected<engine::DiagnoseReport>
TangramReduction::diagnose(const sim::ArchDesc &Arch,
                           const engine::DiagnoseRequest &Req) const {
  return engineFor(Arch).diagnose(Req);
}

std::string TangramReduction::renderRace(const sim::RaceDiagnostic &D) const {
  std::string Body = D.render();
  // Prefer the newer access's source position; scaffolding instructions
  // carry no location, so fall back to the older one.
  SourceLoc Loc = D.Second.Loc.isValid() ? D.Second.Loc : D.First.Loc;
  if (!Loc.isValid() || Loc.getOffset() > SourceText.size())
    return Body;
  LineColumn LC = SM->getLineColumn(Loc);
  return std::string(SM->getBufferName()) + ":" + std::to_string(LC.Line) +
         ":" + std::to_string(LC.Column) + ": " + Body;
}

double TangramReduction::timeVariant(const VariantDescriptor &Desc,
                                     const sim::ArchDesc &Arch,
                                     size_t N) const {
  // Honor the facade's timing backend so tune/timeVariant report on the
  // same clock (modeled cycles vs native host wall).
  auto T = engineFor(Arch).timeVariantChecked(Desc, N,
                                              Opts.Tune.TimingBackend);
  return T ? *T : std::numeric_limits<double>::infinity();
}

VariantDescriptor TangramReduction::tune(const VariantDescriptor &Desc,
                                         const sim::ArchDesc &Arch,
                                         size_t N) const {
  auto Report = engineFor(Arch).tune(Desc, N, Opts.Tune);
  // Engine misuse aside, tune always yields a report; a winnerless sweep
  // keeps the caller's descriptor (its timing prices it out downstream,
  // exactly like the unhardened tuner did).
  if (!Report || !Report->hasWinner())
    return Desc;
  return Report->Best;
}

TangramReduction::BestResult
TangramReduction::findBest(const sim::ArchDesc &Arch, size_t N) const {
  BestResult Best;
  Best.Seconds = std::numeric_limits<double>::infinity();
  auto Report = findBestReport(Arch, N);
  if (!Report)
    return Best;
  Best.Desc = Report->Best;
  Best.Seconds = Report->BestSeconds;
  Best.Fig6Label = Report->Fig6Label;
  return Best;
}

Expected<engine::TuneReport>
TangramReduction::findBestReport(const sim::ArchDesc &Arch, size_t N) const {
  return engineFor(Arch).findBest(Space.Pruned, N, Opts.Tune);
}
