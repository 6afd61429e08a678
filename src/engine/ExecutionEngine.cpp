//===- ExecutionEngine.cpp - Shared variant execution layer ----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"

#include "native/NativeKernel.h"
#include "reduce/OpDef.h"
#include "support/StableHash.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

using namespace tangram;
using namespace tangram::engine;
using namespace tangram::sim;

using support::Expected;
using support::Status;
using support::StatusCode;

LaunchConfig tangram::engine::makeLaunchConfig(
    const synth::SynthesizedVariant &V, size_t N) {
  LaunchConfig Config;
  Config.BlockDim = V.Desc.BlockSize;
  size_t PerBlock = V.elementsPerBlock();
  Config.GridDim = static_cast<unsigned>(
      std::max<size_t>(1, (N + PerBlock - 1) / PerBlock));
  // Dynamic shared arrays size to the block (the lowered `in.Size()`).
  Config.DynSharedElems = Config.BlockDim;
  // Per-block watchdog: a legitimate lowering issues a small multiple of
  // its tile size in warp-instructions; give it two orders of magnitude of
  // headroom so budgets never clip a slow-but-correct variant, while a
  // livelocked lock loop still traps promptly.
  Config.MaxWarpInstructions =
      65536 + 128ull * PerBlock + 64ull * Config.BlockDim;
  return Config;
}

Expected<ReduceResult> tangram::engine::hostReduce(Device &Dev, BufferId In,
                                                   size_t N, ReduceOp Op,
                                                   ir::ScalarType Elem) {
  if (In >= Dev.mark())
    return Status(StatusCode::InvalidArgument,
                  "host reduce: invalid input buffer id");
  if (N > Dev.get(In).size())
    return Status(StatusCode::InvalidArgument,
                  "host reduce: N exceeds the input buffer length");
  const double Start = steadySeconds();
  reduce::HostAccumulator Acc(Op, Elem);
  const Buffer &B = Dev.get(In);
  for (size_t I = 0; I != N; ++I) {
    Cell C = B.read(I);
    Acc.accumulate(C.F, C.I, static_cast<long long>(I));
  }
  // As in a kernel's result cell, the element type's lane is authoritative
  // (an F32 result is a float) and the other lane mirrors it.
  ReduceResult Out;
  if (ir::isFloatType(Elem)) {
    Out.FloatValue = Elem == ir::ScalarType::F64
                         ? Acc.valueF()
                         : static_cast<float>(Acc.valueF());
    Out.IntValue = ir::saturatingIntOf(Out.FloatValue);
  } else {
    Out.IntValue = ir::wrapToType(Elem, Acc.valueI());
    Out.FloatValue = static_cast<double>(Out.IntValue);
  }
  Out.IndexValue = Acc.index();
  Out.Seconds = steadySeconds() - Start;
  Out.Used = Backend::NativeCpu;
  return Out;
}

ExecutionEngine::ExecutionEngine(const ArchDesc &Arch, EngineOptions Opts)
    : Arch(Arch),
      Pool(Opts.Pool ? std::move(Opts.Pool)
                     : std::make_shared<support::ThreadPool>(
                           Opts.ThreadCount)),
      Cache(Opts.Cache ? std::move(Opts.Cache)
                       : std::make_shared<VariantCache>(Opts.CacheCapacity)),
      Machine(Dev, this->Arch, Pool.get()), NativeM(Dev, Pool.get()),
      PendingPacks(std::move(Opts.ImportPacks)) {
  Machine.setFaultPlan(Opts.Fault);
}

void ExecutionEngine::attachCompiler(const synth::KernelSynthesizer &S,
                                     const std::string &SourceText) {
  Synth = &S;
  SourceHash = stableHashString(SourceText);
  // Warm start: pack entries go straight into the cache, so the first
  // request on an imported key never pays a compile flight. It waits for
  // the compiler because quarantine records apply per (op, elem), which
  // the synthesizer fixes. Problems degrade to a cold start, recorded for
  // the caller to surface.
  for (const std::string &Path : PendingPacks) {
    auto Imported = importTunedPackFile(Path);
    if (!Imported)
      StartupWarnings.push_back(Imported.status());
  }
  PendingPacks.clear();
}

namespace {

/// Winners are validated against a host reference over this many elements
/// before a sweep declares them best.
constexpr size_t ValidateN = 2048;
/// A DeadlineExceeded timing run gets one retry at budget x this factor,
/// to tell a genuinely slow configuration from a livelocked one.
constexpr unsigned RetryBudgetFactor = 8;

/// Lowers \p V (and its second stage, recursively) to native form in
/// place. Any stage failing plane inference fails the whole chain — mixed
/// simulator/native execution of one variant would defeat the point.
Status lowerVariantChain(synth::SynthesizedVariant &V) {
  auto NK = native::lowerToNative(V.Compiled);
  if (!NK)
    return NK.status();
  V.Native =
      std::make_shared<const native::NativeKernel>(std::move(*NK));
  if (V.SecondStage)
    return lowerVariantChain(*V.SecondStage);
  return Status::success();
}

/// Allocates the small-integer input the race, validation and fault
/// checks run over: element i holds i % 17 (float sums stay exact).
BufferId allocSmallInts(Device &Dev, ir::ScalarType Elem, size_t N) {
  BufferId In = Dev.alloc(Elem, N);
  Buffer &B = Dev.get(In);
  for (size_t I = 0; I != N; ++I)
    B.write(I, Cell{static_cast<long long>(I % 17),
                    static_cast<double>(I % 17), 0});
  return In;
}

} // namespace

Expected<VariantKey>
ExecutionEngine::keyFor(const synth::VariantDescriptor &Desc,
                        const synth::OptimizationFlags &Flags,
                        Backend B) const {
  if (!Synth)
    return Status(StatusCode::InvalidArgument,
                  "no compiler attached to the execution engine");
  VariantKey Key;
  Key.SourceHash = SourceHash;
  Key.DescHash = Desc.stableHash();
  Key.Gen = Arch.Gen;
  Key.Op = Synth->getOp();
  Key.Elem = Synth->getElem();
  Key.Flags = static_cast<unsigned char>((Flags.AggregateAtomics ? 1 : 0) |
                                         (Flags.UnrollLoops ? 2 : 0));
  Key.BackendKind = B;
  return Key;
}

Expected<std::shared_ptr<const synth::SynthesizedVariant>>
ExecutionEngine::getVariant(const synth::VariantDescriptor &Desc,
                            const synth::OptimizationFlags &Flags,
                            Backend B) {
  auto Key = keyFor(Desc, Flags, B);
  if (!Key)
    return Key.status();
  // Single-flight resolve: however many service workers race on this key,
  // exactly one synthesizes; the rest wait and share the artifact. The
  // compile callback runs without the cache lock, so distinct keys still
  // compile concurrently (synthesizer instrumentation is mutex-protected).
  return Cache->getOrCompile(
      *Key, [&]() -> Expected<VariantCache::VariantPtr> {
        // Synthesize for this engine's generation so the atomic-expand pass
        // plans CAS loops (and refuses illegal op x type x arch
        // combinations) against the architecture the kernel will actually
        // run on. Key.Gen keys the cache apart per generation, so per-arch
        // plans never collide.
        auto Fresh = Synth->synthesize(Desc, Flags, Arch.Gen);
        if (!Fresh)
          return Fresh.status();
        if (B == Backend::NativeCpu) {
          // Native resolution adds the register-plane lowering on top of
          // the compiled bytecode, timed as its own pipeline stage so
          // compile-time observability covers it like any pass.
          double T0 = steadySeconds();
          Status S = lowerVariantChain(**Fresh);
          double Seconds = steadySeconds() - T0;
          (*Fresh)->CompileSeconds += Seconds;
          (*Fresh)->CompileStages.push_back({"native-lower", 1, Seconds});
          if (pm::PassInstrumentation *PI = Synth->getInstrumentation())
            PI->recordPassTime("native-lower", Seconds);
          if (!S.ok())
            return S;
        }
        return VariantCache::VariantPtr(std::move(*Fresh));
      });
}

Expected<unsigned> ExecutionEngine::importTunedPack(const TunedPack &Pack) {
  if (!Synth)
    return Status(StatusCode::InvalidArgument,
                  "no compiler attached to the execution engine");
  auto Imported = importPackEntries(*Cache, Pack);
  if (!Imported)
    return Imported.status();
  // The engine-level half of an import: pre-apply the pack's quarantine
  // verdicts for this architecture and (op, elem), so known-bad
  // configurations are never rediscovered under live traffic.
  for (const PackQuarantine &Q : Pack.Quarantined)
    if (Q.Gen == Arch.Gen && Q.Op == Synth->getOp() &&
        Q.Elem == Synth->getElem() && !isQuarantined(Q.Desc))
      quarantineVariant(Q.Desc, Q.Why);
  return Imported;
}

Expected<unsigned>
ExecutionEngine::importTunedPackFile(const std::string &Path) {
  auto Pack = readTunedPack(Path);
  if (!Pack)
    return Pack.status();
  return importTunedPack(*Pack);
}

Expected<TunedPackEntry>
ExecutionEngine::exportTunedVariant(const synth::VariantDescriptor &Desc,
                                    Backend B, double TunedSeconds) {
  auto Key = keyFor(Desc, {}, B);
  if (!Key)
    return Key.status();
  auto V = getVariant(Desc, {}, B);
  if (!V)
    return V.status();
  auto Bytes = synth::serializeVariant(**V, toArtifactKey(*Key));
  if (!Bytes)
    return Bytes.status();
  TunedPackEntry E;
  E.Key = *Key;
  E.Desc = Desc;
  E.Fig6Label = Desc.getFigure6Label();
  E.TunedSeconds = TunedSeconds;
  E.Artifact = std::move(*Bytes);
  return E;
}

LaunchResult ExecutionEngine::launch(const ir::CompiledKernel &Kernel,
                                     const LaunchConfig &Config,
                                     const std::vector<ArgValue> &Args,
                                     ExecMode Mode) {
  return Machine.launch(Kernel, Config, Args, Mode);
}

Expected<BufferId> ExecutionEngine::runStage(const synth::SynthesizedVariant &V,
                                             BufferId In, size_t N,
                                             ExecMode Mode, Backend B,
                                             ReduceResult &Out) {
  Out.Used = B;
  if (B == Backend::NativeCpu) {
    if (!V.Native)
      return Status(StatusCode::InvalidArgument,
                    "variant was not resolved for the native backend "
                    "(getVariant with Backend::NativeCpu)");
    if (Mode == ExecMode::RaceCheck)
      return Status(StatusCode::InvalidArgument,
                    "race checking is a simulator instrument; the native "
                    "backend cannot run ExecMode::RaceCheck");
  }

  LaunchConfig Config = makeLaunchConfig(V, N);
  Config.MaxWarpInstructions *= BudgetEscalation;

  // Accumulator: one identity-initialized element for atomic grids, or a
  // per-block partials array for second-kernel variants (Listing 1).
  BufferId Acc =
      Dev.alloc(V.Elem, V.Desc.usesSecondKernel() ? Config.GridDim : 1);
  reduce::IdentityCell Id = reduce::getIdentity(V.Op, V.Elem);
  Dev.get(Acc).write(0, Cell{Id.I, Id.F, Id.Idx});

  std::vector<ArgValue> Args = {
      ArgValue::buffer(Acc), ArgValue::buffer(In),
      ArgValue::scalar(static_cast<long long>(N)),
      ArgValue::scalar(static_cast<long long>(V.elementsPerBlock()))};
  if (B == Backend::NativeCpu)
    Out.Launch = NativeM.launch(*V.Native, Config, Args);
  else
    Out.Launch = Machine.launch(V.Compiled, Config, Args, Mode);
  if (!Out.Launch.ok())
    return Status(Out.Launch.DeadlineExceeded ? StatusCode::DeadlineExceeded
                                              : StatusCode::LaunchError,
                  Out.Launch.Errors.front());

  if (B == Backend::NativeCpu) {
    // Host wall-clock, not modeled time: what this backend is for.
    Out.Seconds = Out.Launch.HostSeconds;
  } else {
    Out.Timing = modelKernelTime(Arch, Out.Launch);
    Out.Seconds = Out.Timing.TotalSeconds;
  }
  return Acc;
}

Expected<ReduceResult>
ExecutionEngine::runReduction(const synth::SynthesizedVariant &V, BufferId In,
                              size_t N, ExecMode Mode, Backend B) {
  // Scratch accumulators are dropped on every exit path, so repeated calls
  // never grow the device.
  Device::Scope Scratch(Dev);
  ReduceResult Out;
  auto Acc = runStage(V, In, N, Mode, B, Out);
  if (!Acc)
    return Acc.status();

  if (V.Desc.usesSecondKernel()) {
    // Reduce the per-block partials with the cooperative second stage
    // (recursively: very large grids need more than one extra pass).
    if (!V.SecondStage)
      return Status(StatusCode::InternalError,
                    "two-kernel variant without a second stage");
    auto Stage =
        runReduction(*V.SecondStage, *Acc, Out.Launch.GridDim, Mode, B);
    if (!Stage)
      return Stage.status();
    Out.Seconds += Stage->Seconds;
    Out.FloatValue = Stage->FloatValue;
    Out.IntValue = Stage->IntValue;
    Out.IndexValue = Stage->IndexValue;
    // Callers see one fault count per end-to-end run.
    Out.Launch.FaultsInjected += Stage->Launch.FaultsInjected;
    if (Mode == ExecMode::RaceCheck) {
      // Fold the second stage's race findings into the first-stage launch
      // record so callers see one report per end-to-end run.
      for (const sim::RaceDiagnostic &D : Stage->Launch.Races)
        Out.Launch.Races.push_back(D);
      Out.Launch.RaceConflicts += Stage->Launch.RaceConflicts;
      Out.Launch.RaceCheckTruncated |= Stage->Launch.RaceCheckTruncated;
    }
    return Out;
  }

  Out.FloatValue = Dev.readFloat(*Acc, 0);
  Out.IntValue = Dev.readInt(*Acc, 0);
  Out.IndexValue = Dev.readIndex(*Acc, 0);
  return Out;
}

Status ExecutionEngine::admit(const ReduceRequest &Req) const {
  // Routing facts: a multi-tenant front-end stamps what it *believes* this
  // request reduces; refuse quietly-wrong routing instead of computing a
  // wrong answer under the right types.
  if (Synth) {
    if (Req.Op && *Req.Op != Synth->getOp())
      return Status(StatusCode::InvalidArgument,
                    strformat("request routed to the wrong engine: asks for "
                              "op '%s', engine reduces '%s'",
                              reduce::getOpDef(*Req.Op).Name,
                              reduce::getOpDef(Synth->getOp()).Name));
    if (Req.Elem && *Req.Elem != Synth->getElem())
      return Status(StatusCode::InvalidArgument,
                    strformat("request routed to the wrong engine: asks for "
                              "type '%s', engine reduces '%s'",
                              reduce::getScalarTypeSpelling(*Req.Elem),
                              reduce::getScalarTypeSpelling(Synth->getElem())));
  }
  if (Req.Gen && *Req.Gen != Arch.Gen)
    return Status(StatusCode::InvalidArgument,
                  "request routed to the wrong engine shard: architecture "
                  "generation mismatch");
  return Status::success();
}

Expected<ReduceResult> ExecutionEngine::run(const ReduceRequest &Req) {
  if (Status S = admit(Req); !S.ok())
    return S;
  auto V = getVariant(Req.Desc, Req.Flags, Req.BackendKind);
  if (!V)
    return V.status();
  return runReduction(**V, Req.In, Req.N, Req.Mode, Req.BackendKind);
}

Expected<ReduceResult> ExecutionEngine::run(const ReduceRequest &Req,
                                            const synth::SynthesizedVariant &V) {
  if (Status S = admit(Req); !S.ok())
    return S;
  return runReduction(V, Req.In, Req.N, Req.Mode, Req.BackendKind);
}

Expected<DiagnoseReport> ExecutionEngine::diagnose(const DiagnoseRequest &Req) {
  DiagnoseReport Report;
  Report.Kind = Req.Kind;
  switch (Req.Kind) {
  case DiagnoseKind::Race: {
    auto R = raceCheck(Req.Desc, Req.N, Req.Flags);
    if (!R)
      return R.status();
    Report.Race = std::move(*R);
    return Report;
  }
  case DiagnoseKind::Fault: {
    auto F = faultCheck(Req.Desc, Req.N, Req.Plan, Req.Flags);
    if (!F)
      return F.status();
    Report.Fault = std::move(*F);
    return Report;
  }
  case DiagnoseKind::Validate:
    // Findings are data: a wrong result (or any trap along the way) lands
    // in the Validation arm, not in the Expected's Status.
    Report.Validation = validateVariant(Req.Desc, Req.N, Req.BackendKind);
    return Report;
  }
  return Status(StatusCode::InvalidArgument, "unknown diagnose kind");
}

Expected<RaceReport>
ExecutionEngine::raceCheck(const synth::VariantDescriptor &Desc, size_t N,
                           const synth::OptimizationFlags &Flags) {
  auto V = getVariant(Desc, Flags);
  if (!V)
    return V.status();

  // A real (written, non-virtual) input: RaceCheck runs the full grid
  // functionally, and virtual pattern buffers are read-only anyway.
  Device::Scope Scratch(Dev);
  BufferId In = allocSmallInts(Dev, (*V)->Elem, N);

  auto Run =
      runReduction(**V, In, N, ExecMode::RaceCheck, Backend::Simulator);
  if (!Run)
    return Run.status();

  RaceReport Report;
  Report.Diagnostics = Run->Launch.Races;
  Report.Conflicts = Run->Launch.RaceConflicts;
  Report.Truncated = Run->Launch.RaceCheckTruncated;
  Report.LaunchCount = (*V)->SecondStage ? 2 : 1;
  return Report;
}

double ExecutionEngine::timeVariant(const synth::VariantDescriptor &Desc,
                                    size_t N) {
  auto T = timeVariantChecked(Desc, N);
  return T ? *T : std::numeric_limits<double>::infinity();
}

Expected<double>
ExecutionEngine::timeVariantChecked(const synth::VariantDescriptor &Desc,
                                    size_t N, Backend B) {
  if (const QuarantineRecord *Q = findQuarantine(Desc))
    return Q->Why;
  auto V = getVariant(Desc, {}, B);
  if (!V) {
    // A variant outside the native backend's typed subset is priced out of
    // a native sweep like any other trap, with the lowering error on file.
    if (B == Backend::NativeCpu &&
        V.status().Code == StatusCode::SynthesisError)
      quarantineVariant(Desc, V.status());
    return V.status();
  }
  Device::Scope Scratch(Dev);
  VirtualPattern Pattern;
  BufferId In = Dev.allocVirtual((*V)->Elem, N, Pattern);
  // The simulator times its cycle model over sampled blocks; the native
  // backend runs the real grid and reports wall-clock.
  ExecMode Mode =
      B == Backend::NativeCpu ? ExecMode::Functional : ExecMode::Sampled;
  auto Out = runReduction(**V, In, N, Mode, B);
  if (!Out && Out.status().Code == StatusCode::DeadlineExceeded) {
    // One retry at an escalated budget: a genuinely slow configuration
    // finishes and survives; a livelocked one trips the watchdog again
    // and is quarantined below.
    BudgetEscalation = RetryBudgetFactor;
    Out = runReduction(**V, In, N, Mode, B);
    BudgetEscalation = 1;
  }
  if (Out && B == Backend::NativeCpu)
    // Steady-state wall-clock: the first run built the virtual input's
    // typed plane and warmed caches; the second run is what a
    // tuning/serving loop pays.
    Out = runReduction(**V, In, N, Mode, B);
  if (!Out) {
    quarantineVariant(Desc, Out.status());
    return Out.status();
  }
  return Out->Seconds;
}

Status ExecutionEngine::validateVariant(const synth::VariantDescriptor &Desc,
                                        size_t N, Backend B) {
  if (N == 0 || !Synth)
    return Status::success();
  // Sub is not associative: a tree schedule and a serial schedule disagree
  // legitimately, so there is no single reference value to validate
  // against.
  if (Synth->getOp() == ReduceOp::Sub)
    return Status::success();
  // Validation memos are per backend: a variant that passed on the
  // simulator has not yet proven its native lowering.
  uint64_t Memo =
      Desc.stableHash() ^ (B == Backend::NativeCpu ? 0x9e3779b97f4a7c15ull : 0);
  if (Validated.count(Memo))
    return Status::success();
  if (const QuarantineRecord *Q = findQuarantine(Desc))
    return Q->Why;
  auto V = getVariant(Desc, {}, B);
  if (!V) {
    quarantineVariant(Desc, V.status());
    return V.status();
  }

  // Materialized small-integer input: float32 sums of these values stay
  // exact (well under 2^24), so even the float comparison is exact in
  // practice and any mismatch is a real lost/corrupted update.
  Device::Scope Scratch(Dev);
  BufferId In = allocSmallInts(Dev, (*V)->Elem, N);
  ReduceOp Op = Synth->getOp();
  bool IsFloat = ir::isFloatType((*V)->Elem);
  reduce::HostAccumulator Ref(Op, (*V)->Elem);
  for (size_t I = 0; I != N; ++I)
    Ref.accumulate(static_cast<double>(I % 17),
                   static_cast<long long>(I % 17), static_cast<long long>(I));
  double RefF = Ref.valueF();
  long long RefI = Ref.valueI();
  long long RefIdx = Ref.index();

  auto Run = runReduction(**V, In, N, ExecMode::Functional, B);
  if (!Run) {
    quarantineVariant(Desc, Run.status());
    return Run.status();
  }

  if (B == Backend::NativeCpu) {
    // Cross-check against the simulator oracle on the same input: the two
    // backends must agree bit-for-bit for integer and arg-reductions (the
    // native lowering shares the interpreter's exact semantics helpers)
    // and to a tight ULP-scale tolerance for summing float ops.
    auto Oracle =
        runReduction(**V, In, N, ExecMode::Functional, Backend::Simulator);
    if (!Oracle) {
      quarantineVariant(Desc, Oracle.status());
      return Oracle.status();
    }
    bool Diverged;
    if (isArgReduce(Op)) {
      bool ValueDiverged = IsFloat
                               ? Run->FloatValue != Oracle->FloatValue
                               : Run->IntValue != Oracle->IntValue;
      Diverged = ValueDiverged || Run->IndexValue != Oracle->IndexValue;
    } else if (IsFloat) {
      double Tol = std::abs(Oracle->FloatValue) * 1e-6 + 1e-9;
      Diverged = !(std::abs(Run->FloatValue - Oracle->FloatValue) <= Tol);
    } else {
      Diverged = Run->IntValue != Oracle->IntValue;
    }
    if (Diverged) {
      Status S(StatusCode::WrongResult,
               strformat("native/simulator divergence: native "
                         "(%.17g/%lld, idx %lld) vs simulator "
                         "(%.17g/%lld, idx %lld) over %zu elements",
                         Run->FloatValue, Run->IntValue, Run->IndexValue,
                         Oracle->FloatValue, Oracle->IntValue,
                         Oracle->IndexValue, N));
      quarantineVariant(Desc, S);
      return S;
    }
  }

  // Arg-reductions select (never sum), so both lanes compare exactly; the
  // winning index must match too — a variant that finds the right maximum
  // at the wrong position is wrong. Summing float ops keep the historical
  // tolerance (the I%17 input makes even that comparison exact in
  // practice).
  bool Wrong;
  if (isArgReduce(Op)) {
    bool ValueWrong = IsFloat ? Run->FloatValue != RefF : Run->IntValue != RefI;
    Wrong = ValueWrong || Run->IndexValue != RefIdx;
  } else if (IsFloat) {
    double Tol = std::abs(RefF) * 1e-4 + 1e-6;
    // NaN-safe: a NaN result fails the <= and is flagged wrong.
    Wrong = !(std::abs(Run->FloatValue - RefF) <= Tol);
  } else {
    Wrong = Run->IntValue != RefI;
  }
  if (Wrong) {
    Status S(StatusCode::WrongResult,
             isArgReduce(Op)
                 ? strformat("wrong reduction: got (%.9g/%lld, idx %lld), "
                             "expected (%.9g/%lld, idx %lld) over %zu elements",
                             Run->FloatValue, Run->IntValue, Run->IndexValue,
                             RefF, RefI, RefIdx, N)
             : IsFloat ? strformat("wrong reduction: got %.9g, expected %.9g "
                                   "over %zu elements",
                                   Run->FloatValue, RefF, N)
                       : strformat("wrong reduction: got %lld, expected %lld "
                                   "over %zu elements",
                                   Run->IntValue, RefI, N));
    quarantineVariant(Desc, S);
    return S;
  }
  Validated.insert(Memo);
  return Status::success();
}

Expected<TuneReport>
ExecutionEngine::tune(const synth::VariantDescriptor &Desc, size_t N,
                      const TuneOptions &Opts) {
  if (!Synth)
    return Status(StatusCode::InvalidArgument,
                  "no compiler attached to the execution engine");
  TuneReport Report;
  Report.Best = Desc;
  Report.CandidatesTried = 1;
  Report.Op = Synth->getOp();
  Report.Elem = Synth->getElem();

  // Time every admissible configuration, keeping all survivors so a winner
  // that later fails validation can fall back to the next-fastest one.
  std::vector<std::pair<double, synth::VariantDescriptor>> Timed;
  for (unsigned Block : Opts.BlockSizes) {
    if (Block > Arch.MaxThreadsPerBlock)
      continue;
    std::vector<unsigned> Coarsens =
        Desc.BlockDistributes ? Opts.CoarsenFactors
                              : std::vector<unsigned>{1};
    for (unsigned C : Coarsens) {
      if (static_cast<size_t>(Block) * C > Opts.MaxElemsPerBlock)
        continue;
      // Skip grossly oversized tiles (a single block would cover the
      // whole input many times over).
      if (static_cast<size_t>(Block) * C > std::max<size_t>(N * 4, 64))
        continue;
      synth::VariantDescriptor Candidate = Desc;
      Candidate.BlockSize = Block;
      Candidate.Coarsen = C;
      ++Report.ConfigsTimed;
      auto T = timeVariantChecked(Candidate, N, Opts.TimingBackend);
      if (!T) {
        Report.Quarantined.push_back({Candidate, T.status()});
        continue;
      }
      Timed.emplace_back(*T, Candidate);
    }
  }
  // Stable: among equal times the first-enumerated configuration wins,
  // matching the historical strict-< sweep so clean-run winners are
  // bit-identical to the unhardened tuner.
  std::stable_sort(Timed.begin(), Timed.end(),
                   [](const auto &A, const auto &B) {
                     return A.first < B.first;
                   });

  for (const auto &[Seconds, Candidate] : Timed) {
    Status S = validateVariant(Candidate, ValidateN, Opts.TimingBackend);
    if (!S.ok()) {
      Report.Quarantined.push_back({Candidate, S});
      continue; // Fall back to the next-fastest configuration.
    }
    Report.Best = Candidate;
    Report.BestSeconds = Seconds;
    Report.Fig6Label = Candidate.getFigure6Label();
    break;
  }
  return Report;
}

Expected<TuneReport> ExecutionEngine::findBest(
    const std::vector<synth::VariantDescriptor> &Candidates, size_t N,
    const TuneOptions &Opts) {
  if (!Synth)
    return Status(StatusCode::InvalidArgument,
                  "no compiler attached to the execution engine");
  TuneReport Report;
  Report.Op = Synth->getOp();
  Report.Elem = Synth->getElem();
  for (const synth::VariantDescriptor &Desc : Candidates) {
    auto Sub = tune(Desc, N, Opts);
    if (!Sub)
      return Sub.status();
    Report.CandidatesTried += 1;
    Report.ConfigsTimed += Sub->ConfigsTimed;
    for (QuarantineRecord &Q : Sub->Quarantined)
      Report.Quarantined.push_back(std::move(Q));
    if (Sub->hasWinner() && Sub->BestSeconds < Report.BestSeconds) {
      Report.Best = Sub->Best;
      Report.BestSeconds = Sub->BestSeconds;
      Report.Fig6Label = Sub->Fig6Label;
    }
  }
  if (!Report.hasWinner()) {
    if (Report.Quarantined.empty())
      return Status(StatusCode::InvalidArgument,
                    "no tunable configuration was admissible for tuning");
    // Name the first casualty so callers learn why tuning came back empty.
    const QuarantineRecord &First = Report.Quarantined.front();
    return Status(First.Why.Code,
                  strformat("all %zu configurations quarantined; first: %s: %s",
                            Report.Quarantined.size(),
                            First.Desc.getName().c_str(),
                            First.Why.toString().c_str()));
  }
  return Report;
}

Expected<FaultReport>
ExecutionEngine::faultCheck(const synth::VariantDescriptor &Desc, size_t N,
                            const sim::FaultPlan &Plan,
                            const synth::OptimizationFlags &Flags) {
  auto V = getVariant(Desc, Flags);
  if (!V)
    return V.status();

  Device::Scope Scratch(Dev);
  BufferId In = allocSmallInts(Dev, (*V)->Elem, N);

  struct PlanScope {
    sim::SimtMachine &M;
    sim::FaultPlan Saved;
    ~PlanScope() { M.setFaultPlan(Saved); }
  } Restore{Machine, Machine.getFaultPlan()};

  // Clean reference first: simulation is deterministic, so the faulted run
  // can be compared bit-exactly — any divergence is the fault's doing.
  Machine.setFaultPlan(sim::FaultPlan());
  auto Ref =
      runReduction(**V, In, N, ExecMode::Functional, Backend::Simulator);
  if (!Ref)
    return Ref.status(); // Broken without any fault: a real error.

  Machine.setFaultPlan(Plan);
  auto Run =
      runReduction(**V, In, N, ExecMode::Functional, Backend::Simulator);

  FaultReport Report;
  Report.Kind = Plan.Kind;
  Report.RefFloat = Ref->FloatValue;
  Report.RefInt = Ref->IntValue;
  Report.RefIndex = Ref->IndexValue;
  if (!Run) {
    Report.Outcome = FaultOutcome::Trapped;
    Report.Trap = Run.status();
    return Report;
  }
  Report.FaultsInjected = Run->Launch.FaultsInjected;
  Report.GotFloat = Run->FloatValue;
  Report.GotInt = Run->IntValue;
  Report.GotIndex = Run->IndexValue;
  bool Match = ir::isFloatType((*V)->Elem)
                   ? Run->FloatValue == Ref->FloatValue
                   : Run->IntValue == Ref->IntValue;
  // A fault that flips only the *index* of an arg-reduction must still be
  // detected: the payload is part of the answer.
  if (isArgReduce((*V)->Op))
    Match = Match && Run->IndexValue == Ref->IndexValue;
  if (!Match)
    Report.Outcome = FaultOutcome::Detected;
  else
    Report.Outcome = Report.FaultsInjected == 0 ? FaultOutcome::Clean
                                                : FaultOutcome::Survived;
  return Report;
}

void ExecutionEngine::setFaultPlan(const sim::FaultPlan &Plan) {
  Machine.setFaultPlan(Plan);
}

const QuarantineRecord *
ExecutionEngine::findQuarantine(const synth::VariantDescriptor &Desc) const {
  auto It = Quarantine.find(Desc.stableHash());
  return It == Quarantine.end() ? nullptr : &It->second;
}

bool ExecutionEngine::isQuarantined(
    const synth::VariantDescriptor &Desc) const {
  return findQuarantine(Desc) != nullptr;
}

void ExecutionEngine::quarantineVariant(const synth::VariantDescriptor &Desc,
                                        Status Why) {
  Quarantine.emplace(Desc.stableHash(),
                     QuarantineRecord{Desc, std::move(Why)});
}

bool ExecutionEngine::unquarantineVariant(
    const synth::VariantDescriptor &Desc) {
  return Quarantine.erase(Desc.stableHash()) != 0;
}

std::vector<QuarantineRecord> ExecutionEngine::getQuarantineRecords() const {
  std::vector<QuarantineRecord> Records;
  Records.reserve(Quarantine.size());
  for (const auto &[Hash, Record] : Quarantine)
    Records.push_back(Record);
  return Records;
}

void ExecutionEngine::clearQuarantine() {
  Quarantine.clear();
  Validated.clear();
}
