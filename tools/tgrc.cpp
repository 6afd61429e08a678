//===- tgrc.cpp - Tangram compiler driver --------------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Command-line driver for the Tangram reduction compiler:
//
//   tgrc <subcommand> [options] [args]
//
// Subcommands:
//   list                         enumerated search space (default)
//   emit NAME [--bytecode]       CUDA C (or SIMT bytecode) for one variant
//   tune NAME [--arch=A --n=N]   pick tunables by sampled simulation
//        [--export=PACK]         bundle the winners (+ quarantine records)
//        [--import=PACK]         warm-start from a previous export
//   best [--arch=A --n=N]        fastest tuned variant per architecture
//   racecheck [NAME|all]         dynamic race detector over the variant(s)
//   faultcheck [NAME|all]        fault-injection matrix over the variant(s)
//   check FILE [--dump-ast] [--dump-passes]
//                                front-end check a user codelet source
//   check NAME|all               functional validation of the variant(s)
//   serve [--jobs=J --batch=K --no-coalesce --backend=sim|native]
//         [--chaos=KIND --seed=S --period=P] [--health] [--import=PACK]
//                                batched serving demo over ReductionService
//                                (jobs flow through the retry/backoff
//                                client; --chaos injects a deterministic
//                                failure campaign, --health prints the
//                                breaker/degradation report plus the
//                                cache counters; --import opens the shards
//                                with hot lanes)
//
// racecheck, faultcheck, and variant-shaped check are all spellings of one
// engine entry point: engine::diagnose(DiagnoseRequest) with the matching
// DiagnoseKind (Race / Fault / Validate).
//
// Shared options:
//   --op=add|sub|max|min|argmax|argmin|any
//                          reduction operator (canonical source only)
//   --type=f32|i32|i64|f64 element type
//   --arch=kepler|maxwell|pascal|all   target architecture(s)
//   --n=SIZE               problem size (elements)
//   --backend=sim|native   clock used by tune/best: the simulator's cycle
//                          model (default) or the native CPU engine's
//                          host wall-clock
//   --fault=KIND|all       fault kind(s) injected by faultcheck
//   --seed=S --period=P    fault-injection determinism knobs
//   --dump-ast             normalized source after parse+sema
//   --dump-passes          per-codelet transform-pipeline findings
//   --time-passes          per-pass wall-clock timing table at exit
//   --stats                pass statistics counters at exit
//   --print-after-all      dump the unit after every pipeline pass
//   --verify-each          run the IR verifier after every lowering pass
//
//===----------------------------------------------------------------------===//

#include "codegen/CudaEmitter.h"
#include "engine/ExecutionEngine.h"
#include "engine/TunedPack.h"
#include "lang/ASTPrinter.h"
#include "lang/Parser.h"
#include "reduce/OpDef.h"
#include "sema/Sema.h"
#include "serve/ReductionService.h"
#include "serve/ResilientClient.h"
#include "support/Statistics.h"
#include "synth/ReductionSpectrum.h"
#include "tangram/Tangram.h"
#include "transforms/Pipeline.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

using namespace tangram;
using namespace tangram::synth;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: tgrc <list|emit|tune|best|racecheck|faultcheck|check|serve> "
      "[options] [args]\n"
      "  tgrc list\n"
      "  tgrc emit NAME [--bytecode]\n"
      "  tgrc tune NAME [--arch=kepler|maxwell|pascal|all] [--n=SIZE]\n"
      "                 [--backend=sim|native] [--export=PACK] "
      "[--import=PACK]\n"
      "  tgrc best [--arch=...] [--n=SIZE] [--backend=sim|native]\n"
      "  tgrc racecheck [NAME|all] [--arch=...] [--n=SIZE]\n"
      "  tgrc faultcheck [NAME|all] [--arch=...] [--n=SIZE]\n"
      "                  [--fault=bitflip-shared|bitflip-global|drop-atomic|\n"
      "                   dup-atomic|stuck-warp|skip-barrier|all]\n"
      "                  [--seed=S] [--period=P]\n"
      "  tgrc tune FILE.tgr [--arch=...] [--n=SIZE]\n"
      "  tgrc check FILE [--dump-ast] [--dump-passes]\n"
      "  tgrc check NAME|all [--arch=...] [--n=SIZE] [--backend=sim|native]\n"
      "  tgrc serve [--jobs=J] [--batch=K] [--no-coalesce] [--n=SIZE]\n"
      "             [--arch=...] [--backend=sim|native] [--health]\n"
      "             [--import=PACK]\n"
      "             [--chaos=compile-fail|slow-worker|spurious-reject|\n"
      "              quarantine-storm|queue-delay] [--seed=S] [--period=P]\n"
      "shared options: --op=add|sub|max|min|argmax|argmin|any\n"
      "                --type=f32|i32|i64|f64\n"
      "                --time-passes --stats --print-after-all "
      "--verify-each\n");
  return 2;
}

/// Options shared by every subcommand, parsed once up front.
struct DriverOptions {
  TangramReduction::Options Create;
  std::vector<sim::ArchDesc> Archs; ///< Resolved --arch set.
  size_t N = 1 << 20;
  /// Faultcheck knobs: the kinds to inject ("all" = the whole taxonomy)
  /// and the deterministic plan seed/period shared by every run.
  std::string FaultKinds = "all";
  uint64_t FaultSeed = 1;
  uint64_t FaultPeriod = 4;
  bool Bytecode = false;
  bool DumpAst = false;
  bool DumpPasses = false;
  /// Serve knobs: synthetic jobs submitted, coalescing cap, master switch.
  size_t ServeJobs = 512;
  size_t ServeBatch = 256;
  bool ServeCoalesce = true;
  /// Serve resilience knobs: the chaos campaign to inject ("" = none;
  /// --seed/--period are shared with the fault flags) and the --health
  /// report toggle.
  std::string ServeChaos;
  bool ServeHealth = false;
  /// Tuned-pack knobs: --import=PACK warm-starts tune and serve from
  /// tuned-variant packs (repeatable), and tune's --export=PACK bundles the
  /// sweep's winners into one.
  std::string PackExport;
  std::vector<std::string> PackImports;
  std::vector<std::string> Positional;
};

bool parseArchSet(const std::string &Name, std::vector<sim::ArchDesc> &Out) {
  if (Name == "kepler")
    Out = {sim::getKeplerK40c()};
  else if (Name == "maxwell")
    Out = {sim::getMaxwellGTX980()};
  else if (Name == "pascal")
    Out = {sim::getPascalP100()};
  else if (Name == "all") {
    unsigned Count = 0;
    const sim::ArchDesc *All = sim::getAllArchs(Count);
    Out.assign(All, All + Count);
  } else
    return false;
  return true;
}

/// Parses every flag into \p O; non-flag arguments land in O.Positional in
/// order. Returns false on an unknown or malformed flag.
bool parseOptions(int Argc, char **Argv, DriverOptions &O) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (!std::strcmp(Arg, "--dump-ast"))
      O.DumpAst = true;
    else if (!std::strcmp(Arg, "--dump-passes"))
      O.DumpPasses = true;
    else if (!std::strcmp(Arg, "--time-passes"))
      O.Create.PM.TimePasses = true;
    else if (!std::strcmp(Arg, "--stats"))
      O.Create.PM.Stats = true;
    else if (!std::strcmp(Arg, "--print-after-all"))
      O.Create.PM.PrintAfterAll = true;
    else if (!std::strcmp(Arg, "--verify-each"))
      O.Create.PM.VerifyEach = true;
    else if (!std::strcmp(Arg, "--bytecode"))
      O.Bytecode = true;
    else if (!std::strncmp(Arg, "--arch=", 7)) {
      if (!parseArchSet(Arg + 7, O.Archs))
        return false;
    } else if (!std::strncmp(Arg, "--n=", 4)) {
      char *End = nullptr;
      unsigned long long V = std::strtoull(Arg + 4, &End, 10);
      if (!End || *End || V == 0)
        return false;
      O.N = static_cast<size_t>(V);
    } else if (!std::strncmp(Arg, "--jobs=", 7)) {
      char *End = nullptr;
      unsigned long long V = std::strtoull(Arg + 7, &End, 10);
      if (!End || *End || V == 0)
        return false;
      O.ServeJobs = static_cast<size_t>(V);
    } else if (!std::strncmp(Arg, "--batch=", 8)) {
      char *End = nullptr;
      unsigned long long V = std::strtoull(Arg + 8, &End, 10);
      if (!End || *End || V == 0)
        return false;
      O.ServeBatch = static_cast<size_t>(V);
    } else if (!std::strcmp(Arg, "--no-coalesce")) {
      O.ServeCoalesce = false;
    } else if (!std::strncmp(Arg, "--chaos=", 8)) {
      serve::ChaosKind K;
      if (!serve::parseChaosKind(Arg + 8, K) ||
          K == serve::ChaosKind::None)
        return false;
      O.ServeChaos = Arg + 8;
    } else if (!std::strcmp(Arg, "--health")) {
      O.ServeHealth = true;
    } else if (!std::strncmp(Arg, "--export=", 9)) {
      if (!Arg[9])
        return false;
      O.PackExport = Arg + 9;
    } else if (!std::strncmp(Arg, "--import=", 9)) {
      if (!Arg[9])
        return false;
      O.PackImports.push_back(Arg + 9);
    } else if (!std::strncmp(Arg, "--fault=", 8)) {
      sim::FaultKind K;
      std::string Name = Arg + 8;
      if (Name != "all" && (!sim::parseFaultKind(Name, K) ||
                            K == sim::FaultKind::None))
        return false;
      O.FaultKinds = Name;
    } else if (!std::strncmp(Arg, "--seed=", 7)) {
      char *End = nullptr;
      unsigned long long V = std::strtoull(Arg + 7, &End, 10);
      if (!End || *End)
        return false;
      O.FaultSeed = V;
    } else if (!std::strncmp(Arg, "--period=", 9)) {
      char *End = nullptr;
      unsigned long long V = std::strtoull(Arg + 9, &End, 10);
      if (!End || *End || V == 0)
        return false;
      O.FaultPeriod = V;
    } else if (!std::strncmp(Arg, "--backend=", 10)) {
      std::string B = Arg + 10;
      if (B == "sim" || B == "simulator")
        O.Create.Tune.TimingBackend = engine::Backend::Simulator;
      else if (B == "native")
        O.Create.Tune.TimingBackend = engine::Backend::NativeCpu;
      else
        return false;
    } else if (!std::strncmp(Arg, "--op=", 5)) {
      // The whole reduce::OpDef spectrum, not just the arithmetic four.
      if (!parseReduceOp(Arg + 5, O.Create.Op))
        return false;
    } else if (!std::strncmp(Arg, "--type=", 7)) {
      // The OpDef table's own spellings only: the C keywords it also
      // parses (float, int, ...) are not CLI spellings.
      if (!reduce::parseScalarType(Arg + 7, O.Create.Elem) ||
          std::strcmp(Arg + 7, reduce::getScalarTypeSpelling(O.Create.Elem)))
        return false;
    } else if (Arg[0] == '-')
      return false;
    else
      O.Positional.push_back(Arg);
  }
  // Arch defaults are per-command (tune/best sweep all three) and are
  // resolved in main() once the subcommand is known.
  return true;
}

/// The `--time-passes` / `--stats` / `--print-after-all` epilogue, shared
/// by every subcommand that compiled the spectrum.
void printObservability(const TangramReduction &TR) {
  const pm::InstrumentationOptions &PMO = TR.getOptions().PM;
  pm::PassInstrumentation &PI = TR.getInstrumentation();
  if (PMO.PrintAfterAll)
    std::printf("%s", PI.getDumpText().c_str());
  if (PMO.TimePasses)
    std::printf("%s", PI.renderTimingTable().c_str());
  if (PMO.Stats)
    std::printf("%s", support::Statistics::get().report().c_str());
}

const VariantDescriptor *findVariant(const SearchSpace &Space,
                                     const std::string &Name) {
  if (const VariantDescriptor *V = findByFigure6Label(Space, Name))
    return V;
  for (const VariantDescriptor &V : Space.Pruned)
    if (V.getName() == Name)
      return &V;
  return nullptr;
}

/// Compiles the canonical spectrum (or an error exit). Shared by every
/// subcommand that needs the facade.
std::unique_ptr<TangramReduction> compileSpectrum(const DriverOptions &O) {
  auto TR = TangramReduction::create(O.Create);
  if (!TR) {
    std::fprintf(stderr, "tgrc: %s\n", TR.status().toString().c_str());
    return nullptr;
  }
  return std::move(*TR);
}

// --- check ---------------------------------------------------------------

/// Checks a user-supplied source file: parse, sema, pass pipeline; prints
/// what was requested. (Variant synthesis requires the canonical spectrum
/// shape and stays on the built-in path.)
int cmdCheck(const DriverOptions &O, const std::string &Path) {
  std::ifstream File(Path);
  if (!File) {
    std::fprintf(stderr, "tgrc: cannot open '%s'\n", Path.c_str());
    return 1;
  }
  std::stringstream Text;
  Text << File.rdbuf();

  SourceManager SM(Path, Text.str());
  DiagnosticEngine Diags(SM);
  lang::ASTContext Ctx;
  lang::Parser P(SM, Ctx, Diags);
  lang::TranslationUnit TU = P.parseTranslationUnit();
  if (!Diags.hasErrors()) {
    sema::Sema S(Ctx, Diags);
    S.analyze(TU);
  }
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.renderAll().c_str());
    return 1;
  }
  std::printf("%zu codelet(s) checked\n", TU.Codelets.size());
  for (const lang::CodeletDecl *C : TU.Codelets)
    std::printf("  %-12s %-12s %s\n", C->getName().c_str(),
                C->getTag().empty() ? "-" : C->getTag().c_str(),
                lang::getCodeletClassName(C->getCodeletClass()));
  if (O.DumpAst)
    std::printf("\n%s", lang::printTranslationUnit(TU).c_str());
  pm::PassInstrumentation PI(O.Create.PM);
  bool WantPipeline = O.DumpPasses || O.Create.PM.TimePasses ||
                      O.Create.PM.Stats;
  if (WantPipeline) {
    auto Infos = transforms::runTransformPipeline(TU, &PI);
    if (!O.DumpPasses)
      Infos.clear();
    for (const auto &[C, Info] : Infos) {
      std::printf("\n%s (%s):\n", C->getName().c_str(), C->getTag().c_str());
      if (Info.GlobalAtomic)
        std::printf("  Map atomic API: atomic%s%s\n",
                    getReduceOpName(Info.GlobalAtomic->Op),
                    Info.GlobalAtomic->SameComputation
                        ? " (subsumes the spectrum call)"
                        : "");
      for (const auto &W : Info.SharedAtomics.Writes)
        std::printf("  shared-atomic write on '%s' (atomic%s)\n",
                    W.Var->getName().c_str(), getReduceOpName(W.Op));
      for (const auto &Op : Info.Shuffles)
        std::printf("  shuffle loop over '%s' (%s, array %s)\n",
                    Op.Array->getName().c_str(),
                    Op.Direction == ir::ShuffleMode::Down ? "shfl_down"
                                                          : "shfl_up",
                    Op.ElideArray ? "elided" : "kept");
    }
  }
  if (O.Create.PM.TimePasses)
    std::printf("%s", PI.renderTimingTable().c_str());
  if (O.Create.PM.Stats)
    std::printf("%s", support::Statistics::get().report().c_str());
  return 0;
}

// --- list ----------------------------------------------------------------

int cmdList(const DriverOptions &O) {
  auto TR = compileSpectrum(O);
  if (!TR)
    return 1;
  if (O.DumpAst) {
    std::printf("%s", lang::printTranslationUnit(TR->getUnit()).c_str());
    return 0;
  }
  if (O.DumpPasses) {
    auto Infos = transforms::runTransformPipeline(TR->getUnit());
    for (const auto &[C, Info] : Infos)
      std::printf("%s (%s): %zu shared-atomic write(s), %zu shuffle "
                  "opportunit(ies)%s\n",
                  C->getName().c_str(), C->getTag().c_str(),
                  Info.SharedAtomics.Writes.size(), Info.Shuffles.size(),
                  Info.GlobalAtomic ? ", Map atomic API" : "");
    return 0;
  }
  const SearchSpace &Space = TR->getSearchSpace();
  // Axis provenance includes the reduction axis itself: every variant of
  // this spectrum lowers the same (op, dtype) point.
  const char *OpSpelling = getReduceOpSpelling(O.Create.Op);
  const char *DtypeSpelling = reduce::getScalarTypeSpelling(O.Create.Elem);
  std::printf("%zu versions enumerated, %zu after pruning (op=%s "
              "dtype=%s):\n",
              Space.All.size(), Space.Pruned.size(), OpSpelling,
              DtypeSpelling);
  for (const VariantDescriptor &V : Space.Pruned) {
    std::string L = V.getFigure6Label();
    // Axis provenance: which Section III rewrites produced this variant,
    // and how many variant axes its cooperative codelet contributes.
    bool GlobalAtomic = V.GridScheme == GridCombine::GlobalAtomic;
    bool Shuffle = V.Coop == CoopKind::TreeShuffle ||
                   V.Coop == CoopKind::SharedV2Shuffle;
    const char *SharedCodelet = "-";
    const char *CoopTag = nullptr;
    switch (V.Coop) {
    case CoopKind::Tree:
    case CoopKind::TreeShuffle:
      CoopTag = tags::CoopTree;
      break;
    case CoopKind::SharedV1:
      CoopTag = tags::SharedV1;
      SharedCodelet = "v1";
      break;
    case CoopKind::SharedV2:
    case CoopKind::SharedV2Shuffle:
      CoopTag = tags::SharedV2;
      SharedCodelet = "v2";
      break;
    case CoopKind::SerialThread0:
      break;
    }
    unsigned Axes = 0;
    if (CoopTag) {
      if (const lang::CodeletDecl *C = TR->getUnit().findByTag(CoopTag)) {
        auto It = TR->getTransformInfos().find(C);
        if (It != TR->getTransformInfos().end())
          Axes = It->second.variantAxisCount();
      }
    }
    std::printf("  %-4s %-20s %-14s op=%s dtype=%s global-atomic=%c "
                "shuffle=%c shared-atomic=%-2s axes=%u\n",
                L.empty() ? "" : ("(" + L + ")").c_str(),
                V.getName().c_str(),
                getVariantCategoryName(V.getCategory()), OpSpelling,
                DtypeSpelling, GlobalAtomic ? '+' : '-', Shuffle ? '+' : '-',
                SharedCodelet, Axes);
  }
  printObservability(*TR);
  return 0;
}

// --- emit ----------------------------------------------------------------

int cmdEmit(const DriverOptions &O, const std::string &Name) {
  auto TR = compileSpectrum(O);
  if (!TR)
    return 1;
  const VariantDescriptor *V = findVariant(TR->getSearchSpace(), Name);
  if (!V) {
    std::fprintf(stderr, "tgrc: unknown variant '%s'\n", Name.c_str());
    return 1;
  }
  if (O.Bytecode) {
    auto S = TR->synthesize(*V);
    if (!S) {
      std::fprintf(stderr, "tgrc: %s\n", S.status().toString().c_str());
      return 1;
    }
    std::printf("%s", (*S)->Compiled.disassemble().c_str());
    printObservability(*TR);
    return 0;
  }
  auto Cuda = TR->emitCudaFor(*V);
  if (!Cuda) {
    std::fprintf(stderr, "tgrc: %s\n", Cuda.status().toString().c_str());
    return 1;
  }
  std::printf("%s", Cuda->c_str());
  printObservability(*TR);
  return 0;
}

// --- tune ----------------------------------------------------------------

/// Writes the accumulated pack when `--export=PACK` was given; returns the
/// exit code for cmdTune's tail (the write is atomic: temp + rename).
int writePackIfRequested(const DriverOptions &O,
                         const engine::TunedPack &Pack) {
  if (O.PackExport.empty())
    return 0;
  support::Status S = engine::writeTunedPack(O.PackExport, Pack);
  if (!S.ok()) {
    std::fprintf(stderr, "tgrc: %s\n", S.toString().c_str());
    return 1;
  }
  std::printf("exported %zu tuned variant(s), %zu quarantine record(s) "
              "-> %s\n",
              Pack.Entries.size(), Pack.Quarantined.size(),
              O.PackExport.c_str());
  return 0;
}

/// Appends one tuned winner (and the engine's accumulated quarantine
/// records) to \p Pack. Returns false (with a diagnostic) when the variant
/// cannot be resolved or serialized.
bool exportTunedEntry(const TangramReduction &TR, const sim::ArchDesc &Arch,
                      const VariantDescriptor &Tuned, double Seconds,
                      engine::TunedPack &Pack) {
  engine::ExecutionEngine &E = TR.engineFor(Arch);
  auto Entry = E.exportTunedVariant(
      Tuned, TR.getOptions().Tune.TimingBackend, Seconds);
  if (!Entry) {
    std::fprintf(stderr, "tgrc: cannot export tuned variant for %s: %s\n",
                 Arch.Name.c_str(), Entry.status().toString().c_str());
    return false;
  }
  Pack.Entries.push_back(std::move(*Entry));
  // Ship the bad news with the good: importers of this generation, op and
  // element type pre-quarantine what the sweep saw trap or misbehave.
  for (const engine::QuarantineRecord &Q : E.getQuarantineRecords())
    Pack.Quarantined.push_back(
        {Arch.Gen, TR.getOptions().Op, TR.getOptions().Elem, Q.Desc, Q.Why});
  return true;
}

/// Prints any warm-start warnings the per-arch engines collected from
/// `--import=PACK` (an unreadable pack degrades to a cold start).
void printStartupWarnings(const TangramReduction &TR,
                          const sim::ArchDesc &Arch) {
  for (const support::Status &W : TR.engineFor(Arch).getStartupWarnings())
    std::fprintf(stderr, "tgrc: warning: %s\n", W.toString().c_str());
}

int cmdTune(const DriverOptions &Opts, const std::string &Name) {
  DriverOptions O = Opts;
  // Warm start: every lazily-created per-arch engine shares one cache and
  // imports the packs into it.
  O.Create.Engine.ImportPacks = O.PackImports;
  // `tune FILE.tgr` compiles that source instead of the canonical
  // spectrum and tunes its whole variant portfolio per architecture.
  bool IsFile =
      Name.size() > 4 && Name.compare(Name.size() - 4, 4, ".tgr") == 0;
  if (IsFile) {
    std::ifstream File(Name);
    if (!File) {
      std::fprintf(stderr, "tgrc: cannot open '%s'\n", Name.c_str());
      return 1;
    }
    std::stringstream Text;
    Text << File.rdbuf();
    O.Create.SourceOverride = Text.str();
  }
  auto TR = compileSpectrum(O);
  if (!TR)
    return 1;
  // Tuned-point provenance: a tuned configuration is only comparable
  // within its (op, dtype) spectrum, so both spellings ride along.
  const char *OpSpelling = getReduceOpSpelling(TR->getOptions().Op);
  const char *DtypeSpelling =
      reduce::getScalarTypeSpelling(TR->getOptions().Elem);
  // Native wall-clock and simulator-modeled microseconds must never be
  // conflated in logs, so the backend tags every tuned line.
  const char *BackendTag =
      engine::getBackendName(TR->getOptions().Tune.TimingBackend);
  engine::TunedPack Pack;
  if (IsFile) {
    for (const sim::ArchDesc &Arch : O.Archs) {
      printStartupWarnings(*TR, Arch);
      TangramReduction::BestResult Best = TR->findBest(Arch, O.N);
      std::printf("%-10s n=%zu op=%s dtype=%s backend=%s  %-4s %-20s "
                  "block=%u coarsen=%u  %.3f us\n",
                  Arch.Name.c_str(), O.N, OpSpelling, DtypeSpelling,
                  BackendTag,
                  Best.Fig6Label.empty() ? "-" : Best.Fig6Label.c_str(),
                  Best.Desc.getName().c_str(), Best.Desc.BlockSize,
                  Best.Desc.Coarsen, Best.Seconds * 1e6);
      // An architecture whose whole portfolio was quarantined has no
      // winner to bundle; its quarantine records still aren't lost (the
      // surviving architectures' exports carry only their own).
      if (!O.PackExport.empty() &&
          Best.Seconds < std::numeric_limits<double>::infinity() &&
          !exportTunedEntry(*TR, Arch, Best.Desc, Best.Seconds, Pack))
        return 1;
    }
    printObservability(*TR);
    return writePackIfRequested(O, Pack);
  }
  const VariantDescriptor *V = findVariant(TR->getSearchSpace(), Name);
  if (!V) {
    std::fprintf(stderr, "tgrc: unknown variant '%s'\n", Name.c_str());
    return 1;
  }
  for (const sim::ArchDesc &Arch : O.Archs) {
    printStartupWarnings(*TR, Arch);
    VariantDescriptor Tuned = TR->tune(*V, Arch, O.N);
    double Seconds = TR->timeVariant(Tuned, Arch, O.N);
    std::printf("%-10s n=%zu op=%s dtype=%s backend=%s  block=%u "
                "coarsen=%u  %.3f us\n",
                Arch.Name.c_str(), O.N, OpSpelling, DtypeSpelling,
                BackendTag, Tuned.BlockSize, Tuned.Coarsen, Seconds * 1e6);
    if (!O.PackExport.empty() &&
        !exportTunedEntry(*TR, Arch, Tuned, Seconds, Pack))
      return 1;
  }
  printObservability(*TR);
  return writePackIfRequested(O, Pack);
}

// --- best ----------------------------------------------------------------

int cmdBest(const DriverOptions &O) {
  auto TR = compileSpectrum(O);
  if (!TR)
    return 1;
  for (const sim::ArchDesc &Arch : O.Archs) {
    TangramReduction::BestResult Best = TR->findBest(Arch, O.N);
    std::printf("%-10s n=%zu op=%s dtype=%s  %-4s %-20s block=%u "
                "coarsen=%u  %.3f us\n",
                Arch.Name.c_str(), O.N,
                getReduceOpSpelling(TR->getOptions().Op),
                reduce::getScalarTypeSpelling(TR->getOptions().Elem),
                Best.Fig6Label.empty() ? "-" : Best.Fig6Label.c_str(),
                Best.Desc.getName().c_str(), Best.Desc.BlockSize,
                Best.Desc.Coarsen, Best.Seconds * 1e6);
  }
  printObservability(*TR);
  return 0;
}

// --- racecheck -----------------------------------------------------------

int raceCheckOne(const TangramReduction &TR, const VariantDescriptor &V,
                 const sim::ArchDesc &Arch, size_t N, unsigned &Races) {
  engine::DiagnoseRequest Req;
  Req.Kind = engine::DiagnoseKind::Race;
  Req.Desc = V;
  Req.N = N;
  auto Report = TR.diagnose(Arch, Req);
  if (!Report) {
    std::fprintf(stderr, "tgrc: %s: %s\n", V.getName().c_str(),
                 Report.status().toString().c_str());
    return 1;
  }
  const engine::RaceReport &Race = Report->Race;
  std::printf("%-10s %-20s launches=%u  %s\n", Arch.Name.c_str(),
              V.getName().c_str(), Race.LaunchCount,
              Race.clean()
                  ? "clean"
                  : (std::to_string(Race.Conflicts) + " conflict(s), " +
                     std::to_string(Race.Diagnostics.size()) +
                     " distinct race(s)")
                        .c_str());
  for (const sim::RaceDiagnostic &D : Race.Diagnostics)
    std::printf("    %s\n", TR.renderRace(D).c_str());
  if (Race.Truncated)
    std::printf("    (address table overflowed; coverage is partial)\n");
  Races += static_cast<unsigned>(Race.Diagnostics.size());
  return 0;
}

int cmdRaceCheck(const DriverOptions &O, const std::string &Name) {
  auto TR = compileSpectrum(O);
  if (!TR)
    return 1;
  std::vector<const VariantDescriptor *> Targets;
  if (Name.empty() || Name == "all") {
    for (const VariantDescriptor &V : TR->getSearchSpace().Pruned)
      Targets.push_back(&V);
  } else {
    const VariantDescriptor *V = findVariant(TR->getSearchSpace(), Name);
    if (!V) {
      std::fprintf(stderr, "tgrc: unknown variant '%s'\n", Name.c_str());
      return 1;
    }
    Targets.push_back(V);
  }
  unsigned Races = 0;
  for (const sim::ArchDesc &Arch : O.Archs)
    for (const VariantDescriptor *V : Targets)
      if (int RC = raceCheckOne(*TR, *V, Arch, O.N, Races))
        return RC;
  std::printf("%zu variant(s) x %zu architecture(s): %u race(s)\n",
              Targets.size(), O.Archs.size(), Races);
  printObservability(*TR);
  return Races ? 1 : 0;
}

// --- faultcheck ----------------------------------------------------------

/// Runs one (variant, arch, fault-kind) cell of the fault matrix and prints
/// its structured outcome. Returns nonzero only when the harness itself
/// fails (e.g. the clean reference run traps) — a Detected or Trapped fault
/// is the framework *working*.
int faultCheckOne(const TangramReduction &TR, const VariantDescriptor &V,
                  const sim::ArchDesc &Arch, size_t N,
                  const sim::FaultPlan &Plan, unsigned Outcomes[4]) {
  engine::DiagnoseRequest Req;
  Req.Kind = engine::DiagnoseKind::Fault;
  Req.Desc = V;
  Req.N = N;
  Req.Plan = Plan;
  auto Report = TR.diagnose(Arch, Req);
  if (!Report) {
    std::fprintf(stderr, "tgrc: %s: %s\n", V.getName().c_str(),
                 Report.status().toString().c_str());
    return 1;
  }
  const engine::FaultReport &Fault = Report->Fault;
  ++Outcomes[static_cast<unsigned>(Fault.Outcome)];
  std::printf("%-10s %-20s %-14s injected=%-4llu %s", Arch.Name.c_str(),
              V.getName().c_str(), sim::getFaultKindName(Fault.Kind),
              static_cast<unsigned long long>(Fault.FaultsInjected),
              engine::getFaultOutcomeName(Fault.Outcome));
  if (Fault.Outcome == engine::FaultOutcome::Detected)
    std::printf("  (got %g expected %g)", Fault.GotFloat, Fault.RefFloat);
  else if (Fault.Outcome == engine::FaultOutcome::Trapped)
    std::printf("  (%s)", Fault.Trap.toString().c_str());
  std::printf("\n");
  return 0;
}

int cmdFaultCheck(const DriverOptions &O, const std::string &Name) {
  auto TR = compileSpectrum(O);
  if (!TR)
    return 1;
  std::vector<const VariantDescriptor *> Targets;
  if (Name.empty() || Name == "all") {
    for (const VariantDescriptor &V : TR->getSearchSpace().Pruned)
      Targets.push_back(&V);
  } else {
    const VariantDescriptor *V = findVariant(TR->getSearchSpace(), Name);
    if (!V) {
      std::fprintf(stderr, "tgrc: unknown variant '%s'\n", Name.c_str());
      return 1;
    }
    Targets.push_back(V);
  }

  std::vector<sim::FaultKind> Kinds;
  if (O.FaultKinds == "all") {
    unsigned Count = 0;
    const sim::FaultKind *All = sim::getAllFaultKinds(Count);
    Kinds.assign(All, All + Count);
  } else {
    sim::FaultKind K = sim::FaultKind::None;
    sim::parseFaultKind(O.FaultKinds, K); // validated during flag parsing
    Kinds.push_back(K);
  }

  unsigned Outcomes[4] = {0, 0, 0, 0};
  for (const sim::ArchDesc &Arch : O.Archs)
    for (const VariantDescriptor *V : Targets)
      for (sim::FaultKind K : Kinds) {
        sim::FaultPlan Plan;
        Plan.Kind = K;
        Plan.Seed = O.FaultSeed;
        Plan.Period = O.FaultPeriod;
        if (int RC = faultCheckOne(*TR, *V, Arch, O.N, Plan, Outcomes))
          return RC;
      }
  std::printf("%zu variant(s) x %zu architecture(s) x %zu fault kind(s): "
              "%u clean, %u survived, %u detected, %u trapped\n",
              Targets.size(), O.Archs.size(), Kinds.size(), Outcomes[0],
              Outcomes[1], Outcomes[2], Outcomes[3]);
  printObservability(*TR);
  return 0;
}

// --- check NAME (functional validation) ----------------------------------

int cmdCheckVariant(const DriverOptions &O, const std::string &Name) {
  auto TR = compileSpectrum(O);
  if (!TR)
    return 1;
  std::vector<const VariantDescriptor *> Targets;
  if (Name == "all") {
    for (const VariantDescriptor &V : TR->getSearchSpace().Pruned)
      Targets.push_back(&V);
  } else {
    const VariantDescriptor *V = findVariant(TR->getSearchSpace(), Name);
    if (!V) {
      std::fprintf(stderr, "tgrc: unknown variant '%s'\n", Name.c_str());
      return 1;
    }
    Targets.push_back(V);
  }
  unsigned Failures = 0;
  for (const sim::ArchDesc &Arch : O.Archs)
    for (const VariantDescriptor *V : Targets) {
      engine::DiagnoseRequest Req;
      Req.Kind = engine::DiagnoseKind::Validate;
      Req.Desc = *V;
      Req.N = O.N;
      Req.BackendKind = O.Create.Tune.TimingBackend;
      auto Report = TR->diagnose(Arch, Req);
      if (!Report) {
        std::fprintf(stderr, "tgrc: %s: %s\n", V->getName().c_str(),
                     Report.status().toString().c_str());
        return 1;
      }
      bool Pass = Report->passed();
      Failures += Pass ? 0 : 1;
      std::printf("%-10s %-20s n=%zu backend=%s  %s\n", Arch.Name.c_str(),
                  V->getName().c_str(), O.N,
                  engine::getBackendName(Req.BackendKind),
                  Pass ? "pass" : Report->Validation.toString().c_str());
    }
  std::printf("%zu variant(s) x %zu architecture(s): %u validation "
              "failure(s)\n",
              Targets.size(), O.Archs.size(), Failures);
  printObservability(*TR);
  return Failures ? 1 : 0;
}

// --- serve ---------------------------------------------------------------

/// Synthetic serving demo: submits --jobs small reductions through the
/// batching service (via the retry/backoff client, so an injected chaos
/// campaign is absorbed rather than fatal) and reports throughput, latency
/// percentiles, the coalescing counters, and — with --health — the
/// per-shard breaker/degradation report.
int cmdServe(const DriverOptions &O) {
  serve::ServiceOptions SO;
  SO.BackendKind = O.Create.Tune.TimingBackend;
  SO.Coalesce = O.ServeCoalesce;
  SO.MaxBatchJobs = O.ServeBatch;
  SO.QueueDepth = std::max<size_t>(O.ServeJobs, 1024);
  SO.Archs = O.Archs;
  // Warm start: with an --import pack the shards open with hot lanes —
  // first jobs are served without single-flight compiles.
  SO.ImportPacks = O.PackImports;
  if (!O.ServeChaos.empty()) {
    serve::parseChaosKind(O.ServeChaos, SO.Chaos.Kind);
    SO.Chaos.Seed = O.FaultSeed;
    SO.Chaos.Period = O.FaultPeriod;
  }
  serve::ReductionService Svc(SO);
  serve::ResilientClient Client(Svc);

  const bool Float = ir::isFloatType(O.Create.Elem);
  // Per-job payload seed: submission is multi-threaded, so the data for
  // job J must not depend on submission order.
  auto MakeJob = [&](size_t J) {
    serve::JobSpec Job;
    Job.Op = O.Create.Op;
    Job.Elem = O.Create.Elem;
    Job.Gen = O.Archs.front().Gen;
    uint64_t Seed = 0x9e3779b97f4a7c15ull ^ (J * 0x2545f4914f6cdd1dull);
    for (size_t I = 0; I != O.N; ++I) {
      Seed = Seed * 6364136223846793005ull + 1442695040888963407ull;
      long long V = static_cast<long long>((Seed >> 33) % 2001) - 1000;
      if (Float)
        Job.FloatData.push_back(static_cast<double>(V) / 8.0);
      else
        Job.IntData.push_back(V);
    }
    return Job;
  };

  std::mutex OutMu;
  unsigned Failed = 0, Degraded = 0;
  std::vector<double> Latencies;
  Latencies.reserve(O.ServeJobs);
  std::atomic<size_t> NextJob{0};
  auto Submitter = [&] {
    for (size_t J = NextJob++; J < O.ServeJobs; J = NextJob++) {
      auto Out = Client.run(MakeJob(J));
      std::lock_guard<std::mutex> G(OutMu);
      if (!Out) {
        ++Failed;
        std::fprintf(stderr, "tgrc: job failed: %s\n",
                     Out.status().toString().c_str());
        continue;
      }
      Latencies.push_back(Out->LatencySeconds);
      Degraded += Out->Degraded ? 1 : 0;
    }
  };

  const double T0 = engine::steadySeconds();
  std::vector<std::thread> Submitters;
  const size_t NumSubmitters = std::min<size_t>(4, std::max<size_t>(
                                                       1, O.ServeJobs));
  for (size_t I = 0; I != NumSubmitters; ++I)
    Submitters.emplace_back(Submitter);
  for (std::thread &T : Submitters)
    T.join();
  const double Wall = engine::steadySeconds() - T0;
  serve::HealthReport Health = Svc.getHealth();
  Svc.stop();

  std::sort(Latencies.begin(), Latencies.end());
  serve::ServiceStats St = Svc.getStats();
  serve::ClientStats CS = Client.getStats();
  std::printf("serve: arch=%s backend=%s op=%s dtype=%s jobs=%zu n=%zu "
              "batch<=%zu coalesce=%s chaos=%s\n",
              O.Archs.front().Name.c_str(),
              engine::getBackendName(SO.BackendKind),
              getReduceOpSpelling(O.Create.Op),
              reduce::getScalarTypeSpelling(O.Create.Elem), O.ServeJobs, O.N,
              SO.MaxBatchJobs, SO.Coalesce ? "on" : "off",
              SO.Chaos.active() ? serve::getChaosKindName(SO.Chaos.Kind)
                                : "off");
  std::printf("  completed=%llu failed=%u batches=%llu coalesced=%llu "
              "direct=%llu degraded=%u\n",
              static_cast<unsigned long long>(St.Completed), Failed,
              static_cast<unsigned long long>(St.Batches),
              static_cast<unsigned long long>(St.CoalescedJobs),
              static_cast<unsigned long long>(St.DirectJobs), Degraded);
  std::printf("  rejected=%llu (overloaded=%llu unavailable=%llu) "
              "retries=%llu backoff=%.1fms chaos-fired=%llu\n",
              static_cast<unsigned long long>(St.rejected()),
              static_cast<unsigned long long>(St.RejectedOverloaded),
              static_cast<unsigned long long>(St.RejectedUnavailable),
              static_cast<unsigned long long>(CS.Retries),
              CS.BackoffSecondsTotal * 1e3,
              static_cast<unsigned long long>(St.ChaosInjected));
  std::printf("  wall=%.3fs throughput=%.0f jobs/s latency p50=%.3fms "
              "p95=%.3fms p99=%.3fms\n",
              Wall,
              Wall > 0 ? static_cast<double>(Latencies.size()) / Wall : 0.0,
              serve::percentileSorted(Latencies, 0.50) * 1e3,
              serve::percentileSorted(Latencies, 0.95) * 1e3,
              serve::percentileSorted(Latencies, 0.99) * 1e3);
  if (O.ServeHealth)
    std::printf("%s", Health.renderText().c_str());
  return Failed ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  DriverOptions O;
  // RaceCheck sweeps stay tractable at the default problem size.
  bool SawN = false;
  for (int I = 1; I < Argc; ++I)
    if (!std::strncmp(Argv[I], "--n=", 4))
      SawN = true;
  if (!parseOptions(Argc, Argv, O))
    return usage();

  // The subcommand comes first; without one, `tgrc [flags]` lists.
  std::string Cmd = "list";
  if (!O.Positional.empty()) {
    const std::string &First = O.Positional.front();
    if (First != "list" && First != "emit" && First != "tune" &&
        First != "best" && First != "racecheck" && First != "faultcheck" &&
        First != "check" && First != "serve")
      return usage();
    Cmd = First;
    O.Positional.erase(O.Positional.begin());
  }

  // Default architectures: tune/best sweep all three generations (the
  // paper's portability claim is per-arch), everything else runs Pascal.
  if (O.Archs.empty())
    parseArchSet(Cmd == "tune" || Cmd == "best" ? "all" : "pascal", O.Archs);

  if (Cmd == "check") {
    if (O.Positional.size() != 1)
      return usage();
    const std::string &Target = O.Positional.front();
    // A .tgr path (or any existing file) goes through the front-end check;
    // anything else names a synthesized variant to validate functionally.
    const bool IsFile = Target.size() > 4 &&
                        Target.compare(Target.size() - 4, 4, ".tgr") == 0;
    if (IsFile || std::ifstream(Target).good())
      return cmdCheck(O, Target);
    if (!SawN)
      O.N = 1 << 11; // one functional run per arch x variant; keep it quick
    return cmdCheckVariant(O, Target);
  }
  if (!O.Positional.empty() && Cmd != "emit" && Cmd != "tune" &&
      Cmd != "racecheck" && Cmd != "faultcheck")
    return usage();

  if (Cmd == "list")
    return cmdList(O);
  if (Cmd == "emit")
    return O.Positional.size() == 1 ? cmdEmit(O, O.Positional.front())
                                    : usage();
  if (Cmd == "tune")
    return O.Positional.size() == 1 ? cmdTune(O, O.Positional.front())
                                    : usage();
  if (Cmd == "best")
    return cmdBest(O);
  if (Cmd == "racecheck") {
    if (O.Positional.size() > 1)
      return usage();
    if (!SawN)
      O.N = 1 << 14; // full-grid functional runs; keep the sweep quick
    return cmdRaceCheck(O,
                        O.Positional.empty() ? "" : O.Positional.front());
  }
  if (Cmd == "faultcheck") {
    if (O.Positional.size() > 1)
      return usage();
    if (!SawN)
      O.N = 1 << 12; // two functional runs per matrix cell; keep it quick
    return cmdFaultCheck(O,
                         O.Positional.empty() ? "" : O.Positional.front());
  }
  if (Cmd == "serve") {
    if (!SawN)
      O.N = 256; // many small jobs is the serving sweet spot
    return cmdServe(O);
  }
  return usage();
}
