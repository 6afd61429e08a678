//===- bench_cache_warmstart.cpp - Tuned-pack warm-start latency ------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Measures what tuned-variant packs buy a reduction server at startup: the
// time from engine creation to the first completed reduction at the
// serving size. A server that does not know its winning variant must tune
// before it can answer anything — sweep the pruned portfolio, timing every
// tunable configuration — and only then launch the winner:
//   cold-compile : fresh cache. The tuning sweep pays synthesis + bytecode
//                  compile for every configuration, then the first job
//                  runs.
//   pack-import  : no tuning at all. The engine warm-starts from a
//                  tuned-variant pack (`tgrc tune --export`), reads the
//                  recorded winner, and serves it directly.
// Each regime runs --trials times and reports the minimum, the floor of
// each path. The pack regime must reach the first completed job with
// VariantsCompiled == 0, and the gate is pack >= 10x faster than cold.
//
// Writes BENCH_cache_warmstart.json.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "engine/ExecutionEngine.h"
#include "engine/TunedPack.h"
#include "tangram/Tangram.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <string>
#include <vector>

using namespace tangram;

namespace {

struct Config {
  size_t N = 64; ///< Elements in the first job and the tuning size.
  unsigned Trials = 3;
  engine::Backend Backend = engine::Backend::Simulator;
};

struct RegimeResult {
  double Seconds = 0;       ///< Engine creation -> first completed job.
  engine::CacheStats Cache; ///< The engine's cache after the job.
  bool Ok = false;
};

support::Expected<std::unique_ptr<TangramReduction>>
makeSpectrum(const Config &C, const std::vector<std::string> &Packs) {
  TangramReduction::Options TO;
  TO.Tune.TimingBackend = C.Backend;
  TO.Engine.ImportPacks = Packs;
  return TangramReduction::create(TO);
}

/// Runs the first reduction of the process with \p Desc and fills \p R
/// from \p E. The job itself is identical across regimes; only the path
/// to knowing \p Desc differs.
bool runFirstJob(const Config &C, engine::ExecutionEngine &E,
                 const synth::VariantDescriptor &Desc, RegimeResult &R,
                 double T0) {
  std::vector<float> Data(C.N);
  for (size_t I = 0; I != C.N; ++I)
    Data[I] = static_cast<float>((I * 7 + 3) % 101) * 0.25f;
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, C.N);
  E.getDevice().writeFloats(In, Data);
  engine::ReduceRequest Req;
  Req.Desc = Desc;
  Req.In = In;
  Req.N = C.N;
  Req.BackendKind = C.Backend;
  auto Out = E.run(Req);
  R.Seconds = engine::steadySeconds() - T0;
  if (!Out) {
    std::fprintf(stderr, "error: first job failed: %s\n",
                 Out.status().toString().c_str());
    return false;
  }
  R.Cache = E.getCacheStats();
  R.Ok = true;
  return true;
}

/// Cold path: the process does not know its winner, so the timed window
/// covers the full hardened tuning sweep (findBestReport), every compile
/// included, before the first job.
RegimeResult runColdRegime(const Config &C) {
  RegimeResult R;
  auto TR = makeSpectrum(C, {});
  if (!TR) {
    std::fprintf(stderr, "error: %s\n", TR.status().toString().c_str());
    return R;
  }
  const sim::ArchDesc Arch = sim::getPascalP100();

  const double T0 = engine::steadySeconds();
  auto Report = (*TR)->findBestReport(Arch, C.N);
  if (!Report) {
    std::fprintf(stderr, "error: %s\n", Report.status().toString().c_str());
    return R;
  }
  runFirstJob(C, (*TR)->engineFor(Arch), Report->Best, R, T0);
  return R;
}

/// Pack path: no tuning. The timed window covers reading the pack's
/// recorded winner, warm-starting the engine from the pack (import
/// happens at engine creation), and serving the first job.
RegimeResult runPackRegime(const Config &C, const std::string &PackPath) {
  RegimeResult R;
  auto TR = makeSpectrum(C, {PackPath});
  if (!TR) {
    std::fprintf(stderr, "error: %s\n", TR.status().toString().c_str());
    return R;
  }

  const double T0 = engine::steadySeconds();
  auto Pack = engine::readTunedPack(PackPath);
  if (!Pack || Pack->Entries.empty()) {
    std::fprintf(stderr, "error: unusable pack '%s'\n", PackPath.c_str());
    return R;
  }
  const engine::TunedPackEntry *Winner = &Pack->Entries.front();
  for (const engine::TunedPackEntry &E : Pack->Entries)
    if (E.TunedSeconds < Winner->TunedSeconds)
      Winner = &E;
  engine::ExecutionEngine &E = (*TR)->engineFor(sim::getPascalP100());
  for (const support::Status &W : E.getStartupWarnings())
    std::fprintf(stderr, "warning: %s\n", W.toString().c_str());
  runFirstJob(C, E, Winner->Desc, R, T0);
  return R;
}

/// Minimum over \p Trials runs of \p Run (the per-regime floor). All
/// trials must complete; the compile counter reported is the maximum over
/// trials — every trial of the pack regime must show zero, and min() on
/// Seconds alone could hide a flaky one.
RegimeResult minOverTrials(unsigned Trials,
                           const std::function<RegimeResult()> &Run) {
  RegimeResult Best;
  Best.Seconds = std::numeric_limits<double>::infinity();
  uint64_t MaxCompiled = 0;
  for (unsigned I = 0; I != Trials; ++I) {
    RegimeResult R = Run();
    if (!R.Ok)
      return R;
    MaxCompiled = std::max(MaxCompiled, R.Cache.VariantsCompiled);
    if (R.Seconds < Best.Seconds)
      Best = std::move(R);
  }
  Best.Cache.VariantsCompiled = MaxCompiled;
  return Best;
}

/// Runs the tuning sweep once more and exports its winner — exactly what
/// `tgrc tune --export` produces for a serving fleet.
bool exportWinnerPack(const Config &C, const std::string &PackPath) {
  auto TR = makeSpectrum(C, {});
  if (!TR)
    return false;
  const sim::ArchDesc Arch = sim::getPascalP100();
  auto Report = (*TR)->findBestReport(Arch, C.N);
  if (!Report) {
    std::fprintf(stderr, "error: %s\n", Report.status().toString().c_str());
    return false;
  }
  engine::ExecutionEngine &E = (*TR)->engineFor(Arch);
  auto Entry =
      E.exportTunedVariant(Report->Best, C.Backend, Report->BestSeconds);
  if (!Entry) {
    std::fprintf(stderr, "error: %s\n", Entry.status().toString().c_str());
    return false;
  }
  engine::TunedPack Pack;
  Pack.Entries.push_back(std::move(*Entry));
  for (const engine::QuarantineRecord &Q : Report->Quarantined)
    Pack.Quarantined.push_back(
        {Arch.Gen, Report->Op, Report->Elem, Q.Desc, Q.Why});
  support::Status S = engine::writeTunedPack(PackPath, Pack);
  if (!S.ok())
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
  return S.ok();
}

} // namespace

int main(int Argc, char **Argv) {
  Config C;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (!std::strncmp(Arg, "--n=", 4))
      C.N = static_cast<size_t>(std::atoll(Arg + 4));
    else if (!std::strncmp(Arg, "--trials=", 9))
      C.Trials = static_cast<unsigned>(std::atoi(Arg + 9));
    else if (!std::strcmp(Arg, "--backend=native"))
      C.Backend = engine::Backend::NativeCpu;
    else if (!std::strcmp(Arg, "--backend=sim"))
      C.Backend = engine::Backend::Simulator;
    else {
      std::fprintf(stderr, "usage: bench_cache_warmstart [--n=SIZE] "
                           "[--trials=T] [--backend=sim|native]\n");
      return 1;
    }
  }
  C.Trials = std::max(1u, C.Trials);

  namespace fs = std::filesystem;
  const fs::path Root =
      fs::temp_directory_path() / "tgr_bench_cache_warmstart";
  std::error_code EC;
  fs::remove_all(Root, EC);
  fs::create_directories(Root);
  const std::string PackPath = (Root / "winner.tgrp").string();

  std::printf("tuned-pack warm start: time to first completed job "
              "(%zu floats, backend=%s, %u trial(s) per regime)\n\n",
              C.N, engine::getBackendName(C.Backend), C.Trials);

  // Cold: every trial builds a fresh facade, so every trial compiles.
  RegimeResult Cold =
      minOverTrials(C.Trials, [&] { return runColdRegime(C); });
  if (!Cold.Ok)
    return 1;

  // Pack: export the tuned winner once, then warm-start pack-only
  // processes that never tune.
  if (!exportWinnerPack(C, PackPath))
    return 1;
  RegimeResult Pack = minOverTrials(
      C.Trials, [&] { return runPackRegime(C, PackPath); });
  if (!Pack.Ok)
    return 1;

  const double Speedup = Pack.Seconds > 0 ? Cold.Seconds / Pack.Seconds : 0;
  // A warm process serving known keys must never compile — the point of
  // the pack. A single compile in any pack trial fails the run.
  const bool WarmNeverCompiled = Pack.Cache.VariantsCompiled == 0;

  auto PrintRow = [](const char *Name, const RegimeResult &R) {
    std::printf("%-13s %10.3f ms   compiled=%llu (%.3f ms)\n", Name,
                R.Seconds * 1e3,
                static_cast<unsigned long long>(R.Cache.VariantsCompiled),
                R.Cache.CompileSeconds * 1e3);
  };
  PrintRow("cold-compile", Cold);
  PrintRow("pack-import", Pack);
  std::printf("\nwarm-start speedup: %.1fx (gate: >= 10x, warm compiles "
              "= 0: %s)\n",
              Speedup, WarmNeverCompiled ? "yes" : "NO");

  std::vector<bench::BenchRecord> Records;
  Records.push_back({"Pascal P100", "cold-compile", C.N, Cold.Seconds});
  Records.push_back({"Pascal P100", "pack-import", C.N, Pack.Seconds,
                     Pack.Cache.VariantsCompiled ? "warm-compiled" : "ok"});
  Records.push_back({"Pascal P100", "speedup", C.N, Speedup,
                     Speedup >= 10 && WarmNeverCompiled ? "ok"
                                                        : "below-gate"});
  bench::BenchMeta Meta;
  Meta.Backend = C.Backend == engine::Backend::NativeCpu ? "native"
                                                         : "simulator";
  bench::appendCacheMeta(Meta, Cold.Cache, "cold_");
  bench::appendCacheMeta(Meta, Pack.Cache, "pack_");
  bench::writeBenchJson("cache_warmstart", Records, nullptr, Meta);

  fs::remove_all(Root, EC);
  return Speedup >= 10.0 && WarmNeverCompiled ? 0 : 2;
}
