//===- BenchCommon.h - Shared benchmark-harness helpers ---------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the figure-regeneration binaries: the paper's
/// reference series (digitized approximately from Figs. 7-10 and the
/// Section IV text) and table printing. Every bench prints paper-reported
/// values next to our measured ones so the reproduction is auditable; see
/// EXPERIMENTS.md for the comparison discussion.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_BENCH_BENCHCOMMON_H
#define TANGRAM_BENCH_BENCHCOMMON_H

#include "engine/VariantCache.h"
#include "native/VecTraits.h"
#include "pm/PassInstrumentation.h"
#include "support/Statistics.h"
#include "tangram/FigureHarness.h"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace tangram::bench {

/// Paper-reported speedups over CUB, digitized (approximately) from one
/// figure. Twelve entries matching FigureHarness::getPaperSizes().
struct PaperSeries {
  const char *ArchName;
  double Tangram[12];
  double Kokkos[12];
  double OpenMP[12];
  /// Winning version labels per size regime, from Sections IV-C2..4.
  const char *Winners[12];
};

inline const PaperSeries &getPaperKepler() {
  static const PaperSeries S = {
      "Kepler K40c",
      {2.0, 3.0, 3.5, 5.0, 5.5, 5.5, 5.0, 4.5, 2.0, 0.9, 0.75, 0.72},
      {0.40, 0.45, 0.50, 0.55, 0.60, 0.70, 0.80, 0.90, 1.2, 2.2, 2.5, 2.5},
      {4.0, 4.2, 4.3, 4.5, 4.3, 4.0, 2.5, 1.2, 0.5, 0.25, 0.22, 0.20},
      {"p", "p", "p", "m", "m", "m", "m", "m", "m", "b/e", "b/e", "b/e"}};
  return S;
}

inline const PaperSeries &getPaperMaxwell() {
  static const PaperSeries S = {
      "Maxwell GTX980",
      {2.5, 3.0, 3.5, 4.5, 5.0, 5.5, 5.0, 4.6, 2.5, 1.1, 0.95, 0.93},
      {0.40, 0.45, 0.50, 0.55, 0.60, 0.70, 0.80, 0.95, 1.3, 2.3, 2.6, 2.7},
      {4.0, 4.1, 4.2, 4.4, 4.2, 3.8, 2.4, 1.1, 0.5, 0.30, 0.27, 0.26},
      {"n", "n", "n", "n", "n", "n", "p", "p", "p", "a/c/k", "a/c/k",
       "a/c/k"}};
  return S;
}

inline const PaperSeries &getPaperPascal() {
  static const PaperSeries S = {
      "Pascal P100",
      {1.6, 2.0, 3.0, 8.5, 8.5, 8.5, 6.0, 4.0, 1.5, 0.85, 0.78, 0.73},
      {0.50, 0.50, 0.55, 0.60, 0.70, 0.80, 0.85, 0.90, 1.0, 1.3, 1.8, 2.2},
      {1.6, 1.9, 2.8, 4.8, 4.8, 4.5, 3.0, 1.3, 0.4, 0.12, 0.08, 0.07},
      {"n", "n", "n", "n/p", "n/p", "n/p", "p", "p", "p", "e", "e", "e"}};
  return S;
}

inline const PaperSeries &getPaperSeriesFor(const sim::ArchDesc &Arch) {
  switch (Arch.Gen) {
  case sim::ArchGeneration::Kepler:
    return getPaperKepler();
  case sim::ArchGeneration::Maxwell:
    return getPaperMaxwell();
  case sim::ArchGeneration::Pascal:
    return getPaperPascal();
  }
  return getPaperKepler();
}

/// Prints one architecture's detailed figure table (Figs. 8-10 layout):
/// measured speedups over the CUB baseline next to the paper's values.
inline void printDetailTable(const sim::ArchDesc &Arch,
                             const std::vector<FigureRow> &Rows) {
  const PaperSeries &Paper = getPaperSeriesFor(Arch);
  std::printf("%-11s %-5s %-7s | %-8s %-8s | %-8s %-8s | %-8s %-8s\n", "N",
              "best", "paper", "tangram", "(paper)", "kokkos", "(paper)",
              "openmp", "(paper)");
  std::printf("%.*s\n", 86,
              "-------------------------------------------------------------"
              "---------------------------------");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const FigureRow &R = Rows[I];
    std::printf(
        "%-11zu (%s)%*s %-7s | %8.2f %8.2f | %8.2f %8.2f | %8.2f %8.2f\n",
        R.N, R.BestLabel.c_str(),
        static_cast<int>(3 - R.BestLabel.size()), "", Paper.Winners[I],
        R.tangramSpeedup(), Paper.Tangram[I], R.kokkosSpeedup(),
        Paper.Kokkos[I], R.ompSpeedup(), Paper.OpenMP[I]);
  }
  std::printf("\nspeedups are over the CUB baseline on the same "
              "architecture (higher is better);\n(paper) columns are "
              "approximate digitizations of the published figure.\n");
}

/// One measured data point for the machine-readable bench output.
struct BenchRecord {
  std::string Arch;    ///< Architecture name (empty if not applicable).
  std::string Variant; ///< Variant / configuration label.
  size_t N = 0;        ///< Input size in elements (0 if not applicable).
  double Seconds = 0;  ///< Modeled seconds for the run.
  /// Run health: "ok", or a failure class ("quarantined", "timeout", ...)
  /// when the hardened pipeline rejected the configuration. Benches emit a
  /// record either way so partial failures still produce valid JSON.
  std::string Status = "ok";
};

/// Flattens one architecture's figure rows into bench records (one per
/// framework per size).
inline void appendFigureRecords(const sim::ArchDesc &Arch,
                                const std::vector<FigureRow> &Rows,
                                std::vector<BenchRecord> &Records) {
  for (const FigureRow &R : Rows) {
    Records.push_back({Arch.Name,
                       R.BestName.empty() ? "tangram"
                                          : "tangram-" + R.BestName,
                       R.N, R.TangramSeconds, R.Status});
    Records.push_back({Arch.Name, "cub", R.N, R.CubSeconds});
    Records.push_back({Arch.Name, "kokkos", R.N, R.KokkosSeconds});
    Records.push_back({Arch.Name, "openmp", R.N, R.OmpSeconds});
  }
}

/// Reduction-axis provenance recorded in every BENCH_*.json `meta` block:
/// which (op, dtype) point of the multiplied search space the artifact's
/// numbers were measured on. Defaults are the canonical float sum, so
/// existing single-point benches need no changes; sweeps over the op axis
/// stamp each artifact via reduce::OpDef spellings ("argmax", "i64", ...).
///
/// The meta block also records where the numbers come from physically:
/// which execution backend produced them ("simulator" modeled cycles vs
/// "native" host wall-clock) and the host machine the bench ran on (SIMD
/// ISA the native engine vectorizes for, hardware thread count). Two
/// artifacts with different `backend` or `host_simd` fields are not
/// comparable point-for-point — plotting scripts must separate them.
struct BenchMeta {
  std::string Op = "add";
  std::string Dtype = "f32";
  /// "simulator" (modeled cycles, the default for every figure bench) or
  /// "native" (host wall-clock from the src/native engine).
  std::string Backend = "simulator";
  /// Widest SIMD ISA the native backend's vector loops target on this
  /// host ("avx512", "avx2", ..., "scalar"). Recorded even for simulator
  /// runs so artifacts identify the machine that produced them.
  std::string HostSimdIsa = native::getHostSimdIsa();
  /// std::thread::hardware_concurrency() at capture time (0 = unknown).
  unsigned HostThreads = std::thread::hardware_concurrency();
  /// Extra bench-specific meta entries, emitted verbatim as
  /// `"key": value` pairs inside the meta object. Values must already be
  /// valid JSON scalars ("12", "0.5", "\"text\"") — the chaos bench uses
  /// this for its degraded/retry/fast-fail counters.
  std::vector<std::pair<std::string, std::string>> Extra;
};

/// Stamps a variant cache's counters into \p Meta.Extra
/// (`"cache_<counter>": N` pairs with \p Prefix prepended to the key), so
/// warm-start provenance — did this artifact's numbers pay compiles or
/// start from a pack? — rides in the BENCH_*.json meta block of every
/// cache-backed bench.
inline void appendCacheMeta(BenchMeta &Meta, const engine::CacheStats &S,
                            const std::string &Prefix = "") {
  auto Add = [&](const char *Key, uint64_t Value) {
    Meta.Extra.emplace_back(Prefix + Key, std::to_string(Value));
  };
  Add("cache_hits", S.Hits);
  Add("cache_misses", S.Misses);
  Add("cache_compiled", S.VariantsCompiled);
}

/// Compile-time observability attached to a bench's JSON artifact: total
/// pipeline wall-clock, the per-pass breakdown, and the pass statistics
/// counters at the time of writing.
struct CompileInfo {
  double CompileSeconds = 0;
  std::vector<pm::PassTiming> Passes;
  std::vector<std::pair<std::string, uint64_t>> Stats;

  /// Snapshot of \p PI plus the global statistics registry.
  static CompileInfo capture(const pm::PassInstrumentation &PI) {
    CompileInfo Info;
    Info.CompileSeconds = PI.getTotalSeconds();
    Info.Passes = PI.getTimings();
    Info.Stats = support::Statistics::get().snapshot();
    return Info;
  }
};

inline void writeBenchRecords(std::FILE *F,
                              const std::vector<BenchRecord> &Records,
                              const char *Indent) {
  for (size_t I = 0; I != Records.size(); ++I) {
    const BenchRecord &R = Records[I];
    // Infinity is not valid JSON; failed configurations keep a numeric
    // placeholder and their status says why the number is meaningless.
    double Seconds = std::isfinite(R.Seconds) ? R.Seconds : 0;
    std::fprintf(F,
                 "%s{\"variant\": \"%s\", \"arch\": \"%s\", \"n\": %zu, "
                 "\"seconds\": %.9g, \"status\": \"%s\"}%s\n",
                 Indent, R.Variant.c_str(), R.Arch.c_str(), R.N, Seconds,
                 R.Status.c_str(), I + 1 == Records.size() ? "" : ",");
  }
}

/// Writes `BENCH_<BenchName>.json` in the working directory: an object
/// holding a `meta` block (the reduction-axis provenance — op and dtype
/// spellings from the OpDef table), the measured `records` array of
/// `{"variant", "arch", "n", "seconds", "status"}` objects, and — when
/// \p Compile is given — "compile_ms", a "passes" array (name/runs/seconds
/// per lowering pass), and a "stats" counter map. Keeps the figure
/// binaries' stdout tables human-oriented while giving CI and plotting
/// scripts a stable machine-readable artifact. Records with a non-"ok"
/// status carry whatever Seconds were measured before the failure
/// (usually 0 or infinity) — the output stays valid JSON even when part
/// of the sweep was quarantined.
inline void writeBenchJson(const std::string &BenchName,
                           const std::vector<BenchRecord> &Records,
                           const CompileInfo *Compile = nullptr,
                           const BenchMeta &Meta = BenchMeta()) {
  std::string Path = "BENCH_" + BenchName + ".json";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "warning: could not write %s\n", Path.c_str());
    return;
  }
  std::fprintf(F,
               "{\n  \"meta\": {\"op\": \"%s\", \"dtype\": \"%s\", "
               "\"backend\": \"%s\", \"host_simd\": \"%s\", "
               "\"host_threads\": %u",
               Meta.Op.c_str(), Meta.Dtype.c_str(), Meta.Backend.c_str(),
               Meta.HostSimdIsa.c_str(), Meta.HostThreads);
  for (const auto &KV : Meta.Extra)
    std::fprintf(F, ", \"%s\": %s", KV.first.c_str(), KV.second.c_str());
  std::fprintf(F, "},\n");
  if (!Compile) {
    std::fprintf(F, "  \"records\": [\n");
    writeBenchRecords(F, Records, "    ");
    std::fprintf(F, "  ]\n}\n");
  } else {
    std::fprintf(F, "  \"compile_ms\": %.6g,\n",
                 Compile->CompileSeconds * 1e3);
    std::fprintf(F, "  \"passes\": [\n");
    for (size_t I = 0; I != Compile->Passes.size(); ++I) {
      const pm::PassTiming &T = Compile->Passes[I];
      std::fprintf(F,
                   "    {\"pass\": \"%s\", \"runs\": %llu, "
                   "\"seconds\": %.9g}%s\n",
                   T.Name.c_str(),
                   static_cast<unsigned long long>(T.Invocations), T.Seconds,
                   I + 1 == Compile->Passes.size() ? "" : ",");
    }
    std::fprintf(F, "  ],\n  \"stats\": {\n");
    for (size_t I = 0; I != Compile->Stats.size(); ++I)
      std::fprintf(F, "    \"%s\": %llu%s\n",
                   Compile->Stats[I].first.c_str(),
                   static_cast<unsigned long long>(Compile->Stats[I].second),
                   I + 1 == Compile->Stats.size() ? "" : ",");
    std::fprintf(F, "  },\n  \"records\": [\n");
    writeBenchRecords(F, Records, "    ");
    std::fprintf(F, "  ]\n}\n");
  }
  std::fclose(F);
  std::printf("wrote %s (%zu records)\n", Path.c_str(), Records.size());
}

} // namespace tangram::bench

#endif // TANGRAM_BENCH_BENCHCOMMON_H
