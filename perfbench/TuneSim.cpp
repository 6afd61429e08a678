//===- TuneSim.cpp - Cold portfolio sweep on the simulator clock ----------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// A cold TangramReduction facade runs findBestReport on Pascal at N in {1K,
// 64K, 1M, 16M}, ranking every pruned variant and tunable configuration by
// the simulator's modeled cycles: the paper's Fig. 7-10 path. Almost all of
// the time is the gpusim interpreter in Sampled mode; there is no serving,
// no native execution and no host upload inside the sweep. Each winner is
// then run once on a materialized seeded input and checked.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "tangram/Tangram.h"

#include <optional>

using namespace tangram;

namespace perfbench {
namespace {

constexpr size_t Sizes[] = {size_t{1} << 10, size_t{1} << 16, size_t{1} << 20,
                            size_t{1} << 24};
constexpr uint64_t MinSweeps = 2;

std::string modeledName(size_t N) {
  return "gpusim.modeled_best_us." + std::to_string(N);
}

} // namespace

Report runTuneSim(const Args &A, Tracer &T) {
  Report R;
  const sim::ArchDesc &Arch = sim::getPascalP100();

  std::vector<double> SetupSeconds, SetupCpu, SweepSeconds, SweepCpu,
      CompileSeconds, SweepByTrace[2];
  double Configs = 0, CheckBytes = 0;
  std::optional<double> Compiled;
  std::map<size_t, double> Modeled;
  engine::CacheStats Cache;
  std::unique_ptr<TangramReduction> TR;
  std::vector<float> Host;

  // Set-up is a cold facade and its Pascal engine. Every sweep pays one;
  // extra ones up front steady the median.
  auto SetUp = [&](uint64_t Req) -> engine::ExecutionEngine * {
    TR.reset();
    const double Start = now(), CpuStart = processCpu();
    auto Created = [&] {
      Tracer::Scope S(T, "tangram.create", Req);
      return TangramReduction::create();
    }();
    if (!Created) {
      R.fail("facade create: " + Created.status().toString());
      return nullptr;
    }
    TR = std::move(*Created);
    engine::ExecutionEngine *E = &TR->engineFor(Arch);
    SetupSeconds.push_back(now() - Start);
    SetupCpu.push_back(processCpu() - CpuStart);
    return E;
  };
  while (SetupSeconds.size() + 1 < MinSetups)
    if (!SetUp(0))
      return R;

  const double Deadline = now() + A.Seconds;
  for (uint64_t Sweep = 1; now() < Deadline || Sweep <= MinSweeps; ++Sweep) {
    // A traced run traces every other sweep, so the two halves give the
    // tracing overhead.
    const bool On = A.Trace && Sweep % 2 == 1;
    T.setEnabled(On);

    engine::ExecutionEngine *EP = SetUp(Sweep);
    if (!EP)
      return R;
    engine::ExecutionEngine &E = *EP;

    // The timed sweep.
    std::vector<std::pair<size_t, synth::VariantDescriptor>> Winners;
    const double SweepStart = now(), SweepCpuStart = processCpu();
    for (size_t N : Sizes) {
      ++R.Attempted;
      const double Before = E.getCacheStats().CompileSeconds;
      int Span = T.begin("engine.find_best", Sweep);
      auto Report = TR->findBestReport(Arch, N);
      T.end(Span);
      T.addDerived("engine.compile", Span,
                   E.getCacheStats().CompileSeconds - Before);
      if (!Report) {
        R.fail("findBestReport at N=" + std::to_string(N) + ": " +
               Report.status().toString());
        continue;
      }
      Configs += Report->ConfigsTimed;
      Winners.emplace_back(N, Report->Best);
      // Exact-count guard: modeled cycles repeat bit-for-bit.
      const double Us = Report->BestSeconds * 1e6;
      auto [It, New] = Modeled.emplace(N, Us);
      if (!New && It->second != Us)
        R.fail(modeledName(N) + " drifted between sweeps");
      if (Sweep == 1)
        std::printf("winner N=%zu: %s (%s), modeled %.3f us\n", N,
                    Report->Best.getName().c_str(), Report->Fig6Label.c_str(),
                    Us);
    }
    const double Seconds = now() - SweepStart;
    SweepCpu.push_back(processCpu() - SweepCpuStart);
    SweepSeconds.push_back(Seconds);
    SweepByTrace[On].push_back(Seconds);
    Cache = E.getCacheStats();
    CompileSeconds.push_back(Cache.CompileSeconds);
    if (Compiled && *Compiled != static_cast<double>(Cache.VariantsCompiled))
      R.fail("engine.variants_compiled drifted between sweeps");
    Compiled = static_cast<double>(Cache.VariantsCompiled);

    // Each winner once on a materialized seeded input, native backend
    // (the simulator when the variant has no native lowering).
    for (const auto &[N, Desc] : Winners) {
      ++R.Attempted;
      Host.resize(N);
      const double Want = fillInput(Host, A.Seed, Sweep * 64 + N % 61);
      engine::Backend B = E.getVariant(Desc, {}, engine::Backend::NativeCpu)
                              ? engine::Backend::NativeCpu
                              : engine::Backend::Simulator;
      reduceHostVector(E, Desc, Host, Want, B, Sweep, T, R);
      if (On)
        CheckBytes += static_cast<double>(N * sizeof(float));
    }
    T.setEnabled(false);
  }

  // Every sweep times the same configurations (an exact count).
  const double ConfigsPerSweep =
      ratio(Configs, static_cast<double>(SweepSeconds.size()));
  R.metric("setup_s", median(SetupSeconds), "s");
  R.metric("jobs_per_s", ratio(ConfigsPerSweep, lowerQuartile(SweepSeconds)),
           "1/s");
  R.metric("cpu_ms_per_op", lowerQuartile(SweepCpu) * 1e3, "ms");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("latency_p50_ms", median(SweepSeconds) * 1e3, "ms");
  R.metric("jobs_per_s.mean", ratio(Configs, sum(SweepSeconds)), "1/s");
  R.metric("cpu_ms_per_op.median", median(SweepCpu) * 1e3, "ms");
  R.metric("setup_cpu_s", median(SetupCpu), "s");
  R.metric("tune_s", median(SweepSeconds), "s");
  R.metric("sweeps", static_cast<double>(SweepSeconds.size()), "count");
  R.ExactCounts["engine.variants_compiled"] = Compiled.value_or(0);
  for (const auto &[N, Us] : Modeled)
    R.ExactCounts[modeledName(N)] = Us;

  if (!A.Trace)
    return R;

  // Layer split: the sweeps' find_best spans, and the winner checks' call
  // spans (sizes 1K..16M, so ratios are taken over totals).
  std::vector<double> FindBest = T.durations("engine.find_best"),
                      Compile = T.durations("engine.compile"),
                      Create = T.durations("tangram.create"),
                      Upload = T.durations("gpusim.upload"),
                      Run = T.durations("engine.run"),
                      Exec = T.durations("native.exec"),
                      Overhead = T.selfTimes("engine.run");
  R.metric("tangram.create_ms", median(Create) * 1e3, "ms");
  R.metric("engine.compile_ms", median(CompileSeconds) * 1e3, "ms");
  R.metric("engine.variants_compiled",
           static_cast<double>(Cache.VariantsCompiled), "count");
  R.metric("engine.cache_hits", static_cast<double>(Cache.Hits), "count");
  R.metric("engine.cache_misses", static_cast<double>(Cache.Misses), "count");
  R.metric("engine.cache_evictions", static_cast<double>(Cache.Evictions),
           "count");
  R.metric("engine.cache_hit_ratio",
           ratio(static_cast<double>(Cache.Hits),
                 static_cast<double>(Cache.Hits + Cache.Misses)),
           "frac");
  R.metric("gpusim.sim_frac",
           ratio(sum(FindBest) - sum(Compile), sum(FindBest)), "frac");
  for (const auto &[N, Us] : Modeled)
    R.metric(modeledName(N), Us, "model_us");
  R.metric("gpusim.upload_gbps", ratio(CheckBytes, sum(Upload)) / 1e9,
           "GB/s");
  R.metric("native.exec_ms_p50", median(Exec) * 1e3, "ms");
  R.metric("native.exec_gbps", ratio(CheckBytes, sum(Exec)) / 1e9, "GB/s");
  R.metric("native.overhead_frac", ratio(sum(Overhead), sum(Run)), "frac");
  R.metric("trace.overhead_frac",
           ratio(median(SweepByTrace[1]), median(SweepByTrace[0])) - 1,
           "frac");

  R.metric("gpusim.sim_s",
           (sum(FindBest) - sum(Compile)) / std::max<size_t>(
                                                1, SweepByTrace[1].size()),
           "s");
  for (const pm::PassTiming &P : TR->getInstrumentation().getTimings())
    R.metric("pm." + P.Name + "_ms", P.Seconds * 1e3, "ms");
  return R;
}

} // namespace perfbench
