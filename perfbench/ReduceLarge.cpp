//===- ReduceLarge.cpp - Host array -> result, 16M floats -----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// One closed-loop caller reduces a fresh seeded 16M-element f32 vector per
// call on the native backend, through the path a user takes: Device upload,
// variant resolve (a cache hit), ExecutionEngine::run, device release. The
// time goes to gpusim upload and native mirror/exec; nothing is served or
// compiled inside the timed loop.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "tangram/Tangram.h"

using namespace tangram;

namespace perfbench {
namespace {

constexpr size_t N = size_t{1} << 24;
constexpr size_t WarmupN = size_t{1} << 16;
constexpr unsigned MinCalls = 3;

/// The fixed bench_native_reduce descriptor: version (b), block 256,
/// coarsen 64.
synth::VariantDescriptor largeDescriptor(const TangramReduction &TR) {
  synth::VariantDescriptor V =
      *synth::findByFigure6Label(TR.getSearchSpace(), "b");
  V.BlockSize = 256;
  V.Coarsen = 64;
  return V;
}

} // namespace

CallOutcome reduceHostVector(engine::ExecutionEngine &E,
                             const synth::VariantDescriptor &V,
                             const std::vector<float> &Host, double Want,
                             engine::Backend B, uint64_t Req, Tracer &T,
                             Report &R) {
  CallOutcome C;
  const double Start = now(), CpuStart = processCpu();
  int Call = T.begin("call", Req);
  size_t Mark = E.deviceMark();
  sim::BufferId In;
  {
    Tracer::Scope S(T, "gpusim.upload", Req, Call);
    In = E.getDevice().alloc(ir::ScalarType::F32, Host.size());
    E.getDevice().writeFloats(In, Host);
  }
  support::Expected<engine::ReduceResult> Out =
      support::Status(support::StatusCode::InternalError, "not run");
  {
    int Resolve = T.begin("engine.resolve", Req, Call);
    auto Variant = E.getVariant(V, {}, B);
    T.end(Resolve);
    if (Variant) {
      int Run = T.begin("engine.run", Req, Call);
      Out = E.run(engine::ReduceRequest{.Desc = V,
                                        .In = In,
                                        .N = Host.size(),
                                        .BackendKind = B},
                  **Variant);
      T.end(Run);
      // Seconds is host wall-clock on native, modeled time on the simulator.
      if (Out && B == engine::Backend::NativeCpu)
        T.addDerived("native.exec", Run, Out->Seconds);
    } else {
      Out = Variant.status();
    }
  }
  {
    Tracer::Scope S(T, "engine.release", Req, Call);
    E.deviceRelease(Mark);
  }
  T.end(Call);
  C.Seconds = now() - Start;
  C.CpuSeconds = processCpu() - CpuStart;
  if (!Out) {
    R.fail(V.getName() + " call " + std::to_string(Req) + ": " +
           Out.status().toString());
    return C;
  }
  if (!floatClose(Out->FloatValue, Want)) {
    R.fail(V.getName() + " call " + std::to_string(Req) + ": got " +
           std::to_string(Out->FloatValue) + ", want " + std::to_string(Want));
    return C;
  }
  C.Ok = true;
  C.LaneInstructions = Out->Launch.Stats.LaneInstructions;
  return C;
}

Report runReduceLarge(const Args &A, Tracer &T) {
  Report R;
  const sim::ArchDesc &Arch = sim::getPascalP100();

  // Set-up, repeated: facade create, engine, cold resolve (compile), and a
  // 64K-element warm-up call. The last facade is the one measured.
  std::vector<double> SetupSeconds, SetupCpu, CreateSeconds;
  std::unique_ptr<TangramReduction> TR;
  std::vector<float> Host(WarmupN);
  double WarmWant = fillInput(Host, A.Seed, 0);
  while (moreSetups(SetupSeconds)) {
    TR.reset();
    const double Start = now(), CpuStart = processCpu();
    auto Created = [&] {
      Tracer::Scope S(T, "tangram.create", 0);
      return TangramReduction::create();
    }();
    CreateSeconds.push_back(now() - Start);
    if (!Created) {
      R.fail("facade create: " + Created.status().toString());
      return R;
    }
    TR = std::move(*Created);
    engine::ExecutionEngine &E = TR->engineFor(Arch);
    ++R.Attempted;
    if (!reduceHostVector(E, largeDescriptor(*TR), Host, WarmWant,
                          engine::Backend::NativeCpu, 0, T, R)
             .Ok)
      return R;
    SetupSeconds.push_back(now() - Start);
    SetupCpu.push_back(processCpu() - CpuStart);
  }
  engine::ExecutionEngine &E = TR->engineFor(Arch);
  const synth::VariantDescriptor V = largeDescriptor(*TR);

  // Timed phase. In a traced run every other call is traced, so the
  // difference between the two halves is the tracing overhead.
  Host.assign(N, 0.0f);
  std::vector<double> Untraced, Traced, Cpu;
  uint64_t LaneInstructions = 0;
  const double Deadline = now() + A.Seconds;
  for (uint64_t Call = 1; now() < Deadline || Call <= MinCalls; ++Call) {
    double Want = fillInput(Host, A.Seed, Call);
    const bool On = A.Trace && Call % 2 == 1;
    T.setEnabled(On);
    ++R.Attempted;
    CallOutcome C = reduceHostVector(E, V, Host, Want,
                                     engine::Backend::NativeCpu, Call, T, R);
    T.setEnabled(false);
    if (!C.Ok)
      continue;
    (On ? Traced : Untraced).push_back(C.Seconds);
    Cpu.push_back(C.CpuSeconds);
    if (LaneInstructions && C.LaneInstructions != LaneInstructions)
      R.fail("native.lane_instructions drifted between calls");
    LaneInstructions = C.LaneInstructions;
  }

  std::vector<double> All = Untraced;
  All.insert(All.end(), Traced.begin(), Traced.end());
  const double CallP50 = median(All);
  const double Bytes = static_cast<double>(N * sizeof(float));

  R.metric("setup_s", median(SetupSeconds), "s");
  R.metric("jobs_per_s", ratio(1, lowerQuartile(All)), "1/s");
  R.metric("cpu_ms_per_op", lowerQuartile(Cpu) * 1e3, "ms");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("latency_p50_ms", CallP50 * 1e3, "ms");
  R.metric("jobs_per_s.mean", ratio(static_cast<double>(All.size()), sum(All)),
           "1/s");
  R.metric("cpu_ms_per_op.median", median(Cpu) * 1e3, "ms");
  R.metric("setup_cpu_s", median(SetupCpu), "s");
  R.metric("reduce_gbps", ratio(Bytes, CallP50) / 1e9, "GB/s");
  R.metric("calls", static_cast<double>(All.size()), "count");
  R.metric("elements_per_call", static_cast<double>(N), "count");
  R.ExactCounts["native.lane_instructions"] =
      static_cast<double>(LaneInstructions);

  if (!A.Trace)
    return R;

  // Layer split over the traced timed-phase calls (set-up is request 0).
  std::vector<double> Calls = T.durations("call", 1),
                      Upload = T.durations("gpusim.upload", 1),
                      Resolve = T.durations("engine.resolve", 1),
                      Run = T.durations("engine.run", 1),
                      Release = T.durations("engine.release", 1),
                      Exec = T.durations("native.exec", 1),
                      Overhead = T.selfTimes("engine.run", 1);
  engine::CacheStats Cache = E.getCacheStats();

  R.metric("tangram.create_ms", median(CreateSeconds) * 1e3, "ms");
  R.metric("engine.compile_ms", Cache.CompileSeconds * 1e3, "ms");
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
  R.metric("gpusim.upload_gbps", ratio(Bytes, median(Upload)) / 1e9, "GB/s");
  R.metric("native.exec_ms_p50", median(Exec) * 1e3, "ms");
  R.metric("native.exec_gbps", ratio(Bytes, median(Exec)) / 1e9, "GB/s");
  R.metric("native.overhead_frac", ratio(sum(Overhead), sum(Run)), "frac");
  R.metric("native.lane_instructions", static_cast<double>(LaneInstructions),
           "count");
  R.metric("trace.overhead_frac",
           ratio(median(Traced), median(Untraced)) - 1, "frac");

  R.metric("gpusim.upload_ms_p50", median(Upload) * 1e3, "ms");
  R.metric("engine.resolve_us_p50", median(Resolve) * 1e6, "us");
  R.metric("engine.run_ms_p50", median(Run) * 1e3, "ms");
  R.metric("engine.release_ms_p50", median(Release) * 1e3, "ms");
  R.metric("native.overhead_ms_p50", median(Overhead) * 1e3, "ms");
  // Acceptance check on the trace itself: the four layer spans must cover
  // the call they sit in.
  R.metric("trace.span_coverage_frac",
           ratio(sum(Upload) + sum(Resolve) + sum(Run) + sum(Release),
                 sum(Calls)),
           "frac");
  for (const pm::PassTiming &P : TR->getInstrumentation().getTimings())
    R.metric("pm." + P.Name + "_ms", P.Seconds * 1e3, "ms");
  return R;
}

} // namespace perfbench
