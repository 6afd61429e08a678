//===- bench_native_reduce.cpp - Native CPU backend throughput ----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Measures the native CPU backend (src/native) against the SIMT
// interpreter on the canonical float sum: both execute the *same*
// synthesized kernel bytecode over the same virtual input, so the ratio
// isolates the execution-engine cost — bytecode dispatch per lane vs
// plane-vectorized host loops. Host wall-clock on both sides (the
// simulator's modeled GPU seconds are a different clock entirely and are
// not reported here). Emits BENCH_native_reduce.json with per-size wall
// times, MLIPS (million lane-instructions per second), and the
// native-over-interpreter speedup.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "tangram/Tangram.h"

#include <chrono>
#include <cstdio>

using namespace tangram;
using namespace tangram::sim;
using namespace tangram::synth;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed Functional reduction on \p B; fills \p WallSeconds with the
/// host wall-clock around the engine call.
support::Expected<engine::ReduceResult>
timedReduce(engine::ExecutionEngine &E, const VariantDescriptor &V,
            BufferId In, size_t N, engine::Backend B, double &WallSeconds) {
  double T0 = now();
  auto Out = E.run(engine::ReduceRequest{
      .Desc = V, .In = In, .N = N, .BackendKind = B});
  WallSeconds = now() - T0;
  return Out;
}

} // namespace

int main() {
  auto Compiled = TangramReduction::create();
  if (!Compiled) {
    std::fprintf(stderr, "%s\n", Compiled.status().toString().c_str());
    return 1;
  }
  TangramReduction &TR = **Compiled;
  const ArchDesc &Arch = getPascalP100();
  engine::ExecutionEngine &E = TR.engineFor(Arch);

  // Version (b): strided block distribution + shuffle-tree combine — the
  // coarsened data-parallel shape the tuner favors at large N. Each lane
  // runs a 64-element load/accumulate loop (vectorizable in the native
  // engine, per-lane in the interpreter) and the combine exercises the
  // lowering's shuffle-permute path; the second-stage launch covers the
  // recursive variant chain.
  VariantDescriptor V = *findByFigure6Label(TR.getSearchSpace(), "b");
  V.BlockSize = 256;
  V.Coarsen = 64;

  std::printf("=== Native CPU backend vs SIMT interpreter (float sum) ===\n");
  std::printf("host: %s, %u threads; arch model: %s; variant: %s\n\n",
              native::getHostSimdIsa(),
              std::thread::hardware_concurrency(), Arch.Name.c_str(),
              V.getName().c_str());
  std::printf("%-11s %14s %14s %10s %10s %9s\n", "N", "interp ms",
              "native ms", "i-MLIPS", "n-MLIPS", "speedup");

  std::vector<bench::BenchRecord> Records;
  bool LargeFloatSumFast = false;
  for (size_t N = 1024; N <= (size_t{1} << 26); N *= 4) {
    size_t Mark = E.deviceMark();
    VirtualPattern Pattern;
    BufferId In = E.getDevice().allocVirtual(ir::ScalarType::F32, N, Pattern);

    double InterpWall = 0, NativeWall = 0;
    auto Interp =
        timedReduce(E, V, In, N, engine::Backend::Simulator, InterpWall);
    // First native run pays lowering and builds the virtual input's typed
    // plane; report the steady-state second run.
    auto Native =
        timedReduce(E, V, In, N, engine::Backend::NativeCpu, NativeWall);
    if (Native)
      Native = timedReduce(E, V, In, N, engine::Backend::NativeCpu,
                           NativeWall);
    E.deviceRelease(Mark);
    if (!Interp || !Native) {
      const support::Status &Why =
          !Interp ? Interp.status() : Native.status();
      std::fprintf(stderr, "%s\n", Why.toString().c_str());
      return 1;
    }

    // Both engines must agree with the analytic reference — this bench
    // doubles as a large-N smoke test of the native lowering.
    double Want = Pattern.sumFirst(N);
    for (const auto *Out : {&*Interp, &*Native}) {
      double Got = Out->FloatValue;
      double Tol = std::abs(Want) * 1e-5 + 1e-6;
      if (std::abs(Got - Want) > Tol) {
        std::fprintf(stderr,
                     "wrong sum at N=%zu: got %.9g, want %.9g\n", N, Got,
                     Want);
        return 1;
      }
    }

    double LaneInstrs =
        static_cast<double>(Interp->Launch.Stats.LaneInstructions);
    double InterpMlips = LaneInstrs / InterpWall / 1e6;
    double NativeMlips = LaneInstrs / NativeWall / 1e6;
    double Speedup = InterpWall / NativeWall;
    std::printf("%-11zu %14.3f %14.3f %10.1f %10.1f %8.1fx\n", N,
                InterpWall * 1e3, NativeWall * 1e3, InterpMlips,
                NativeMlips, Speedup);
    Records.push_back({Arch.Name, "interpreter", N, InterpWall});
    Records.push_back({Arch.Name, "native", N, NativeWall});
    if (N >= (size_t{1} << 20) && Speedup >= 10.0)
      LargeFloatSumFast = true;
  }

  bench::BenchMeta Meta;
  Meta.Backend = "native";
  bench::writeBenchJson("native_reduce", Records, nullptr, Meta);

  std::printf("\nseconds are host wall-clock around the engine call — the "
              "same kernel bytecode\nexecuted by the per-lane interpreter "
              "vs the plane-vectorized native engine.\nMLIPS = million "
              "lane-instructions per second (instruction count from the\n"
              "interpreter's launch statistics).\n");
  if (!LargeFloatSumFast) {
    std::fprintf(stderr, "expected >=10x native speedup on a large-N "
                         "float sum; not observed\n");
    return 1;
  }
  return 0;
}
