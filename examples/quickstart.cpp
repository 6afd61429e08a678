//===- quickstart.cpp - Five-minute tour of the library ---------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// Compiles the reduction spectrum, shows the search space, synthesizes the
// paper's version (p), runs it on the simulated Pascal P100, and prints
// the generated CUDA next to the timing report. Exits 1 when the result
// misses the host sum.
//
//===----------------------------------------------------------------------===//

#include "tangram/Tangram.h"

#include <cmath>
#include <cstdio>
#include <numeric>
#include <vector>

using namespace tangram;

int main() {
  auto Compiled = TangramReduction::create();
  if (!Compiled) {
    std::fprintf(stderr, "compilation failed:\n%s\n",
                 Compiled.status().toString().c_str());
    return 1;
  }
  TangramReduction &TR = **Compiled;

  const synth::SearchSpace &Space = TR.getSearchSpace();
  std::printf("reduction spectrum compiled: %zu codelets\n",
              TR.getUnit().Codelets.size());
  std::printf("search space: %zu versions, %zu after pruning\n\n",
              Space.All.size(), Space.Pruned.size());

  // The Fig. 6 version (p): direct cooperative codelet, per-warp shuffle
  // tree, shared-memory atomic combine, global atomic grid combine.
  const synth::VariantDescriptor *P = findByFigure6Label(Space, "p");
  if (!P)
    return 1;
  synth::VariantDescriptor Desc = *P;
  Desc.BlockSize = 256;

  // Reduce one million floats on the simulated Pascal P100. The engine
  // compiles (p) through its variant cache and launches it on its device.
  const size_t N = 1 << 20;
  std::vector<float> Data(N);
  for (size_t I = 0; I != N; ++I)
    Data[I] = static_cast<float>(I % 7) * 0.25f;
  double Expected = std::accumulate(Data.begin(), Data.end(), 0.0);

  engine::ExecutionEngine &E = TR.engineFor(sim::getPascalP100());
  sim::BufferId In = E.getDevice().alloc(ir::ScalarType::F32, N);
  E.getDevice().writeFloats(In, Data);
  auto Out = E.run(engine::ReduceRequest{.Desc = Desc, .In = In, .N = N});
  if (!Out) {
    std::fprintf(stderr, "run failed: %s\n",
                 Out.status().toString().c_str());
    return 1;
  }

  std::printf("version (p) \"%s\" on %s\n", Desc.getName().c_str(),
              sim::getPascalP100().Name.c_str());
  std::printf("  result    %.1f (expected %.1f)\n", Out->FloatValue,
              Expected);
  std::printf("  modeled   %.1f us (%s-bound)\n", Out->Seconds * 1e6,
              Out->Timing.Dominant == sim::KernelTiming::Bound::Memory
                  ? "memory"
                  : Out->Timing.Dominant == sim::KernelTiming::Bound::Atomic
                        ? "atomic"
                        : "compute");
  std::printf("  occupancy %.0f%% (%u blocks/SM)\n\n",
              Out->Timing.Occ.Fraction * 100, Out->Timing.Occ.BlocksPerSM);

  auto Cuda = TR.emitCudaFor(Desc);
  std::printf("generated CUDA:\n%s\n", Cuda ? Cuda->c_str() : "");
  // The float-sum tolerance of ExecutionEngine::validateVariant.
  const double Tol = std::abs(Expected) * 1e-4 + 1e-6;
  return std::abs(Out->FloatValue - Expected) <= Tol ? 0 : 1;
}
