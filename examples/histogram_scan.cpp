//===- histogram_scan.cpp - The motivating applications ----------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The paper motivates parallel reduction as the building block of
// Histogram [12,13] and Scan [14]; this example runs both on the
// simulated GPUs, showing the same hardware story: privatized
// shared-memory atomics for histogram bins, Kogge-Stone warp shuffles for
// scan. Exits 1 when any result differs from the host reference.
//
//===----------------------------------------------------------------------===//

#include "apps/Histogram.h"
#include "apps/Scan.h"

#include <cstdio>
#include <random>

using namespace tangram;
using namespace tangram::apps;

int main() {
  std::mt19937 Rng(2019);

  // --- Histogram ----------------------------------------------------------
  const unsigned NumBins = 64;
  const size_t N = 1 << 18;
  std::uniform_int_distribution<int> KeyDist(0, NumBins - 1);
  std::vector<int> Keys(N);
  for (int &K : Keys)
    K = KeyDist(Rng);

  std::printf("histogram: %zu keys into %u bins\n\n", N, NumBins);
  std::printf("%-22s %-20s %12s %10s\n", "architecture", "strategy",
              "modeled us", "correct");
  unsigned Count = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(Count);
  std::vector<long long> Expected = referenceHistogram(Keys, NumBins);
  bool AllCorrect = true;
  for (unsigned A = 0; A != Count; ++A) {
    engine::ExecutionEngine E(Archs[A]);
    for (HistogramStrategy S : {HistogramStrategy::GlobalAtomics,
                                HistogramStrategy::SharedPrivatized}) {
      Histogram App(NumBins, S);
      size_t Mark = E.deviceMark();
      sim::BufferId In = E.getDevice().alloc(ir::ScalarType::I32, N);
      E.getDevice().writeInts(In, Keys);
      HistogramResult R = App.run(E, In, N);
      E.deviceRelease(Mark);
      if (!R.Ok) {
        std::fprintf(stderr, "%s\n", R.Error.c_str());
        return 1;
      }
      AllCorrect &= R.Bins == Expected;
      std::printf("%-22s %-20s %12.2f %10s\n", Archs[A].Name.c_str(),
                  getHistogramStrategyName(S), R.Seconds * 1e6,
                  R.Bins == Expected ? "yes" : "NO");
    }
  }

  // --- Scan ---------------------------------------------------------------
  const size_t ScanN = 100000;
  std::uniform_int_distribution<int> ValDist(-5, 5);
  std::vector<int> Data(ScanN);
  for (int &V : Data)
    V = ValDist(Rng);
  std::vector<long long> ScanRef = referenceInclusiveScan(Data);

  std::printf("\ninclusive scan: %zu elements (Kogge-Stone)\n\n", ScanN);
  std::printf("%-22s %-22s %12s %9s %10s\n", "architecture", "strategy",
              "modeled us", "launches", "correct");
  for (unsigned A = 0; A != Count; ++A) {
    engine::ExecutionEngine E(Archs[A]);
    for (ScanStrategy S : {ScanStrategy::SharedKoggeStone,
                           ScanStrategy::ShuffleKoggeStone}) {
      Scan App(S);
      size_t Mark = E.deviceMark();
      sim::BufferId In = E.getDevice().alloc(ir::ScalarType::I32, ScanN);
      sim::BufferId Out = E.getDevice().alloc(ir::ScalarType::I32, ScanN);
      E.getDevice().writeInts(In, Data);
      ScanResult R = App.run(E, In, Out, ScanN);
      if (!R.Ok) {
        std::fprintf(stderr, "%s\n", R.Error.c_str());
        return 1;
      }
      bool Correct = true;
      for (size_t I = 0; I != ScanN && Correct; ++I)
        Correct = E.getDevice().readInt(Out, I) == ScanRef[I];
      AllCorrect &= Correct;
      std::printf("%-22s %-22s %12.2f %9u %10s\n", Archs[A].Name.c_str(),
                  getScanStrategyName(S), R.Seconds * 1e6,
                  R.KernelLaunches, Correct ? "yes" : "NO");
      E.deviceRelease(Mark);
    }
  }
  return AllCorrect ? 0 : 1;
}
