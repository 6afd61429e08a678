//===- Harness.h - Shared pieces of the repository benchmark ----*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line arguments, the metric report every workload fills, seeded
/// input generation, and small statistics helpers. Each workload is a
/// function from Args to Report; main.cpp prints the report.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_PERFBENCH_HARNESS_H
#define TANGRAM_PERFBENCH_HARNESS_H

#include "Trace.h"

#include "engine/ExecutionEngine.h"
#include "support/SplitMix64.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <time.h>

namespace perfbench {

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  /// Length of the timed phase.
  double Seconds = 10;
  /// Traced run: record spans and derive the per-layer metrics.
  bool Trace = false;
  /// Where the Chrome trace and the exact-count record are written.
  std::string OutDir = ".";
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one workload measured: every metric it could take, by name with
/// its unit. perfbench/run.py keeps the ones BENCHMARK.json lists for the
/// run's mode; the rest are printed for the reader.
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  /// Counts that must repeat exactly across runs of the same code: main
  /// compares them with the record earlier runs left in OutDir.
  std::map<std::string, double> ExactCounts;

  void fail(const std::string &Why) {
    ++Failed;
    if (Failed <= 20)
      std::fprintf(stderr, "perfbench: FAILED: %s\n", Why.c_str());
  }
  void metric(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
};

inline double cpuClock(clockid_t Clock) {
  timespec T{};
  clock_gettime(Clock, &T);
  return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_nsec) * 1e-9;
}
/// CPU seconds run by every thread of this process. Unlike wall time, it
/// leaves out time the hypervisor steals from this virtual machine.
inline double processCpu() { return cpuClock(CLOCK_PROCESS_CPUTIME_ID); }
/// CPU seconds run by the calling thread.
inline double threadCpu() { return cpuClock(CLOCK_THREAD_CPUTIME_ID); }

/// Nearest-rank percentile (\p Q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t I = static_cast<size_t>(Q * static_cast<double>(V.size() - 1) + 0.5);
  return V[std::min(I, V.size() - 1)];
}
inline double median(const std::vector<double> &V) {
  return percentile(V, 0.5);
}
/// The gated end-to-end timings are the lower quartile of many short
/// samples spread over the run. On a shared virtual machine the host's
/// speed varies in bursts of seconds (a fixed ALU loop's CPU time moved 2.7x
/// within seconds on the reference host); the median of a run follows how
/// many bursts hit it, the lower quartile follows the code. Medians are
/// printed beside them.
inline double lowerQuartile(const std::vector<double> &V) {
  return percentile(V, 0.25);
}

inline double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }
inline double sum(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return S;
}

/// Set-up is repeated and its median reported: at least MinSetups times,
/// then while under a second in total, up to MaxSetups.
constexpr size_t MinSetups = 5, MaxSetups = 15;
inline bool moreSetups(const std::vector<double> &Done) {
  return Done.size() < MinSetups ||
         (Done.size() < MaxSetups && sum(Done) < 1.0);
}

/// getrusage's high-water resident set of this process.
inline double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

/// Deterministic random stream: one value per (seed, stream, ordinal).
/// Workloads draw every input from here, so a seed fixes the inputs.
inline uint64_t draw(uint64_t Seed, uint64_t Stream, uint64_t Ordinal) {
  return tangram::support::splitmix64Schedule(
      Seed * 0x100000001b3ull + Stream, Ordinal);
}
/// Uniform in [0, 1) with 24 significant bits: exactly a float.
inline float unitFloat(uint64_t R) {
  return static_cast<float>(R >> 40) * (1.0f / 16777216.0f);
}

/// The float tolerance ExecutionEngine's functional validation applies.
inline bool floatClose(double Got, double Want) {
  return std::abs(Got - Want) <= std::abs(Want) * 1e-4 + 1e-6;
}

/// Fills \p Host from (seed, stream) and returns its double-precision sum.
inline double fillInput(std::vector<float> &Host, uint64_t Seed,
                        uint64_t Stream) {
  double Sum = 0;
  for (size_t I = 0; I != Host.size(); ++I) {
    Host[I] = unitFloat(draw(Seed, Stream, I));
    Sum += Host[I];
  }
  return Sum;
}

struct CallOutcome {
  bool Ok = false;
  double Seconds = 0;
  double CpuSeconds = 0;
  uint64_t LaneInstructions = 0;
};

/// One host vector -> result call on \p E, the path a caller takes:
/// Device alloc + writeFloats, getVariant, ExecutionEngine::run,
/// deviceRelease. Records a "call" span for request \p Req with one child
/// per layer call, and checks the result against \p Want.
CallOutcome reduceHostVector(tangram::engine::ExecutionEngine &E,
                             const tangram::synth::VariantDescriptor &V,
                             const std::vector<float> &Host, double Want,
                             tangram::engine::Backend B, uint64_t Req,
                             Tracer &T, Report &R);

Report runReduceLarge(const Args &A, Tracer &T);
Report runServeMixed(const Args &A, Tracer &T);
Report runTuneSim(const Args &A, Tracer &T);

} // namespace perfbench

#endif // TANGRAM_PERFBENCH_HARNESS_H
