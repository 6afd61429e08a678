//===- main.cpp - The repository benchmark --------------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// Runs one workload, prints every metric it measured as a line, and ends
// with one JSON line holding them all with the correctness counts.
// perfbench/run.py builds this program and keeps, from that last line, the
// metrics BENCHMARK.json lists for the run's mode. A traced run also
// measures the host's read bandwidth, writes the spans as a Chrome trace,
// and derives the native roofline fraction. Exits 1 on any wrong output or
// drifted exact count.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "support/ThreadPool.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <sstream>

#include <unistd.h>

using namespace perfbench;

namespace {

/// Multi-threaded read bandwidth over an array at least 4x the last-level
/// cache, with the engine pool's default thread count (one per core).
/// Integer data, so the summing loop vectorizes and memory is the limit.
void measureStream(Report &R) {
  long L3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  const size_t L3Bytes = L3 > 0 ? static_cast<size_t>(L3) : size_t{64} << 20;
  const size_t Bytes = std::max(4 * L3Bytes, size_t{256} << 20);
  const size_t Count = Bytes / sizeof(uint32_t);
  tangram::support::ThreadPool Pool(0);
  const size_t Chunks = size_t{Pool.getThreadCount()} * 8;
  const size_t Per = (Count + Chunks - 1) / Chunks;
  std::unique_ptr<uint32_t[]> Data(new uint32_t[Count]);
  std::vector<uint64_t> Partial(Chunks);
  Pool.parallelFor(Chunks, [&](size_t C) {
    for (size_t I = C * Per, E = std::min(Count, I + Per); I < E; ++I)
      Data[I] = 1;
  });
  std::vector<double> Gbps;
  for (int Pass = 0; Pass != 7; ++Pass) {
    double Start = now();
    Pool.parallelFor(Chunks, [&](size_t C) {
      uint64_t S = 0;
      for (size_t I = C * Per, E = std::min(Count, I + Per); I < E; ++I)
        S += Data[I];
      Partial[C] = S;
    });
    double Seconds = now() - Start;
    if (std::accumulate(Partial.begin(), Partial.end(), uint64_t{0}) != Count)
      R.fail("stream: wrong sum");
    Gbps.push_back(static_cast<double>(Bytes) / Seconds / 1e9);
  }
  R.metric("host.stream_gbps", median(Gbps), "GB/s");
  R.metric("host.l3_mib", static_cast<double>(L3Bytes >> 20), "MiB");
  R.metric("host.stream_array_mib", static_cast<double>(Bytes >> 20), "MiB");
  R.metric("host.stream_threads", Pool.getThreadCount(), "count");
}

const Metric *find(const Report &R, const std::string &Name) {
  for (const Metric &M : R.Metrics)
    if (M.Name == Name)
      return &M;
  return nullptr;
}

/// Compares the exact counts with those earlier runs recorded in \p Path
/// (one "workload name value" line each), fails on drift, and adds new
/// ones to the record.
void guardExactCounts(Report &R, const std::string &Workload,
                      const std::string &Path) {
  std::map<std::string, double> Known;
  std::vector<std::string> Lines;
  {
    std::ifstream In(Path);
    std::string Line;
    while (std::getline(In, Line)) {
      std::istringstream S(Line);
      std::string W, Name;
      double Value;
      if (!(S >> W >> Name >> Value))
        continue;
      Lines.push_back(Line);
      if (W == Workload)
        Known[Name] = Value;
    }
  }
  bool Grew = false;
  for (const auto &[Name, Value] : R.ExactCounts) {
    auto It = Known.find(Name);
    if (It == Known.end()) {
      char Buf[512];
      std::snprintf(Buf, sizeof(Buf), "%s %s %.17g", Workload.c_str(),
                    Name.c_str(), Value);
      Lines.push_back(Buf);
      Grew = true;
    } else if (It->second != Value) {
      R.fail("exact count " + Name + " drifted: " + std::to_string(Value) +
             ", earlier runs " + std::to_string(It->second));
    }
  }
  if (!Grew || R.Failed)
    return;
  std::ofstream Out(Path);
  for (const std::string &L : Lines)
    Out << L << "\n";
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "reduce_large|serve_mixed|tune_sim --seed N --seconds S "
               "--trace 0|1 [--out-dir DIR]\n",
               Why);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    if (I + 1 >= Argc)
      usage("missing value");
    std::string Key = Argv[I], Value = Argv[++I];
    char *End = nullptr;
    if (Key == "--workload")
      A.Workload = Value;
    else if (Key == "--seed")
      A.Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Key == "--seconds")
      A.Seconds = std::strtod(Value.c_str(), &End);
    else if (Key == "--trace")
      A.Trace = Value == "1";
    else if (Key == "--out-dir")
      A.OutDir = Value;
    else
      usage(("unknown option " + Key).c_str());
    if (End && *End)
      usage(("bad number for " + Key).c_str());
  }
  if (!(A.Seconds > 0 && A.Seconds <= 120))
    usage("--seconds must be in (0, 120]");

  Report (*Run)(const Args &, Tracer &) = nullptr;
  if (A.Workload == "reduce_large")
    Run = runReduceLarge;
  else if (A.Workload == "serve_mixed")
    Run = runServeMixed;
  else if (A.Workload == "tune_sim")
    Run = runTuneSim;
  else
    usage("unknown workload");

  std::filesystem::create_directories(A.OutDir);
  Tracer T;
  T.setEnabled(A.Trace);
  Report R = Run(A, T);
  T.setEnabled(false);

  if (A.Trace) {
    measureStream(R);
    const Metric *Exec = find(R, "native.exec_gbps");
    const Metric *Stream = find(R, "host.stream_gbps");
    R.metric("native.roofline_frac",
             Exec && Stream ? ratio(Exec->Value, Stream->Value) : 0, "frac");
    std::string Path = A.OutDir + "/trace-" + A.Workload + "-seed" +
                       std::to_string(A.Seed) + ".json";
    if (T.writeChromeTrace(Path, A.Workload))
      std::printf("wrote %zu spans to %s\n", T.size(), Path.c_str());
    else
      R.fail("could not write " + Path);
  }
  guardExactCounts(R, A.Workload, A.OutDir + "/exact-counts.txt");

  for (const Metric &M : R.Metrics)
    std::printf("%-36s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              R.Failed ? "false" : "true",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  for (size_t I = 0; I != R.Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", R.Metrics[I].Name.c_str(), R.Metrics[I].Value,
                R.Metrics[I].Unit.c_str());
  std::printf("}}\n");
  return R.Failed ? 1 : 0;
}
