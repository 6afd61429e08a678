//===- Trace.h - In-memory spans around layer calls -------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's span recorder. A span holds a name, start, end, parent
/// span and request id; spans stay in memory and are written out once, at
/// the end of a traced run, as Chrome trace-event JSON (nestable async
/// events keyed by request id, so concurrent serving jobs do not collide).
/// Spans are recorded only in the benchmark's own code, around the public
/// calls into each layer. A *derived* span carries a duration the program
/// reported itself (for example ReduceResult::Seconds) rather than one
/// timed here; it is placed at the end of its parent.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_PERFBENCH_TRACE_H
#define TANGRAM_PERFBENCH_TRACE_H

#include "engine/Request.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline double now() { return tangram::engine::steadySeconds(); }

struct Span {
  const char *Name = "";
  double Start = 0;
  double End = 0;
  int Parent = -1;
  uint64_t Req = 0;
  bool Derived = false;
};

/// Thread-safe span sink. While disabled, every call is a no-op returning
/// span id -1, so untraced operations pay one branch per boundary.
class Tracer {
public:
  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// Opens a span now; close it with end().
  int begin(const char *Name, uint64_t Req, int Parent = -1) {
    if (!Enabled)
      return -1;
    double T = now();
    std::lock_guard<std::mutex> G(Mu);
    Spans.push_back({Name, T, T, Parent, Req, false});
    return static_cast<int>(Spans.size() - 1);
  }
  void end(int Id) {
    if (Id < 0)
      return;
    double T = now();
    std::lock_guard<std::mutex> G(Mu);
    Spans[static_cast<size_t>(Id)].End = T;
  }
  /// Records a finished span with explicit times (completion callbacks on
  /// other threads, derived spans).
  int add(const char *Name, double Start, double End, uint64_t Req,
          int Parent = -1, bool Derived = false) {
    if (!Enabled)
      return -1;
    std::lock_guard<std::mutex> G(Mu);
    Spans.push_back({Name, Start, End, Parent, Req, Derived});
    return static_cast<int>(Spans.size() - 1);
  }
  /// A derived child of \p Parent lasting \p Seconds, ending with it.
  void addDerived(const char *Name, int Parent, double Seconds) {
    if (Parent < 0)
      return;
    std::lock_guard<std::mutex> G(Mu);
    const Span P = Spans[static_cast<size_t>(Parent)];
    Spans.push_back({Name, P.End - Seconds, P.End, Parent, P.Req, true});
  }

  /// Closes the span when it goes out of scope.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, uint64_t Req, int Parent = -1)
        : T(T), Id(T.begin(Name, Req, Parent)) {}
    ~Scope() { T.end(Id); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &T;
    int Id;
  };

  /// Durations (seconds) of every span named \p Name whose request id is
  /// at least \p MinReq.
  std::vector<double> durations(const char *Name, uint64_t MinReq = 0) const {
    std::lock_guard<std::mutex> G(Mu);
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (S.Req >= MinReq && !std::strcmp(S.Name, Name))
        Out.push_back(S.End - S.Start);
    return Out;
  }

  /// Self times (seconds) of every span named \p Name: its duration minus
  /// the part its direct children cover.
  std::vector<double> selfTimes(const char *Name, uint64_t MinReq = 0) const {
    std::lock_guard<std::mutex> G(Mu);
    std::vector<double> Child(Spans.size(), 0.0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Child[static_cast<size_t>(S.Parent)] += S.End - S.Start;
    std::vector<double> Out;
    for (size_t I = 0; I != Spans.size(); ++I)
      if (Spans[I].Req >= MinReq && !std::strcmp(Spans[I].Name, Name))
        Out.push_back(Spans[I].End - Spans[I].Start - Child[I]);
    return Out;
  }

  /// Writes every span as Chrome trace-event JSON (open it in
  /// chrome://tracing or ui.perfetto.dev). False when the file cannot be
  /// written.
  bool writeChromeTrace(const std::string &Path,
                        const std::string &Process) const {
    const char *Category = Process.c_str();
    std::lock_guard<std::mutex> G(Mu);
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    double Origin = Spans.empty() ? 0 : Spans.front().Start;
    for (const Span &S : Spans)
      Origin = std::min(Origin, S.Start);
    std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(F,
                 "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"args\": {\"name\": \"%s\"}}",
                 Process.c_str());
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      for (int Edge = 0; Edge != 2; ++Edge)
        std::fprintf(F,
                     ",\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"%s\", "
                     "\"id\": %llu, \"pid\": 1, \"tid\": 1, \"ts\": %.3f, "
                     "\"args\": {\"span\": %zu, \"parent\": %d, "
                     "\"derived\": %s}}",
                     S.Name, Category, Edge ? "e" : "b",
                     static_cast<unsigned long long>(S.Req),
                     ((Edge ? S.End : S.Start) - Origin) * 1e6, I, S.Parent,
                     S.Derived ? "true" : "false");
    }
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> G(Mu);
    return Spans.size();
  }

private:
  std::atomic<bool> Enabled{false};
  mutable std::mutex Mu;
  std::vector<Span> Spans;
};

} // namespace perfbench

#endif // TANGRAM_PERFBENCH_TRACE_H
