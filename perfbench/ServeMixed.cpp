//===- ServeMixed.cpp - Mixed f32 Add / i64 ArgMax serving ----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// A ReductionService on the native backend with default options (one
// Pascal shard, 256-element batch tile, coalescing on) serves a seeded
// stream of small jobs: sizes log-uniform in [16, 8192), 80% f32 Add and 20%
// i64 ArgMax. Two phases share the timed budget: a closed loop with a
// window of 64 jobs from one thread (jobs_per_s, cpu_ms_per_op), then an
// open loop at a fixed 2000 jobs/s whose latency is timed from each job's
// due time. Jobs up to one tile coalesce and larger ones go direct, so both
// paths run; the time goes to admission, batching and per-launch fixed
// costs.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "serve/ReductionService.h"
#include "tangram/Tangram.h"

#include <condition_variable>
#include <mutex>
#include <thread>

using namespace tangram;

namespace perfbench {
namespace {

constexpr size_t MinJobN = 16;
constexpr unsigned SizeOctaves = 9; // 16 * 2^9 = 8192.
constexpr size_t Window = 64;
constexpr double OpenRate = 2000;
constexpr double ClosedShare = 0.7;
constexpr double SliceSeconds = 0.25;
/// ServiceOptions defaults: BatchBlockSize x BatchCoarsen.
constexpr size_t Tile = 256;

/// The host reference for one job.
struct Expect {
  ReduceOp Op = ReduceOp::Add;
  double WantF = 0;
  long long WantI = 0;
  long long WantIdx = 0;

  /// Empty when \p J is right: bit-exact value and index for ArgMax, the
  /// validation float tolerance for Add.
  std::string check(const serve::JobResult &J) const {
    if (Op == ReduceOp::ArgMax) {
      if (J.IntValue == WantI && J.IndexValue == WantIdx)
        return "";
      return "argmax got (" + std::to_string(J.IntValue) + ", " +
             std::to_string(J.IndexValue) + "), want (" +
             std::to_string(WantI) + ", " + std::to_string(WantIdx) + ")";
    }
    if (floatClose(J.FloatValue, WantF))
      return "";
    return "sum got " + std::to_string(J.FloatValue) + ", want " +
           std::to_string(WantF);
  }
};

struct Planned {
  serve::JobSpec Spec;
  Expect Want;
};

Planned makeJob(uint64_t Seed, uint64_t Id) {
  Planned P;
  double U = static_cast<double>(draw(Seed, 1, Id) >> 11) * 0x1p-53;
  size_t N = static_cast<size_t>(static_cast<double>(MinJobN) *
                                 std::exp2(U * SizeOctaves));
  const bool ArgMax = draw(Seed, 2, Id) % 5 == 0;
  const uint64_t Stream = 16 + Id;
  if (ArgMax) {
    P.Spec.Op = P.Want.Op = ReduceOp::ArgMax;
    P.Spec.Elem = ir::ScalarType::I64;
    P.Spec.IntData.resize(N);
    reduce::HostAccumulator Ref(ReduceOp::ArgMax, ir::ScalarType::I64);
    for (size_t I = 0; I != N; ++I) {
      // A narrow value range, so larger jobs hold ties and the
      // smallest-index rule is exercised.
      long long V = static_cast<long long>(draw(Seed, Stream, I) % 4096);
      P.Spec.IntData[I] = V;
      Ref.accumulate(static_cast<double>(V), V, static_cast<long long>(I));
    }
    P.Want.WantI = Ref.valueI();
    P.Want.WantIdx = Ref.index();
  } else {
    P.Spec.FloatData.resize(N);
    for (size_t I = 0; I != N; ++I) {
      P.Spec.FloatData[I] = unitFloat(draw(Seed, Stream, I));
      P.Want.WantF += P.Spec.FloatData[I];
    }
  }
  return P;
}

size_t payloadBytes(const serve::JobSpec &S) {
  return S.size() * (ir::isFloatType(S.Elem) ? sizeof(float) : 8);
}

/// What came back for one job.
struct Outcome {
  double Due = 0;         ///< When the job was due to be sent.
  double Done = 0;        ///< Completion callback ran.
  double Exec = 0;        ///< JobResult::Seconds.
  double Latency = 0;     ///< JobResult::LatencySeconds (from admission).
  double Bytes = 0;       ///< Payload bytes.
  bool Ok = false;
};

/// Submission and completion bookkeeping shared with the callbacks, which
/// run on the shard worker thread.
class Driver {
public:
  /// \p Capacity: the most jobs expected, reserved up front so the
  /// outcome record grows the resident set smoothly, not by doubling.
  Driver(serve::ReductionService &Svc, Tracer &T, Report &R,
         size_t Capacity = 0)
      : Svc(Svc), T(T), R(R) {
    Outcomes.reserve(Capacity);
  }

  /// Submits job \p Id, which was due at \p Due.
  void send(Planned P, uint64_t Id, double Due) {
    const bool Coalescable = P.Spec.size() <= Tile;
    const size_t Bytes = payloadBytes(P.Spec);
    size_t Slot;
    {
      std::lock_guard<std::mutex> G(Mu);
      Slot = Outcomes.size();
      Outcomes.push_back({});
      Outcomes[Slot].Due = Due;
      Outcomes[Slot].Bytes = static_cast<double>(Bytes);
      ++Outstanding;
    }
    ++R.Attempted;
    const double Start = now();
    int Span = T.begin("serve.submit", Id);
    support::Status S = Svc.submit(
        std::move(P.Spec), [this, Id, Slot, Want = P.Want,
                            Start](support::Expected<serve::JobResult> Out) {
          complete(Id, Slot, Start, Want, std::move(Out));
        });
    T.end(Span);
    std::lock_guard<std::mutex> G(Mu);
    if (!S.ok()) {
      R.fail("job " + std::to_string(Id) + " refused: " + S.toString());
      --Outstanding;
      return;
    }
    ++(Coalescable ? PredictedCoalesced : PredictedDirect);
  }

  /// Blocks until fewer than \p Limit jobs are outstanding; returns how
  /// many are.
  size_t waitBelow(size_t Limit) {
    std::unique_lock<std::mutex> L(Mu);
    Cv.wait(L, [&] { return Outstanding < Limit; });
    return Outstanding;
  }
  void drain() { waitBelow(1); }

  /// Outcomes of the jobs sent so far; read them after drain().
  const std::vector<Outcome> &outcomes() const { return Outcomes; }

  /// Admitted jobs by the path their size sends them down: up to one tile
  /// they coalesce, larger ones go direct.
  uint64_t PredictedCoalesced = 0, PredictedDirect = 0;

private:
  void complete(uint64_t Id, size_t Slot, double Start, const Expect &Want,
                support::Expected<serve::JobResult> Out) {
    const double Done = now();
    std::string Why = Out ? Want.check(*Out) : Out.status().toString();
    if (Out) {
      int Job = T.add("serve.job", Start, Done, Id);
      T.addDerived("native.exec", Job, Out->Seconds);
    }
    std::lock_guard<std::mutex> G(Mu);
    Outcome &O = Outcomes[Slot];
    O.Done = Done;
    if (Out) {
      O.Exec = Out->Seconds;
      O.Latency = Out->LatencySeconds;
    }
    O.Ok = Why.empty();
    if (!O.Ok)
      R.fail("job " + std::to_string(Id) + ": " + Why);
    --Outstanding;
    Cv.notify_all();
  }

  serve::ReductionService &Svc;
  Tracer &T;
  Report &R;
  std::mutex Mu;
  std::condition_variable Cv;
  size_t Outstanding = 0;
  std::vector<Outcome> Outcomes;
};

/// A fixed job for set-up: Add over ones, or ArgMax over I % 7.
Planned warmJob(ReduceOp Op, size_t N) {
  Planned P;
  P.Spec.Op = P.Want.Op = Op;
  if (Op == ReduceOp::ArgMax) {
    P.Spec.Elem = ir::ScalarType::I64;
    for (size_t I = 0; I != N; ++I)
      P.Spec.IntData.push_back(static_cast<long long>(I % 7));
    P.Want.WantI = 6;
    P.Want.WantIdx = 6;
  } else {
    P.Spec.FloatData.assign(N, 1.0);
    P.Want.WantF = static_cast<double>(N);
  }
  return P;
}

/// Constructs the service and serves one job per lane and path (coalesced
/// and direct), so workers, lanes and their variants are up.
std::unique_ptr<serve::ReductionService> startService(Tracer &T, Report &R) {
  serve::ServiceOptions SO;
  SO.BackendKind = engine::Backend::NativeCpu;
  auto Svc = std::make_unique<serve::ReductionService>(SO);
  Driver D(*Svc, T, R);
  for (ReduceOp Op : {ReduceOp::Add, ReduceOp::ArgMax})
    for (size_t N : {Tile / 2, Tile * 4})
      D.send(warmJob(Op, N), 0, now());
  D.drain();
  return Svc;
}

std::vector<double> field(const std::vector<Outcome> &Os, size_t First,
                          double (*Get)(const Outcome &)) {
  std::vector<double> Out;
  for (size_t I = First; I < Os.size(); ++I)
    if (Os[I].Ok)
      Out.push_back(Get(Os[I]));
  return Out;
}

} // namespace

Report runServeMixed(const Args &A, Tracer &T) {
  Report R;

  // The facade create each of the service's two lanes performs, timed from
  // outside the service (the lanes create theirs on their first job).
  if (A.Trace) {
    std::vector<double> Create;
    for (auto [Op, Elem] : {std::pair{ReduceOp::Add, ir::ScalarType::F32},
                            std::pair{ReduceOp::ArgMax, ir::ScalarType::I64}}) {
      TangramReduction::Options TO;
      TO.Op = Op;
      TO.Elem = Elem;
      Tracer::Scope S(T, "tangram.create", 0);
      double Start = now();
      if (!TangramReduction::create(TO))
        R.fail("facade create failed");
      Create.push_back(now() - Start);
    }
    R.metric("tangram.create_ms", median(Create) * 1e3, "ms");
  }

  std::vector<double> SetupSeconds, SetupCpu;
  std::unique_ptr<serve::ReductionService> Svc;
  while (moreSetups(SetupSeconds)) {
    Svc.reset();
    const double Start = now(), CpuStart = processCpu();
    Svc = startService(T, R);
    SetupSeconds.push_back(now() - Start);
    SetupCpu.push_back(processCpu() - CpuStart);
  }
  const serve::ServiceStats Base = Svc->getStats();
  const size_t OpenJobs = std::max<size_t>(
      1, static_cast<size_t>(A.Seconds * (1 - ClosedShare) * OpenRate));
  Driver D(*Svc, T, R,
           OpenJobs + static_cast<size_t>(A.Seconds * ClosedShare * 20000));
  uint64_t Id = 1;

  // Closed loop: up to Window jobs outstanding, refilled half a window at a
  // time, so the caller wakes once per Window/2 completions rather than per
  // job (each cross-thread wake-up is costly and erratic on a shared VM).
  // Short slices, drained at their ends, each give one throughput and
  // CPU-per-job sample. A traced run traces every other slice, to measure
  // tracing overhead.
  const int Slices =
      std::max(2, static_cast<int>(A.Seconds * ClosedShare / SliceSeconds));
  std::vector<double> SecondsPerJob[2], CpuPerJob;
  double ClosedJobs = 0, Busy = 0, Bytes = 0;
  for (int Slice = 0; Slice != Slices; ++Slice) {
    const bool On = A.Trace && Slice % 2 == 1;
    T.setEnabled(On);
    const size_t First = D.outcomes().size();
    const double Start = now(), CpuStart = processCpu();
    double GenCpu = 0;
    while (now() < Start + SliceSeconds) {
      for (size_t Out = D.waitBelow(Window / 2 + 1); Out != Window; ++Out) {
        // Generating a job and its reference is the benchmark's own work;
        // its CPU time is left out of the service's.
        const double GenStart = threadCpu();
        Planned P = makeJob(A.Seed, Id);
        GenCpu += threadCpu() - GenStart;
        D.send(std::move(P), Id++, now());
      }
    }
    D.drain();
    const double Seconds = now() - Start;
    const double Cpu = processCpu() - CpuStart - GenCpu;
    std::vector<double> Done = field(D.outcomes(), First,
                                     [](const Outcome &O) { return O.Bytes; });
    const double Jobs = static_cast<double>(Done.size());
    ClosedJobs += Jobs;
    SecondsPerJob[On].push_back(ratio(Seconds, Jobs));
    if (!On) {
      CpuPerJob.push_back(ratio(Cpu, Jobs));
      Busy += Seconds;
      Bytes += sum(Done);
    }
  }

  // Open loop: a fixed schedule, each job timed from when it was due.
  T.setEnabled(A.Trace);
  const size_t FirstOpen = D.outcomes().size();
  const uint64_t FirstOpenId = Id;
  std::vector<double> Late;
  Late.reserve(OpenJobs);
  const double T0 = now() + 0.01;
  for (size_t J = 0; J != OpenJobs; ++J) {
    Planned P = makeJob(A.Seed, Id);
    const double Due = T0 + static_cast<double>(J) / OpenRate;
    const double Wait = Due - now();
    if (Wait > 0)
      std::this_thread::sleep_for(std::chrono::duration<double>(Wait));
    Late.push_back(std::max(0.0, now() - Due));
    D.send(std::move(P), Id++, Due);
  }
  D.drain();
  T.setEnabled(false);
  const std::vector<Outcome> &Os = D.outcomes();
  std::vector<double> FromDue = field(
      Os, FirstOpen, [](const Outcome &O) { return O.Done - O.Due; });

  const serve::ServiceStats S = Svc->getStats();
  const uint64_t Coalesced = S.CoalescedJobs - Base.CoalescedJobs;
  const uint64_t Direct = S.DirectJobs - Base.DirectJobs;
  const uint64_t Batches = S.Batches - Base.Batches;
  // Exact-count guard: the path each job takes is fixed by its size.
  if (Coalesced != D.PredictedCoalesced || Direct != D.PredictedDirect)
    R.fail("serve paths drifted: coalesced " + std::to_string(Coalesced) +
           " (predicted " + std::to_string(D.PredictedCoalesced) +
           "), direct " + std::to_string(Direct) + " (predicted " +
           std::to_string(D.PredictedDirect) + ")");

  R.metric("setup_s", median(SetupSeconds), "s");
  R.metric("jobs_per_s", ratio(1, lowerQuartile(SecondsPerJob[0])), "1/s");
  R.metric("cpu_ms_per_op", lowerQuartile(CpuPerJob) * 1e3, "ms");
  R.metric("peak_rss_mb", peakRssMb(), "MB");
  R.metric("latency_p50_ms", percentile(FromDue, 0.5) * 1e3, "ms");
  R.metric("jobs_per_s.median", ratio(1, median(SecondsPerJob[0])), "1/s");
  R.metric("cpu_ms_per_op.median", median(CpuPerJob) * 1e3, "ms");
  R.metric("setup_cpu_s", median(SetupCpu), "s");
  R.metric("latency_p99_ms", percentile(FromDue, 0.99) * 1e3, "ms");
  R.metric("reduce_gbps", ratio(Bytes, Busy) / 1e9, "GB/s");
  R.metric("closed_jobs", ClosedJobs, "count");
  R.metric("open_jobs", static_cast<double>(FromDue.size()), "count");
  R.metric("gen.late_ms_max", percentile(Late, 1.0) * 1e3, "ms");
  R.metric("gen.late_ms_p99", percentile(Late, 0.99) * 1e3, "ms");
  R.metric("serve.coalesced_share",
           ratio(static_cast<double>(Coalesced),
                 static_cast<double>(Coalesced + Direct)),
           "frac");

  if (!A.Trace)
    return R;

  // Layer split over the open-loop jobs (traced throughout).
  auto Open = [&](double (*Get)(const Outcome &)) {
    return field(Os, FirstOpen, Get);
  };
  const std::vector<double>
      Exec = Open([](const Outcome &O) { return O.Exec; }),
      Latency = Open([](const Outcome &O) { return O.Latency; }),
      NonExec = Open([](const Outcome &O) { return O.Latency - O.Exec; }),
      OpenBytes = Open([](const Outcome &O) { return O.Bytes; });
  const engine::CacheStats Cache = Svc->getHealth().Shards.front().Cache;

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
  R.metric("native.exec_ms_p50", median(Exec) * 1e3, "ms");
  R.metric("native.exec_gbps", ratio(sum(OpenBytes), sum(Exec)) / 1e9,
           "GB/s");
  R.metric("serve.non_exec_frac", ratio(sum(NonExec), sum(Latency)), "frac");
  R.metric("serve.batches", static_cast<double>(Batches), "count");
  R.metric("serve.coalesced_jobs", static_cast<double>(Coalesced), "count");
  R.metric("serve.direct_jobs", static_cast<double>(Direct), "count");
  R.metric("serve.mean_batch_jobs",
           ratio(static_cast<double>(Coalesced), static_cast<double>(Batches)),
           "jobs");
  R.metric("serve.max_batch_jobs", static_cast<double>(S.MaxBatchJobs),
           "jobs");
  R.metric("serve.rejected",
           static_cast<double>(S.rejected() - Base.rejected()), "count");
  R.metric("serve.expired", static_cast<double>(S.Expired - Base.Expired),
           "count");
  R.metric("serve.degraded_jobs",
           static_cast<double>(S.DegradedJobs - Base.DegradedJobs), "count");
  R.metric("trace.overhead_frac",
           ratio(median(SecondsPerJob[1]), median(SecondsPerJob[0])) - 1,
           "frac");

  R.metric("serve.submit_us_p50",
           median(T.durations("serve.submit", FirstOpenId)) * 1e6, "us");
  R.metric("serve.exec_ms_p50", median(Exec) * 1e3, "ms");
  R.metric("serve.non_exec_ms_p50", median(NonExec) * 1e3, "ms");
  R.metric("serve.non_exec_ms_p99", percentile(NonExec, 0.99) * 1e3, "ms");
  return R;
}

} // namespace perfbench
