//===- Shard.cpp - Per-architecture serving shard ---------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "serve/Shard.h"

#include "serve/Batch.h"

#include "engine/ExecutionEngine.h"
#include "reduce/OpDef.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <chrono>

using namespace tangram;
using namespace tangram::serve;

using support::Expected;
using support::Status;
using support::StatusCode;

Shard::Shard(const sim::ArchDesc &Arch, const ServiceOptions &Opts)
    : Arch(Arch), Opts(Opts), Cache(std::make_shared<engine::VariantCache>()),
      Pool(std::make_shared<support::ThreadPool>(1)) {
  // Warm start: pack entries land in the shared cache before any lane
  // exists, so the shard opens with hot lanes — the first request per
  // imported key is served without a single-flight compile. Quarantine
  // records need an engine; stash this generation's and apply each as the
  // lane of its (op, dtype) comes up. An unusable pack degrades to cold.
  for (const std::string &Path : Opts.ImportPacks) {
    auto Pack = engine::readTunedPack(Path);
    if (!Pack) {
      StartupWarnings.push_back(Pack.status().toString());
      continue;
    }
    auto Imported = engine::importPackEntries(*Cache, *Pack);
    if (!Imported) {
      StartupWarnings.push_back(Imported.status().toString());
      continue;
    }
    for (const engine::PackQuarantine &Q : Pack->Quarantined)
      if (Q.Gen == Arch.Gen)
        PendingQuarantines.push_back(Q);
  }
  if (Opts.Chaos.active()) {
    Injector = std::make_unique<ChaosInjector>(Opts.Chaos);
    if (Opts.Chaos.Kind == ChaosKind::CompileFail)
      // Service-level seam: a cold compile in this shard's cache fails as
      // a flaky build host would. Failures are never cached, so the storm
      // passing (Period / MaxFires) lets later flights succeed.
      Cache->setCompileChaosHook([this] {
        return Injector->fires(ChaosKind::CompileFail)
                   ? Status(StatusCode::SynthesisError,
                            "chaos: injected compile failure")
                   : Status::success();
      });
  }
}

Shard::~Shard() { stop(); }

Status Shard::enqueue(PendingJob Job) {
  std::unique_lock<std::mutex> L(Mu);
  if (Stopping) {
    ++Stats.RejectedUnavailable;
    return Status(StatusCode::Unavailable,
                  "reduction service is shutting down");
  }
  if (Injector && Injector->fires(ChaosKind::SpuriousReject)) {
    // A flapping load-shedder: refuse despite queue room. Reported as
    // Overloaded — exactly what a retrying client should see and absorb.
    ++Stats.RejectedOverloaded;
    return Status(StatusCode::Overloaded,
                  "chaos: spurious admission rejection; retry with backoff");
  }
  if (Queue.size() >= Opts.QueueDepth) {
    ++Stats.RejectedOverloaded;
    return Status(StatusCode::Overloaded,
                  strformat("shard '%s' admission queue is full "
                                     "(depth %zu); retry with backoff",
                                     Arch.Name.c_str(), Opts.QueueDepth));
  }
  Queue.push_back(std::move(Job));
  ++Stats.Submitted;
  L.unlock();
  WorkCv.notify_one();
  return Status::success();
}

void Shard::start() {
  if (Worker.joinable())
    return;
  Worker = std::thread([this] { workerLoop(); });
}

void Shard::workerLoop() {
  std::unique_lock<std::mutex> L(Mu);
  for (;;) {
    WorkCv.wait(L, [&] { return Stopping || !Queue.empty(); });
    if (Queue.empty() && Stopping)
      return; // Stop drains first: the predicate re-admits us while jobs
              // remain, so shutdown never drops queued work.
    std::deque<PendingJob> Work;
    Work.swap(Queue);
    L.unlock();
    process(Work);
    L.lock();
  }
}

void Shard::drainNow() {
  if (Worker.joinable())
    return;
  std::deque<PendingJob> Work;
  {
    std::lock_guard<std::mutex> L(Mu);
    Work.swap(Queue);
  }
  if (!Work.empty())
    process(Work);
}

void Shard::stop() {
  {
    std::lock_guard<std::mutex> L(Mu);
    if (Stopping && !Worker.joinable() && Queue.empty())
      return;
    Stopping = true;
  }
  WorkCv.notify_all();
  if (Worker.joinable()) {
    Worker.join();
  } else {
    // Manual-pump mode: drain inline so queued jobs still complete.
    std::deque<PendingJob> Work;
    {
      std::lock_guard<std::mutex> L(Mu);
      Work.swap(Queue);
    }
    if (!Work.empty())
      process(Work);
  }
}

ServiceStats Shard::getStats() const {
  ServiceStats S;
  {
    std::lock_guard<std::mutex> L(Mu);
    S = Stats;
    // Breaker counters live in the lanes (worker-thread state); the worker
    // publishes them into HealthSnap after every group, so aggregating the
    // snapshots here never touches a lane from the wrong thread.
    for (const auto &Entry : HealthSnap) {
      S.BreakerTrips += Entry.second.Breaker.Trips;
      S.BreakerFastFails += Entry.second.Breaker.FastFails;
      S.BreakerRecoveries += Entry.second.Breaker.Recoveries;
    }
  }
  if (Injector)
    S.ChaosInjected = Injector->getFireCount();
  return S;
}

ShardHealth Shard::getHealth() const {
  ShardHealth H;
  H.ArchName = Arch.Name;
  H.Stats = getStats();
  H.Cache = Cache->getStats(); // Internally synchronized.
  H.Warnings = StartupWarnings;
  std::lock_guard<std::mutex> L(Mu);
  H.QueueDepth = Queue.size();
  H.Lanes.reserve(HealthSnap.size());
  for (const auto &Entry : HealthSnap)
    H.Lanes.push_back(Entry.second);
  return H;
}

void Shard::snapshotLane(const LaneKey &Key, Lane &L) {
  LaneHealth H;
  H.Op = static_cast<ReduceOp>(Key.first);
  H.Elem = static_cast<ir::ScalarType>(Key.second);
  if (L.Breaker) {
    H.State = L.Breaker->getState();
    H.Breaker = L.Breaker->getCounters();
    H.FailureRatio = L.Breaker->getFailureRatio();
  }
  H.BatchQuarantined =
      L.BatchDescValid && L.E && L.E->isQuarantined(L.BatchDesc);
  std::lock_guard<std::mutex> G(Mu);
  HealthSnap[Key] = H;
}

engine::ExecutionEngine *Shard::laneEngine(ReduceOp Op,
                                           ir::ScalarType Elem) {
  return laneFor(Op, Elem).E;
}

const synth::VariantDescriptor *
Shard::laneBatchDescriptor(ReduceOp Op, ir::ScalarType Elem) {
  Lane &L = laneFor(Op, Elem);
  return L.BatchDescValid ? &L.BatchDesc : nullptr;
}

Shard::Lane &Shard::laneFor(ReduceOp Op, ir::ScalarType Elem) {
  LaneKey Key{static_cast<unsigned>(Op), static_cast<unsigned>(Elem)};
  auto It = Lanes.find(Key);
  if (It != Lanes.end())
    return It->second;

  Lane L;
  TangramReduction::Options TO;
  TO.Op = Op;
  TO.Elem = Elem;
  TO.Engine.Cache = Cache; // Shared per shard: lanes never recompile a
                           // variant another lane already resolved.
  TO.Engine.Pool = Pool;
  auto TR = TangramReduction::create(TO);
  if (!TR) {
    L.Create = TR.status();
  } else {
    L.TR = std::move(*TR);
    L.E = &L.TR->engineFor(Arch);
    // Pack verdicts for this generation and the lane's (op, dtype)
    // pre-poison its engine, so it degrades known-bad configurations
    // immediately instead of rediscovering the trap under traffic.
    for (const engine::PackQuarantine &Q : PendingQuarantines)
      if (Q.Op == Op && Q.Elem == Elem && !L.E->isQuarantined(Q.Desc))
        L.E->quarantineVariant(Q.Desc, Q.Why);
    // The batch variant: a two-kernel, block-distributing tiled version —
    // its first stage writes exactly one partial per block tile, which is
    // what segmented batching packs jobs into. Prefer the shuffle tree
    // (the paper's best cooperative flavor on shuffle-capable parts). Its
    // second stage always combines through a grid atomic, so where that
    // atomic is illegal (Kepler's 64-bit pairs) the lane has no batch
    // variant and its jobs go straight to the host loop.
    const bool GridAtomicLegal = reduce::atomicLegality(Op, Elem, Arch.Gen) !=
                                 reduce::AtomicSupport::Illegal;
    for (const synth::VariantDescriptor &D : L.TR->getSearchSpace().All) {
      if (!GridAtomicLegal || !D.usesSecondKernel() ||
          D.GridDist != transforms::DistPattern::Tiled ||
          !D.BlockDistributes ||
          D.BlockDist != transforms::DistPattern::Tiled)
        continue;
      if (!L.BatchDescValid || D.Coop == synth::CoopKind::TreeShuffle) {
        L.BatchDesc = D;
        L.BatchDescValid = true;
        if (D.Coop == synth::CoopKind::TreeShuffle)
          break;
      }
    }
    if (L.BatchDescValid) {
      L.BatchDesc.BlockSize = Opts.BatchBlockSize;
      L.BatchDesc.Coarsen = Opts.BatchCoarsen;
      L.Tile = static_cast<size_t>(L.BatchDesc.BlockSize) *
               (L.BatchDesc.BlockDistributes ? L.BatchDesc.Coarsen : 1);
    }
    L.Breaker = std::make_unique<CircuitBreaker>(Opts.Breaker);
  }
  return Lanes.emplace(Key, std::move(L)).first->second;
}

void Shard::process(std::deque<PendingJob> &Work) {
  // Chaos: a stalled worker — the whole drain pass runs late, eating into
  // every queued job's deadline budget.
  if (Injector && Injector->fires(ChaosKind::SlowWorker))
    std::this_thread::sleep_for(
        std::chrono::duration<double>(Opts.Chaos.DelaySeconds));

  // Group by (op, dtype) lane, preserving arrival order inside a group so
  // results stream back in a predictable order per tenant.
  std::map<LaneKey, std::vector<PendingJob *>> Groups;
  for (PendingJob &Job : Work)
    Groups[{static_cast<unsigned>(Job.Spec.Op),
            static_cast<unsigned>(Job.Spec.Elem)}]
        .push_back(&Job);
  for (auto &Entry : Groups) {
    Lane &L = laneFor(static_cast<ReduceOp>(Entry.first.first),
                      static_cast<ir::ScalarType>(Entry.first.second));
    processGroup(L, Entry.second);
    snapshotLane(Entry.first, L);
  }
}

void Shard::dropExpired(std::vector<PendingJob *> &Jobs) {
  const double Now = engine::steadySeconds();
  std::vector<PendingJob *> Alive;
  Alive.reserve(Jobs.size());
  for (PendingJob *Job : Jobs) {
    if (Job->Spec.DeadlineSeconds > 0 && Now > Job->Spec.DeadlineSeconds) {
      {
        std::lock_guard<std::mutex> G(Mu);
        ++Stats.Expired;
      }
      complete(*Job, Status(StatusCode::DeadlineExceeded,
                            "job deadline passed while queued"));
      continue;
    }
    Alive.push_back(Job);
  }
  Jobs.swap(Alive);
}

BreakerDecision Shard::decidePrimary(Lane &L) {
  if (!L.Breaker)
    return BreakerDecision::Allow;
  BreakerDecision D = L.Breaker->decide(engine::steadySeconds());
  // The half-open probe is the supervised second chance: quarantine is
  // sticky, so without lifting it the probe would re-fail forever and the
  // lane could never recover from a transient storm.
  if (D == BreakerDecision::Probe && L.BatchDescValid)
    L.E->unquarantineVariant(L.BatchDesc);
  return D;
}

void Shard::processGroup(Lane &L, std::vector<PendingJob *> &Jobs) {
  if (!L.Create.ok()) {
    for (PendingJob *Job : Jobs)
      complete(*Job, L.Create);
    return;
  }

  // Chaos: the lane's primary variant is yanked out from under it, as a
  // misfiring fault campaign (or a genuinely trapping kernel) would.
  if (Injector && L.BatchDescValid &&
      Injector->fires(ChaosKind::QuarantineStorm))
    L.E->quarantineVariant(
        L.BatchDesc,
        Status(StatusCode::WrongResult, "chaos: injected quarantine storm"));

  dropExpired(Jobs);
  std::vector<PendingJob *> Batchable, Direct;
  for (PendingJob *Job : Jobs) {
    // Sub stays direct: its second stage is sign-sensitive, so coalescing
    // would not be bit-identical to the lone run.
    const bool CanBatch = Opts.Coalesce && L.BatchDescValid &&
                          Job->Spec.Op != ReduceOp::Sub &&
                          Job->Spec.size() <= L.Tile;
    (CanBatch ? Batchable : Direct).push_back(Job);
  }

  for (size_t Begin = 0; Begin < Batchable.size();
       Begin += Opts.MaxBatchJobs) {
    const size_t End =
        std::min(Batchable.size(), Begin + Opts.MaxBatchJobs);
    std::vector<PendingJob *> Chunk(Batchable.begin() + Begin,
                                    Batchable.begin() + End);

    // Chaos: the launch sits in some deeper queue while deadlines tick.
    if (Injector && Injector->fires(ChaosKind::QueueDelay))
      std::this_thread::sleep_for(
          std::chrono::duration<double>(Opts.Chaos.DelaySeconds));

    // Deadline re-check at the launch boundary: a deadline that expired
    // between dequeue and here must get DeadlineExceeded, not ride the
    // launch (and skew the batch it rides).
    dropExpired(Chunk);
    if (Chunk.empty())
      continue;

    const BreakerDecision D = decidePrimary(L);
    if (D == BreakerDecision::FastFail) {
      // Tripped breaker: don't even try the primary — demote the chunk to
      // the per-job failover path immediately.
      {
        std::lock_guard<std::mutex> G(Mu);
        ++Stats.DegradedBatches;
      }
      for (PendingJob *Job : Chunk)
        Direct.push_back(Job);
      continue;
    }

    std::vector<const JobSpec *> Specs;
    Specs.reserve(Chunk.size());
    for (PendingJob *Job : Chunk)
      Specs.push_back(&Job->Spec);
    auto Out = runBatch(*L.E, L.BatchDesc, Opts.BackendKind, Specs);
    if (L.Breaker)
      L.Breaker->record(static_cast<bool>(Out), engine::steadySeconds());
    if (Out) {
      {
        std::lock_guard<std::mutex> G(Mu);
        ++Stats.Batches;
        Stats.CoalescedJobs += Chunk.size();
        Stats.MaxBatchJobs = std::max<uint64_t>(Stats.MaxBatchJobs,
                                                Chunk.size());
      }
      for (size_t I = 0; I != Chunk.size(); ++I)
        complete(*Chunk[I], std::move((*Out)[I]));
      continue;
    }
    // The batch could not run (quarantined, failed synthesis, trapped —
    // trapping quarantines the descriptor). Degrade its jobs to the
    // per-job failover path instead of failing them.
    {
      std::lock_guard<std::mutex> G(Mu);
      ++Stats.DegradedBatches;
    }
    for (PendingJob *Job : Chunk)
      Direct.push_back(Job);
  }

  for (size_t Begin = 0; Begin < Direct.size();) {
    // Same launch-boundary re-check for the direct path (QueueDelay fires
    // once per launch here too, matching the per-launch batch seam).
    if (Injector && Injector->fires(ChaosKind::QueueDelay))
      std::this_thread::sleep_for(
          std::chrono::duration<double>(Opts.Chaos.DelaySeconds));
    std::vector<PendingJob *> One(Direct.begin() + Begin,
                                  Direct.begin() + Begin + 1);
    ++Begin;
    dropExpired(One);
    if (One.empty())
      continue;
    {
      std::lock_guard<std::mutex> G(Mu);
      ++Stats.DirectJobs;
    }
    complete(*One.front(), runDirect(L, One.front()->Spec));
  }
}

Expected<JobResult> Shard::runDirect(Lane &L, const JobSpec &Spec) {
  sim::Device &Dev = L.E->getDevice();
  struct Scope {
    sim::Device &D;
    size_t M;
    ~Scope() { D.release(M); }
  } Scratch{Dev, Dev.mark()};

  sim::BufferId In =
      Dev.alloc(Spec.Elem, std::max<size_t>(1, Spec.size()));
  writeJob(Dev, In, 0, Spec);

  engine::ReduceRequest Req;
  Req.In = In;
  Req.N = Spec.size();
  Req.BackendKind = Opts.BackendKind;
  Req.Op = Spec.Op;
  Req.Elem = Spec.Elem;
  Req.Gen = Arch.Gen;

  auto Finish = [&](engine::ReduceResult &&Out,
                    bool Degraded) -> Expected<JobResult> {
    JobResult R;
    R.FloatValue = Out.FloatValue;
    R.IntValue = Out.IntValue;
    R.IndexValue = Out.IndexValue;
    R.Seconds = Out.Seconds;
    R.Used = Out.Used;
    R.Coalesced = false;
    R.Degraded = Degraded;
    R.BatchJobs = 1;
    if (Degraded) {
      std::lock_guard<std::mutex> G(Mu);
      ++Stats.DegradedJobs;
    }
    return R;
  };

  // Primary: the lane's own batch descriptor, alone — so coalesced and
  // direct answers come from the same kernel and stay bit-identical. The
  // lane breaker gates the attempt: while tripped, skip straight to the
  // failover chain instead of burning a launch on a known-bad variant.
  Req.Desc = L.BatchDesc;
  if (L.BatchDescValid &&
      decidePrimary(L) != BreakerDecision::FastFail) {
    if (L.E->isQuarantined(L.BatchDesc)) {
      // A quarantined primary is a failed attempt from the breaker's
      // view: the rolling window must fill even when the engine refuses
      // the launch outright.
      if (L.Breaker)
        L.Breaker->record(false, engine::steadySeconds());
    } else {
      auto Out = L.E->run(Req);
      if (L.Breaker)
        L.Breaker->record(static_cast<bool>(Out), engine::steadySeconds());
      if (Out)
        return Finish(std::move(*Out), false);
    }
  }

  // Failover keeps the primary's bits: the same descriptor on the other
  // backend (quarantine and the breaker gate only the lane's backend —
  // run() does not consult them — and both backends fold this descriptor
  // identically), then the host loop when neither backend can run it.
  if (L.BatchDescValid) {
    Req.BackendKind = engine::getOtherBackend(Opts.BackendKind);
    if (auto Out = L.E->run(Req))
      return Finish(std::move(*Out), true);
  }
  auto Out = engine::hostReduce(Dev, In, Req.N, Spec.Op, Spec.Elem);
  if (!Out)
    return Out.status();
  return Finish(std::move(*Out), true);
}

void Shard::complete(PendingJob &Job, Expected<JobResult> Out) {
  {
    std::lock_guard<std::mutex> G(Mu);
    if (Out)
      ++Stats.Completed;
    else
      ++Stats.Failed;
  }
  if (Out)
    Out->LatencySeconds = engine::steadySeconds() - Job.AdmitSeconds;
  if (Job.Done)
    Job.Done(std::move(Out));
}
