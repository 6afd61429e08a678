//===- DynamicSelector.cpp - Runtime kernel selection ------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "tangram/DynamicSelector.h"

#include "baselines/OmpCpuReduce.h"

#include <cmath>
#include <limits>

using namespace tangram;
using namespace tangram::synth;

using support::Expected;
using support::Status;
using support::StatusCode;

DynamicSelector::DynamicSelector(const TangramReduction &TR,
                                 std::vector<VariantDescriptor> Portfolio)
    : TR(TR), Portfolio(std::move(Portfolio)) {
  if (this->Portfolio.empty()) {
    // Default portfolio: the paper's eight best versions.
    for (const VariantDescriptor &V : TR.getSearchSpace().Pruned)
      if (V.isPaperBest())
        this->Portfolio.push_back(V);
  }
  // Candidates are synthesized lazily through the engine's variant cache on
  // first use, so constructing a selector is free and the compiled versions
  // are shared with every other consumer of the facade's cache.
}

unsigned DynamicSelector::bucketOf(size_t N) {
  // Powers-of-four buckets: 0: <256, 1: <1K, 2: <4K, ...
  unsigned Bucket = 0;
  size_t Limit = 256;
  while (N >= Limit && Bucket < 16) {
    Limit *= 4;
    ++Bucket;
  }
  return Bucket;
}

int DynamicSelector::pickCandidate(BucketState &State,
                                   engine::ExecutionEngine &E) const {
  auto Alive = [&](unsigned C) {
    return !State.Dead[C] && !E.isQuarantined(Portfolio[C]);
  };
  // Exploration: the next untried candidate still worth trying.
  while (State.NextToTry < Portfolio.size()) {
    unsigned C = State.NextToTry++;
    if (Alive(C))
      return static_cast<int>(C);
  }
  // Exploitation: the best known candidate, if it still lives.
  if (State.BestIndex >= 0 && Alive(static_cast<unsigned>(State.BestIndex)))
    return State.BestIndex;
  // The best died (or was quarantined since): fastest surviving candidate,
  // falling back to any alive one (untried entries carry infinity).
  int Pick = -1;
  for (unsigned C = 0; C != Portfolio.size(); ++C)
    if (Alive(C) &&
        (Pick < 0 ||
         State.Seconds[C] < State.Seconds[static_cast<unsigned>(Pick)]))
      Pick = static_cast<int>(C);
  return Pick;
}

Expected<engine::ReduceResult>
DynamicSelector::reduce(engine::ExecutionEngine &E,
                        const engine::ReduceRequest &Req) {
  Key K{E.getArch().Gen, bucketOf(Req.N)};
  BucketState &State = Buckets[K];
  if (State.Seconds.empty()) {
    State.Seconds.assign(Portfolio.size(),
                         std::numeric_limits<double>::infinity());
    State.Dead.assign(Portfolio.size(), 0);
  }

  for (;;) {
    int Pick = pickCandidate(State, E);
    if (Pick < 0)
      break;
    unsigned Candidate = static_cast<unsigned>(Pick);
    engine::ReduceRequest Cand = Req;
    Cand.Desc = Portfolio[Candidate];
    auto Out = E.run(Cand);
    if (Out) {
      if (Out->Seconds < State.Seconds[Candidate])
        State.Seconds[Candidate] = Out->Seconds;
      if (State.BestIndex < 0 ||
          State.Seconds[Candidate] <
              State.Seconds[static_cast<unsigned>(State.BestIndex)])
        State.BestIndex = static_cast<int>(Candidate);
      return Out;
    }
    // The candidate trapped (launch error, watchdog deadline, quarantine):
    // mark it dead for this bucket and try the next one. The caller still
    // gets an answer as long as anything in the chain can produce one.
    State.Dead[Candidate] = 1;
    if (State.BestIndex == Pick) {
      State.BestIndex = -1;
      for (unsigned C = 0; C != Portfolio.size(); ++C)
        if (!State.Dead[C] && std::isfinite(State.Seconds[C]) &&
            (State.BestIndex < 0 ||
             State.Seconds[C] <
                 State.Seconds[static_cast<unsigned>(State.BestIndex)]))
          State.BestIndex = static_cast<int>(C);
    }
  }

  // Every GPU candidate is dead or quarantined on the simulator path: the
  // synthesized kernels may still be fine — try them on the native CPU
  // backend before giving up on them entirely.
  auto Native = nativeFallback(E, Req);
  if (Native) {
    ++NativeFallbackRuns;
    return Native;
  }

  // Last resort: a plain host loop always produces the caller's answer,
  // in the facade's operator and element domain, priced like the
  // OmpCpuReduce baseline (POWER8 host model).
  const TangramReduction::Options &Opts = TR.getOptions();
  auto Host =
      engine::hostReduce(E.getDevice(), Req.In, Req.N, Opts.Op, Opts.Elem);
  if (Host) {
    Host->Seconds = baselines::Power8Model{}.seconds(Req.N);
    ++FallbackRuns;
  }
  return Host;
}

Expected<engine::ReduceResult>
DynamicSelector::nativeFallback(engine::ExecutionEngine &E,
                                const engine::ReduceRequest &Req) {
  // Race checking is a simulator instrument; nothing to serve natively.
  if (Req.Mode == sim::ExecMode::RaceCheck)
    return Status(StatusCode::InvalidArgument,
                  "native fallback cannot run RaceCheck mode");
  Status LastWhy(StatusCode::InternalError, "empty portfolio");
  for (const VariantDescriptor &Desc : Portfolio) {
    engine::ReduceRequest Cand = Req;
    Cand.Desc = Desc;
    Cand.Mode = sim::ExecMode::Functional;
    Cand.BackendKind = engine::Backend::NativeCpu;
    auto Out = E.run(Cand);
    if (Out)
      return Out;
    LastWhy = Out.status();
  }
  return LastWhy;
}

unsigned DynamicSelector::getDeadCandidates() const {
  unsigned Count = 0;
  for (const auto &Entry : Buckets)
    for (char D : Entry.second.Dead)
      Count += D ? 1u : 0u;
  return Count;
}

const VariantDescriptor *
DynamicSelector::getBest(const sim::ArchDesc &Arch, size_t N) const {
  auto It = Buckets.find(Key{Arch.Gen, bucketOf(N)});
  if (It == Buckets.end() || It->second.BestIndex < 0)
    return nullptr;
  return &Portfolio[static_cast<unsigned>(It->second.BestIndex)];
}

bool DynamicSelector::isConverged(const sim::ArchDesc &Arch,
                                  size_t N) const {
  auto It = Buckets.find(Key{Arch.Gen, bucketOf(N)});
  return It != Buckets.end() &&
         It->second.NextToTry >= Portfolio.size();
}
