//===- DynamicSelector.h - Runtime kernel selection --------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Dynamic kernel selection at runtime — the alternative to ahead-of-time
/// tuning the paper points to ("Tangram will only use ... heuristics or
/// dynamic kernel selection at runtime [33]", Section III). In the DySel
/// style, the selector carries a small portfolio of synthesized versions;
/// the first calls for a given (architecture, size-bucket) pair each
/// "micro-profile" one candidate while still producing the caller's
/// result, and later calls exploit the fastest candidate seen.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_TANGRAM_DYNAMICSELECTOR_H
#define TANGRAM_TANGRAM_DYNAMICSELECTOR_H

#include "tangram/Tangram.h"

#include <map>

namespace tangram {

/// Online selector over a portfolio of synthesized reduction versions.
///
/// Resilience: the selector is the last consumer standing when variants
/// misbehave, so reduce() walks a fallback chain instead of propagating
/// the first failure — a candidate that traps (launch error, watchdog
/// deadline) or is quarantined by its engine is marked dead for that
/// (arch, bucket) and the next-best candidate runs instead; when every
/// GPU candidate is dead, the portfolio is retried on the native CPU
/// backend (src/native) — the engine's fault plan and simulator-side
/// failure modes do not reach it, and it still runs the *synthesized*
/// kernel at host speed; only when even native execution cannot answer
/// does the engine's host loop (engine::hostReduce, priced by the
/// OmpCpuReduce POWER8 model) produce the caller's result.
class DynamicSelector {
public:
  /// \p Portfolio defaults to the paper's eight best versions (Fig. 6
  /// colored set) when empty.
  DynamicSelector(const TangramReduction &TR,
                  std::vector<synth::VariantDescriptor> Portfolio = {});

  /// Serves one reduction request, micro-profiling while candidates remain
  /// untried for (E's arch, bucket). The request's descriptor is *advisory*
  /// here — the selector substitutes its own portfolio candidates — but
  /// its buffer, size, mode, backend, deadline, and routing facts are all
  /// honored. Returns the result of whichever candidate ran, falling back
  /// through the portfolio, then the native CPU backend, then the host
  /// baseline. Candidates resolve through the engine's variant cache, so
  /// each is compiled at most once. A Status only escapes when even the
  /// host fallback cannot run (e.g. an invalid buffer).
  support::Expected<engine::ReduceResult>
  reduce(engine::ExecutionEngine &E, const engine::ReduceRequest &Req);

  /// Times the host CPU baseline answered instead of a GPU candidate.
  unsigned getFallbackRuns() const { return FallbackRuns; }
  /// Times the native CPU backend answered after every simulator-side
  /// candidate was dead (one step above the host-loop last resort).
  unsigned getNativeFallbackRuns() const { return NativeFallbackRuns; }
  /// Candidates marked dead (across all buckets) after trapping or being
  /// quarantined.
  unsigned getDeadCandidates() const;

  /// The candidate currently believed best for (arch, N); null until at
  /// least one call completed for the bucket.
  const synth::VariantDescriptor *getBest(const sim::ArchDesc &Arch,
                                          size_t N) const;

  /// True once every candidate has been tried for (arch, N)'s bucket.
  bool isConverged(const sim::ArchDesc &Arch, size_t N) const;

  /// Number of size buckets (powers of four).
  static unsigned bucketOf(size_t N);

private:
  struct BucketState {
    std::vector<double> Seconds; ///< Per-candidate best time (inf = untried).
    std::vector<char> Dead;      ///< Candidates that trapped here.
    unsigned NextToTry = 0;
    int BestIndex = -1;
  };

  /// The next candidate to run for \p State: exploration first, then the
  /// best known, skipping dead and engine-quarantined entries (-1 = none
  /// alive).
  int pickCandidate(BucketState &State, engine::ExecutionEngine &E) const;

  /// Retries the portfolio on the native CPU backend (quarantine is a
  /// simulator-path verdict and is deliberately bypassed). Null result =
  /// nothing ran natively either.
  support::Expected<engine::ReduceResult>
  nativeFallback(engine::ExecutionEngine &E, const engine::ReduceRequest &Req);

  struct Key {
    sim::ArchGeneration Gen;
    unsigned Bucket;
    bool operator<(const Key &O) const {
      return Gen != O.Gen ? Gen < O.Gen : Bucket < O.Bucket;
    }
  };

  const TangramReduction &TR;
  std::vector<synth::VariantDescriptor> Portfolio;
  std::map<Key, BucketState> Buckets;
  unsigned FallbackRuns = 0;
  unsigned NativeFallbackRuns = 0;
};

} // namespace tangram

#endif // TANGRAM_TANGRAM_DYNAMICSELECTOR_H
