//===- VariantCache.h - Content-addressed compiled-variant cache -*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-memory cache from fully-resolved variant identities to
/// synthesized, bytecode-compiled variants (including their second-stage
/// kernels). A fresh process warm-starts it from tuned-variant packs
/// (engine/TunedPack.h). The key is content-addressed: canonical
/// source hash x VariantDescriptor hash x architecture generation x
/// reduction op x element type x optimization flags x backend — everything
/// that can change the compiled artifact. One cache can be shared by
/// several per-architecture engines; the generation field keeps their
/// entries disjoint.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_ENGINE_VARIANTCACHE_H
#define TANGRAM_ENGINE_VARIANTCACHE_H

#include "engine/Backend.h"
#include "gpusim/Arch.h"
#include "support/Expected.h"
#include "support/ReduceOp.h"
#include "synth/KernelSynthesizer.h"

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace tangram::engine {

/// Identity of one compiled variant. Equal keys mean the synthesizer would
/// produce byte-identical bytecode, so the cached artifact is reusable.
struct VariantKey {
  uint64_t SourceHash = 0; ///< Canonical reduction source text.
  uint64_t DescHash = 0;   ///< VariantDescriptor::stableHash().
  sim::ArchGeneration Gen = sim::ArchGeneration::Kepler;
  ReduceOp Op = ReduceOp::Add;
  ir::ScalarType Elem = ir::ScalarType::F32;
  unsigned char Flags = 0; ///< Packed OptimizationFlags bits.
  /// Backend the variant was resolved for. Native entries carry the extra
  /// lowering artifact (SynthesizedVariant::Native), so they are keyed
  /// apart from plain simulator entries.
  Backend BackendKind = Backend::Simulator;

  bool operator==(const VariantKey &O) const = default;

  /// Deterministic digest over all fields (map hashing + diagnostics).
  uint64_t hash() const;
};

/// Hit/miss accounting, exposed for tests and perf tracking.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  size_t Entries = 0;
  /// Variants this cache actually compiled (monotonic; eviction and
  /// replacement never decrease it). Pack imports warm the cache *without*
  /// compiling, so they never increment this — a warm process serving only
  /// known keys reports VariantsCompiled == 0.
  uint64_t VariantsCompiled = 0;
  /// Total pipeline wall-clock spent on those compiles (sum of each
  /// compiled variant's SynthesizedVariant::CompileSeconds, second stages
  /// included).
  double CompileSeconds = 0;
  /// Times a getOrCompile caller found another thread already compiling its
  /// key and waited for that flight instead of duplicating the synthesis.
  uint64_t SingleFlightWaits = 0;
  /// getOrCompile flights that ended in a Status (compile or chaos-hook
  /// failure). Failures are never cached, so a key may fail several times
  /// before a later flight succeeds — a serving-health signal.
  uint64_t FailedCompiles = 0;
};

/// Bounded LRU map of VariantKey -> synthesized variant. Entries are handed
/// out as shared_ptr so eviction is always safe while a caller still runs a
/// variant. Thread-safe (engines sharing one cache may live on different
/// threads).
class VariantCache {
public:
  using VariantPtr = std::shared_ptr<const synth::SynthesizedVariant>;

  explicit VariantCache(size_t Capacity = 256);

  /// Inserts (or replaces) \p V under \p K, evicting the least recently
  /// used entry when over capacity. Does not count as a compile (pack
  /// imports warm caches through this without perturbing VariantsCompiled).
  void insert(const VariantKey &K, VariantPtr V);

  /// Single-flight resolve: returns the cached variant when present;
  /// otherwise runs \p Compile exactly once per key no matter how many
  /// threads race here; latecomers block on the leader's flight and share
  /// its outcome instead of duplicating the synthesis. Successful compiles
  /// are inserted under \p K; failures are not cached (a later call
  /// retries), but every waiter of a failed flight receives the leader's
  /// Status. \p Compile runs without the cache lock held, so independent
  /// keys still resolve concurrently.
  support::Expected<VariantPtr>
  getOrCompile(const VariantKey &K,
               const std::function<support::Expected<VariantPtr>()> &Compile);

  /// Chaos/test hook consulted by getOrCompile before each cold compile:
  /// a non-Ok return fails the flight with that Status instead of running
  /// \p Compile (the failure is not cached, so later flights retry). Cache
  /// hits and single-flight waiters never consult the hook; only a flight
  /// leader that actually compiles pays. Install before the cache is shared
  /// across threads (the serving layer does this at shard construction); a
  /// null hook restores normal compilation.
  using CompileChaosHook = std::function<support::Status()>;
  void setCompileChaosHook(CompileChaosHook Hook);

  CacheStats getStats() const;

private:
  struct KeyHasher {
    size_t operator()(const VariantKey &K) const {
      return static_cast<size_t>(K.hash());
    }
  };

  using LruList = std::list<std::pair<VariantKey, VariantPtr>>;

  /// One in-progress compilation. Waiters hold the shared_ptr, so a flight
  /// outlives its map entry (the leader erases it before notifying).
  struct Flight {
    bool Done = false;
    std::optional<support::Expected<VariantPtr>> Result;
  };

  /// insert() body for callers already holding Mutex.
  void insertLocked(const VariantKey &K, VariantPtr V);

  size_t Capacity;
  mutable std::mutex Mutex;
  std::condition_variable FlightDone;
  LruList Lru; ///< Front = most recently used.
  std::unordered_map<VariantKey, LruList::iterator, KeyHasher> Map;
  std::unordered_map<VariantKey, std::shared_ptr<Flight>, KeyHasher> InFlight;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Evictions = 0;
  uint64_t VariantsCompiled = 0;
  double CompileSeconds = 0;
  uint64_t SingleFlightWaits = 0;
  uint64_t FailedCompiles = 0;
  CompileChaosHook ChaosHook;
};

} // namespace tangram::engine

#endif // TANGRAM_ENGINE_VARIANTCACHE_H
