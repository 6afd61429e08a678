//===- VariantCache.cpp - Content-addressed compiled-variant cache ---------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "engine/VariantCache.h"

#include "support/StableHash.h"

#include <algorithm>

using namespace tangram;
using namespace tangram::engine;

uint64_t VariantKey::hash() const {
  StableHash H;
  H.u64(SourceHash);
  H.u64(DescHash);
  H.byte(static_cast<unsigned char>(Gen));
  H.byte(static_cast<unsigned char>(Op));
  H.byte(static_cast<unsigned char>(Elem));
  H.byte(Flags);
  H.byte(static_cast<unsigned char>(BackendKind));
  return H.get();
}

VariantCache::VariantCache(size_t Capacity)
    : Capacity(std::max<size_t>(1, Capacity)) {}

void VariantCache::insert(const VariantKey &K, VariantPtr V) {
  std::lock_guard<std::mutex> Lock(Mutex);
  insertLocked(K, std::move(V));
}

void VariantCache::insertLocked(const VariantKey &K, VariantPtr V) {
  auto It = Map.find(K);
  if (It != Map.end()) {
    It->second->second = std::move(V);
    Lru.splice(Lru.begin(), Lru, It->second);
    return;
  }
  Lru.emplace_front(K, std::move(V));
  Map[K] = Lru.begin();
  while (Map.size() > Capacity) {
    Map.erase(Lru.back().first);
    Lru.pop_back();
    ++Evictions;
  }
}

support::Expected<VariantCache::VariantPtr> VariantCache::getOrCompile(
    const VariantKey &K,
    const std::function<support::Expected<VariantPtr>()> &Compile) {
  std::unique_lock<std::mutex> Lock(Mutex);
  for (;;) {
    auto It = Map.find(K);
    if (It != Map.end()) {
      ++Hits;
      Lru.splice(Lru.begin(), Lru, It->second);
      return It->second->second;
    }
    auto F = InFlight.find(K);
    if (F == InFlight.end())
      break;
    // Another thread is compiling this exact key: wait for its flight and
    // share the outcome rather than synthesizing a duplicate.
    ++SingleFlightWaits;
    std::shared_ptr<Flight> Shared = F->second;
    FlightDone.wait(Lock, [&] { return Shared->Done; });
    // Waiters share the leader's outcome either way; a failure is not
    // cached, so a *later* call (not this one) may retry the compile.
    if (Shared->Result->ok())
      return *Shared->Result;
    return Shared->Result->status();
  }
  ++Misses;
  auto F = std::make_shared<Flight>();
  InFlight.emplace(K, F);
  // Read the hook under the lock; it is *used* outside it, like the
  // compile itself, so independent keys keep resolving in parallel while
  // this flight synthesizes.
  CompileChaosHook Hook = ChaosHook;
  Lock.unlock();

  support::Status Chaos = Hook ? Hook() : support::Status::success();
  support::Expected<VariantPtr> Result =
      Chaos.ok() ? Compile() : support::Expected<VariantPtr>(Chaos);

  Lock.lock();
  F->Result = Result;
  F->Done = true;
  InFlight.erase(K);
  if (Result.ok()) {
    if (*Result) {
      ++VariantsCompiled;
      CompileSeconds += (*Result)->CompileSeconds;
    }
    insertLocked(K, *Result);
  } else {
    ++FailedCompiles;
  }
  Lock.unlock();
  FlightDone.notify_all();
  return Result;
}

void VariantCache::setCompileChaosHook(CompileChaosHook Hook) {
  std::lock_guard<std::mutex> Lock(Mutex);
  ChaosHook = std::move(Hook);
}

CacheStats VariantCache::getStats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  CacheStats S;
  S.Hits = Hits;
  S.Misses = Misses;
  S.Evictions = Evictions;
  S.Entries = Map.size();
  S.VariantsCompiled = VariantsCompiled;
  S.CompileSeconds = CompileSeconds;
  S.SingleFlightWaits = SingleFlightWaits;
  S.FailedCompiles = FailedCompiles;
  return S;
}
