//===- SplitMix64.h - Shared splitmix64 mixing function ---------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The splitmix64 finalizer used everywhere the project needs a
/// platform-independent, seedable pseudo-random mix: the simulator's fault
/// injector, the serving layer's chaos injector, the resilient client's
/// backoff jitter, and the variant artifacts' checksums. One definition
/// keeps the deterministic schedules of all of them aligned — a (seed,
/// ordinal) pair selects the same event sites on every platform and in
/// every subsystem.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_SUPPORT_SPLITMIX64_H
#define TANGRAM_SUPPORT_SPLITMIX64_H

#include <cstdint>

namespace tangram::support {

/// The splitmix64 output (finalization) function: a bijective avalanche
/// mix of \p X. Feed it `Ordinal + GoldenGamma * (Seed + 1)` to get the
/// deterministic event schedule the fault/chaos injectors use.
inline uint64_t splitmix64(uint64_t X) {
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ull;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebull;
  X ^= X >> 31;
  return X;
}

/// Weyl-sequence increment (the golden-ratio gamma) splitmix64 streams
/// advance by.
inline constexpr uint64_t SplitMix64Gamma = 0x9e3779b97f4a7c15ull;

/// One full generator step: advances \p State by the gamma and returns the
/// mixed output. This is the canonical splitmix64 PRNG (the resilient
/// client's jitter stream).
inline uint64_t splitmix64Next(uint64_t &State) {
  return splitmix64(State += SplitMix64Gamma);
}

/// The deterministic (seed, ordinal) schedule shared by the fault and
/// chaos injectors: platform-independent, so one plan picks the same
/// event sites everywhere.
inline uint64_t splitmix64Schedule(uint64_t Seed, uint64_t Ordinal) {
  return splitmix64(Ordinal + SplitMix64Gamma * (Seed + 1));
}

} // namespace tangram::support

#endif // TANGRAM_SUPPORT_SPLITMIX64_H
