//===- TunedPack.h - Portable tuned-variant bundles -------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tuned-variant packs, the one persistence path: one file bundling the
/// winners of autotuning sweeps — each winner's full cache key, tuned
/// descriptor, serialized compiled artifact (synth/VariantSerializer.h
/// format, self-validating), and the tuned timing — plus the quarantine
/// records the sweeps accumulated, so an importing engine starts with both
/// the good news (hot variants) and the bad (configurations known to trap
/// or misbehave on an architecture). A restarted process needs only the
/// tuned choice, so a pack warm start skips the tuning sweep entirely.
///
/// `tgrc tune --export=PACK` writes one; `tgrc tune --import=PACK`,
/// `EngineOptions::ImportPacks`, or the serving layer's
/// `ServiceOptions::ImportPacks` read it back, warm-starting caches so the
/// first request on every imported key is served without a compile flight.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_ENGINE_TUNEDPACK_H
#define TANGRAM_ENGINE_TUNEDPACK_H

#include "engine/VariantCache.h"
#include "support/Expected.h"
#include "synth/VariantSerializer.h"

#include <string>
#include <vector>

namespace tangram::engine {

/// One tuned winner: identity, descriptor, artifact, and provenance.
struct TunedPackEntry {
  VariantKey Key;
  synth::VariantDescriptor Desc;
  /// Fig. 6 label of the winning structure when it is one of the paper's
  /// 16 depicted versions; empty otherwise (provenance only).
  std::string Fig6Label;
  /// The tuned timing that crowned this winner (seconds; backend per
  /// Key.BackendKind). Provenance only — importers never trust it over
  /// their own measurements.
  double TunedSeconds = 0;
  /// Serialized variant artifact, full header + payload. Validated against
  /// Key on import.
  std::vector<unsigned char> Artifact;
};

/// A quarantine verdict worth shipping with the winners: importing engines
/// of the same generation and (op, element type) pre-quarantine these
/// configurations instead of rediscovering the trap under live traffic. A
/// verdict is scoped like the variant it names: one descriptor lowers to
/// different code for another op or element type.
struct PackQuarantine {
  sim::ArchGeneration Gen = sim::ArchGeneration::Kepler;
  ReduceOp Op = ReduceOp::Add;
  ir::ScalarType Elem = ir::ScalarType::F32;
  synth::VariantDescriptor Desc;
  support::Status Why;
};

struct TunedPack {
  std::vector<TunedPackEntry> Entries;
  std::vector<PackQuarantine> Quarantined;
};

/// Writes \p Pack to \p Path atomically (temp file + rename).
support::Status writeTunedPack(const std::string &Path, const TunedPack &Pack);

/// Reads and validates a pack. Truncation, bad magic/version, or a failed
/// trailer checksum is an InvalidArgument Status — a pack file is an
/// explicit input, so unlike a cache entry it fails loudly rather than
/// silently importing nothing. Entry artifacts are NOT deep-validated
/// here; importers validate each against its key before insertion.
support::Expected<TunedPack> readTunedPack(const std::string &Path);

/// Deserializes every entry of \p Pack and then inserts them all into
/// \p Cache. Entries of every generation/backend are imported — a cache
/// may be shared by sibling per-arch engines, and keys keep them apart.
/// Any entry failing validation against its own key fails the whole
/// import before anything is inserted (pack files are explicit input, and
/// a rejected pack degrades to a cold start). Quarantine records are NOT
/// applied — they belong to an engine, not a cache;
/// ExecutionEngine::importTunedPack and the serving shards layer that on
/// top. Returns the entry count.
support::Expected<unsigned> importPackEntries(VariantCache &Cache,
                                              const TunedPack &Pack);

/// VariantKey -> serializer key echo (the raw-byte spelling synth uses so
/// it does not depend on this layer).
synth::ArtifactKey toArtifactKey(const VariantKey &K);

} // namespace tangram::engine

#endif // TANGRAM_ENGINE_TUNEDPACK_H
