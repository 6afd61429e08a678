//===- VariantSerializer.h - Persistent variant artifacts -------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Versioned, endian-stable binary serialization of SynthesizedVariant
/// artifacts, the entry format of tuned-variant packs (engine/TunedPack.h).
/// An artifact is self-contained: it carries the compiled
/// bytecode, the kernel-signature skeleton the launchers bind against
/// (parameters, shared arrays with their launch-uniform extent expressions,
/// scalar-parameter registers, the local count feeding the register
/// estimate), the instruction source-loc table, the native backend's
/// register-plane lowering when present, and the second-stage kernel —
/// recursively in the same format.
///
/// Every artifact opens with a fixed header: magic, format version, the
/// full cache-key echo (so a reader can prove the artifact is the variant
/// it asked for), payload size, and splitmix64-finalized checksums of the
/// payload and of the header itself. Readers classify failures by Status
/// code:
///
///   - truncation, bad magic, version skew, checksum mismatch, or any
///     malformed payload is *corruption* (StatusCode::InvalidArgument);
///   - a structurally valid artifact whose embedded key differs from the
///     key the caller addressed it by is an *integrity failure*
///     (StatusCode::InternalError) — the content-addressing contract was
///     violated and the caller must not silently recompile over it.
///
/// Byte order is explicit little-endian everywhere, so artifacts written
/// on any host read back on any other.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_SYNTH_VARIANTSERIALIZER_H
#define TANGRAM_SYNTH_VARIANTSERIALIZER_H

#include "support/Expected.h"
#include "synth/KernelSynthesizer.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace tangram::synth {

/// Bump on any change to the header or payload layout. Readers reject
/// other versions as corrupt, so a format change makes old packs fail
/// their import instead of being misread.
inline constexpr uint32_t VariantArtifactVersion = 1;

/// The full variant identity echoed into every artifact header — field for
/// field the engine's VariantKey, spelled in raw bytes so the serializer
/// does not depend on the engine layer. engine::toArtifactKey converts.
struct ArtifactKey {
  uint64_t SourceHash = 0;
  uint64_t DescHash = 0;
  unsigned char Gen = 0;
  unsigned char Op = 0;
  unsigned char Elem = 0;
  unsigned char Flags = 0;
  unsigned char BackendKind = 0;

  bool operator==(const ArtifactKey &O) const = default;
};

/// Serializes \p V under identity \p Key. Fails with
/// StatusCode::SynthesisError when the variant is outside the serializable
/// subset (a shared-array extent expression the launch-uniform evaluator
/// could not replay); such variants cannot be exported.
support::Expected<std::vector<unsigned char>>
serializeVariant(const SynthesizedVariant &V, const ArtifactKey &Key);

/// Reconstructs a variant from \p Size bytes at \p Data, validating the
/// header against \p Expect. On failure the Status code says whether the
/// bytes were corrupt (InvalidArgument) or carry another key
/// (InternalError); see the file comment. The reconstructed variant
/// owns a minimal ir::Module rebuilt from the signature skeleton, so the
/// launch paths of both backends (argument binding, shared-extent
/// evaluation, the occupancy model's register estimate) behave exactly as
/// they do for a freshly synthesized variant.
support::Expected<std::unique_ptr<SynthesizedVariant>>
deserializeVariant(const unsigned char *Data, size_t Size,
                   const ArtifactKey &Expect);

} // namespace tangram::synth

#endif // TANGRAM_SYNTH_VARIANTSERIALIZER_H
