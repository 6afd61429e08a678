//===- TunedPack.cpp - Portable tuned-variant bundles ----------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "engine/TunedPack.h"

#include "support/BinaryStream.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <system_error>

using namespace tangram;
using namespace tangram::engine;

using support::ByteReader;
using support::ByteWriter;
using support::Expected;
using support::Status;
using support::StatusCode;

namespace {

constexpr unsigned char PackMagic[4] = {'T', 'G', 'R', 'P'};
constexpr uint32_t PackVersion = 2;
/// Caps what a corrupted count field can make the reader allocate.
constexpr uint32_t MaxPackRecords = 1u << 20;

void writeKey(ByteWriter &W, const VariantKey &K) {
  W.u64(K.SourceHash);
  W.u64(K.DescHash);
  W.u8(static_cast<unsigned char>(K.Gen));
  W.u8(static_cast<unsigned char>(K.Op));
  W.u8(static_cast<unsigned char>(K.Elem));
  W.u8(K.Flags);
  W.u8(static_cast<unsigned char>(K.BackendKind));
}

VariantKey readKey(ByteReader &R) {
  VariantKey K;
  K.SourceHash = R.u64();
  K.DescHash = R.u64();
  K.Gen = static_cast<sim::ArchGeneration>(R.u8());
  K.Op = static_cast<ReduceOp>(R.u8());
  K.Elem = static_cast<ir::ScalarType>(R.u8());
  K.Flags = R.u8();
  K.BackendKind = static_cast<Backend>(R.u8());
  return K;
}

void writeDesc(ByteWriter &W, const synth::VariantDescriptor &D) {
  W.u8(static_cast<unsigned char>(D.GridDist));
  W.u8(static_cast<unsigned char>(D.GridScheme));
  W.u8(D.BlockDistributes ? 1 : 0);
  W.u8(static_cast<unsigned char>(D.BlockDist));
  W.u8(static_cast<unsigned char>(D.Coop));
  W.u32(D.BlockSize);
  W.u32(D.Coarsen);
}

synth::VariantDescriptor readDesc(ByteReader &R) {
  synth::VariantDescriptor D;
  D.GridDist = static_cast<transforms::DistPattern>(R.u8());
  D.GridScheme = static_cast<synth::GridCombine>(R.u8());
  D.BlockDistributes = R.u8() != 0;
  D.BlockDist = static_cast<transforms::DistPattern>(R.u8());
  D.Coop = static_cast<synth::CoopKind>(R.u8());
  D.BlockSize = R.u32();
  D.Coarsen = R.u32();
  return D;
}

} // namespace

Status tangram::engine::writeTunedPack(const std::string &Path,
                                       const TunedPack &Pack) {
  ByteWriter W;
  for (unsigned char C : PackMagic)
    W.u8(C);
  W.u32(PackVersion);
  W.u32(static_cast<uint32_t>(Pack.Entries.size()));
  for (const TunedPackEntry &E : Pack.Entries) {
    writeKey(W, E.Key);
    writeDesc(W, E.Desc);
    W.str(E.Fig6Label);
    W.f64(E.TunedSeconds);
    W.u64(E.Artifact.size());
    W.raw(E.Artifact.data(), E.Artifact.size());
  }
  W.u32(static_cast<uint32_t>(Pack.Quarantined.size()));
  for (const PackQuarantine &Q : Pack.Quarantined) {
    W.u8(static_cast<unsigned char>(Q.Gen));
    W.u8(static_cast<unsigned char>(Q.Op));
    W.u8(static_cast<unsigned char>(Q.Elem));
    writeDesc(W, Q.Desc);
    W.u8(static_cast<unsigned char>(Q.Why.Code));
    W.str(Q.Why.Message);
  }
  // Whole-file trailer checksum; embedded artifacts carry their own.
  W.u64(support::binaryChecksum(W.Bytes.data(), W.Bytes.size()));

  const std::string Temp = Path + ".tmp";
  {
    std::ofstream Out(Temp, std::ios::binary | std::ios::trunc);
    if (!Out)
      return Status(StatusCode::InvalidArgument,
                    "cannot open '" + Temp + "' for writing");
    Out.write(reinterpret_cast<const char *>(W.Bytes.data()),
              static_cast<std::streamsize>(W.Bytes.size()));
    Out.flush();
    if (!Out.good()) {
      Out.close();
      std::error_code EC;
      std::filesystem::remove(Temp, EC);
      return Status(StatusCode::InternalError,
                    "write to '" + Temp + "' failed");
    }
  }
  if (std::rename(Temp.c_str(), Path.c_str()) != 0) {
    std::error_code EC;
    std::filesystem::remove(Temp, EC);
    return Status(StatusCode::InternalError,
                  "cannot publish pack at '" + Path + "'");
  }
  return Status::success();
}

Expected<TunedPack> tangram::engine::readTunedPack(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Status(StatusCode::InvalidArgument,
                  "cannot open tuned pack '" + Path + "'");
  std::vector<unsigned char> Bytes((std::istreambuf_iterator<char>(In)),
                                   std::istreambuf_iterator<char>());
  if (Bytes.size() < 4 + 4 + 8)
    return Status(StatusCode::InvalidArgument,
                  "tuned pack '" + Path + "' is truncated");
  ByteReader Trailer(Bytes.data() + Bytes.size() - 8, 8);
  if (support::binaryChecksum(Bytes.data(), Bytes.size() - 8) !=
      Trailer.u64())
    return Status(StatusCode::InvalidArgument,
                  "tuned pack '" + Path + "' failed its checksum");

  ByteReader R(Bytes.data(), Bytes.size() - 8);
  for (unsigned char C : PackMagic)
    if (R.u8() != C)
      return Status(StatusCode::InvalidArgument,
                    "'" + Path + "' is not a tuned pack (bad magic)");
  uint32_t Version = R.u32();
  if (Version != PackVersion)
    return Status(StatusCode::InvalidArgument,
                  "tuned pack '" + Path + "' has format version " +
                      std::to_string(Version) + "; this build reads " +
                      std::to_string(PackVersion));

  TunedPack Pack;
  uint32_t EntryCount = R.u32();
  if (R.failed() || EntryCount > MaxPackRecords)
    return Status(StatusCode::InvalidArgument,
                  "tuned pack '" + Path + "' is malformed (entry count)");
  Pack.Entries.reserve(EntryCount);
  for (uint32_t I = 0; I != EntryCount; ++I) {
    TunedPackEntry E;
    E.Key = readKey(R);
    E.Desc = readDesc(R);
    E.Fig6Label = R.str();
    E.TunedSeconds = R.f64();
    uint64_t ArtifactSize = R.u64();
    if (R.failed() || ArtifactSize > R.remaining())
      return Status(StatusCode::InvalidArgument,
                    "tuned pack '" + Path + "' is malformed (entry " +
                        std::to_string(I) + ")");
    const unsigned char *Data = R.raw(static_cast<size_t>(ArtifactSize));
    E.Artifact.assign(Data, Data + ArtifactSize);
    Pack.Entries.push_back(std::move(E));
  }
  uint32_t QuarantineCount = R.u32();
  if (R.failed() || QuarantineCount > MaxPackRecords)
    return Status(StatusCode::InvalidArgument,
                  "tuned pack '" + Path + "' is malformed (quarantine "
                  "count)");
  Pack.Quarantined.reserve(QuarantineCount);
  for (uint32_t I = 0; I != QuarantineCount; ++I) {
    PackQuarantine Q;
    Q.Gen = static_cast<sim::ArchGeneration>(R.u8());
    Q.Op = static_cast<ReduceOp>(R.u8());
    Q.Elem = static_cast<ir::ScalarType>(R.u8());
    Q.Desc = readDesc(R);
    unsigned char Code = R.u8();
    if (Code > static_cast<unsigned char>(StatusCode::Unavailable))
      return Status(StatusCode::InvalidArgument,
                    "tuned pack '" + Path + "' is malformed (status code)");
    Q.Why.Code = static_cast<StatusCode>(Code);
    Q.Why.Message = R.str();
    Pack.Quarantined.push_back(std::move(Q));
  }
  if (R.failed() || !R.atEnd())
    return Status(StatusCode::InvalidArgument,
                  "tuned pack '" + Path + "' is malformed (trailing or "
                  "missing bytes)");
  return Pack;
}

Expected<unsigned>
tangram::engine::importPackEntries(VariantCache &Cache,
                                   const TunedPack &Pack) {
  // Validate everything first: a pack passed its whole-file checksum, so a
  // bad entry is a writer bug or a tampered file, and the whole pack is
  // rejected before any entry reaches the cache.
  std::vector<VariantCache::VariantPtr> Variants;
  Variants.reserve(Pack.Entries.size());
  for (const TunedPackEntry &E : Pack.Entries) {
    auto V = synth::deserializeVariant(E.Artifact.data(), E.Artifact.size(),
                                       toArtifactKey(E.Key));
    if (!V)
      return V.status();
    Variants.emplace_back(std::move(*V));
  }
  for (size_t I = 0; I != Variants.size(); ++I)
    Cache.insert(Pack.Entries[I].Key, std::move(Variants[I]));
  return static_cast<unsigned>(Variants.size());
}

synth::ArtifactKey tangram::engine::toArtifactKey(const VariantKey &K) {
  synth::ArtifactKey A;
  A.SourceHash = K.SourceHash;
  A.DescHash = K.DescHash;
  A.Gen = static_cast<unsigned char>(K.Gen);
  A.Op = static_cast<unsigned char>(K.Op);
  A.Elem = static_cast<unsigned char>(K.Elem);
  A.Flags = K.Flags;
  A.BackendKind = static_cast<unsigned char>(K.BackendKind);
  return A;
}
