//===- VariantSerializer.cpp - Persistent variant artifacts ----------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "synth/VariantSerializer.h"

#include "ir/Bytecode.h"
#include "ir/KernelIR.h"
#include "native/NativeKernel.h"
#include "support/BinaryStream.h"

#include <cstring>
#include <string>

using namespace tangram;
using namespace tangram::synth;

using support::ByteReader;
using support::ByteWriter;
using support::Expected;
using support::Status;
using support::StatusCode;

namespace {

//===----------------------------------------------------------------------===//
// Byte-level primitives (explicit little-endian)
//===----------------------------------------------------------------------===//

constexpr unsigned char Magic[4] = {'T', 'G', 'R', 'V'};
constexpr size_t HeaderSize = 56;
/// Defends the recursive extent-expression reader against crafted input;
/// real extents are two or three nodes deep.
constexpr unsigned MaxExprDepth = 64;
/// Second-stage chains are at most one deep today; the cap only bounds
/// what a corrupted length field can make the reader attempt.
constexpr unsigned MaxStageDepth = 8;

//===----------------------------------------------------------------------===//
// Extent expressions (the evalUniformExpr subset)
//===----------------------------------------------------------------------===//

enum class ExprTag : unsigned char { IntConst, ParamRef, Special, Binary };

/// Writes \p E as a prefix tree. Only the launch-uniform subset the
/// simulator's evalUniformExpr replays is serializable; anything else
/// (and anything the uniform evaluator would reject, like thread-indexed
/// specials) fails so the variant stays memory-only.
bool writeExtentExpr(ByteWriter &W, const ir::Expr *E) {
  switch (E->getKind()) {
  case ir::Expr::Kind::IntConst: {
    const auto *C = cast<ir::IntConstExpr>(E);
    W.u8(static_cast<unsigned char>(ExprTag::IntConst));
    W.u8(static_cast<unsigned char>(C->getType()));
    W.i64(C->getValue());
    return true;
  }
  case ir::Expr::Kind::ParamRef: {
    const auto *R = cast<ir::ParamRefExpr>(E);
    W.u8(static_cast<unsigned char>(ExprTag::ParamRef));
    W.u32(R->getParam()->Index);
    return true;
  }
  case ir::Expr::Kind::Special: {
    const auto *S = cast<ir::SpecialExpr>(E);
    ir::SpecialReg Reg = S->getReg();
    if (Reg != ir::SpecialReg::BlockDimX && Reg != ir::SpecialReg::GridDimX &&
        Reg != ir::SpecialReg::WarpSize)
      return false;
    W.u8(static_cast<unsigned char>(ExprTag::Special));
    W.u8(static_cast<unsigned char>(Reg));
    return true;
  }
  case ir::Expr::Kind::Binary: {
    const auto *B = cast<ir::BinaryOpExpr>(E);
    if (B->getOp() > ir::BinOp::Max)
      return false; // Comparisons/logic never extend a shared array.
    W.u8(static_cast<unsigned char>(ExprTag::Binary));
    W.u8(static_cast<unsigned char>(B->getOp()));
    W.u8(static_cast<unsigned char>(B->getType()));
    return writeExtentExpr(W, B->getLHS()) && writeExtentExpr(W, B->getRHS());
  }
  default:
    return false;
  }
}

/// Rebuilds an extent tree into \p M's arena, resolving ParamRefs against
/// \p K's (already rebuilt) parameter list. Null means malformed input.
ir::Expr *readExtentExpr(ByteReader &R, ir::Module &M, const ir::Kernel &K,
                         unsigned Depth) {
  if (Depth > MaxExprDepth)
    return nullptr;
  switch (static_cast<ExprTag>(R.u8())) {
  case ExprTag::IntConst: {
    unsigned char Ty = R.u8();
    long long V = R.i64();
    if (R.failed() || Ty > static_cast<unsigned char>(ir::ScalarType::F64))
      return nullptr;
    return M.constI(V, static_cast<ir::ScalarType>(Ty));
  }
  case ExprTag::ParamRef: {
    uint32_t Index = R.u32();
    if (R.failed() || Index >= K.getParams().size())
      return nullptr;
    return M.ref(K.getParams()[Index].get());
  }
  case ExprTag::Special: {
    unsigned char Reg = R.u8();
    if (R.failed() ||
        (Reg != static_cast<unsigned char>(ir::SpecialReg::BlockDimX) &&
         Reg != static_cast<unsigned char>(ir::SpecialReg::GridDimX) &&
         Reg != static_cast<unsigned char>(ir::SpecialReg::WarpSize)))
      return nullptr;
    return M.special(static_cast<ir::SpecialReg>(Reg));
  }
  case ExprTag::Binary: {
    unsigned char Op = R.u8();
    unsigned char Ty = R.u8();
    if (R.failed() || Op > static_cast<unsigned char>(ir::BinOp::Max) ||
        Ty > static_cast<unsigned char>(ir::ScalarType::F64))
      return nullptr;
    ir::Expr *L = readExtentExpr(R, M, K, Depth + 1);
    if (!L)
      return nullptr;
    ir::Expr *Rhs = readExtentExpr(R, M, K, Depth + 1);
    if (!Rhs)
      return nullptr;
    return M.binary(static_cast<ir::BinOp>(Op), L, Rhs,
                    static_cast<ir::ScalarType>(Ty));
  }
  }
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Variant records
//===----------------------------------------------------------------------===//

/// One stage of the variant chain (the top-level variant or a second-stage
/// kernel), recursively.
Status writeStage(ByteWriter &W, const SynthesizedVariant &V,
                  unsigned Depth) {
  if (Depth > MaxStageDepth)
    return Status(StatusCode::SynthesisError,
                  "variant second-stage chain too deep to serialize");
  const ir::CompiledKernel &CK = V.Compiled;
  if (!CK.Source)
    return Status(StatusCode::SynthesisError,
                  "variant has no source kernel; cannot serialize its "
                  "launch signature");

  // Descriptor (structure + tunables) and the reduction axis.
  W.u8(static_cast<unsigned char>(V.Desc.GridDist));
  W.u8(static_cast<unsigned char>(V.Desc.GridScheme));
  W.u8(V.Desc.BlockDistributes ? 1 : 0);
  W.u8(static_cast<unsigned char>(V.Desc.BlockDist));
  W.u8(static_cast<unsigned char>(V.Desc.Coop));
  W.u32(V.Desc.BlockSize);
  W.u32(V.Desc.Coarsen);
  W.u8(static_cast<unsigned char>(V.Op));
  W.u8(static_cast<unsigned char>(V.Elem));
  W.f64(V.CompileSeconds);

  // Kernel signature skeleton: everything the launchers consult through
  // CompiledKernel::Source. Parameter order encodes Param::Index; the
  // local *count* alone feeds getRegisterEstimate, keeping the occupancy
  // model's verdict identical to the freshly compiled kernel's.
  const ir::Kernel &K = *CK.Source;
  W.str(CK.Name);
  W.u32(CK.NumRegisters);
  W.u32(static_cast<uint32_t>(K.getParams().size()));
  for (const auto &P : K.getParams()) {
    W.str(P->Name);
    W.u8(static_cast<unsigned char>(P->Elem));
    W.u8(P->IsPointer ? 1 : 0);
  }
  W.u32(static_cast<uint32_t>(K.getLocals().size()));
  W.u32(static_cast<uint32_t>(CK.SharedArrays.size()));
  for (const ir::SharedArray *A : CK.SharedArrays) {
    W.str(A->Name);
    W.u8(static_cast<unsigned char>(A->Elem));
    W.u8(A->IsDynamic ? 1 : 0);
    W.u8(A->Extent ? 1 : 0);
    if (A->Extent && !writeExtentExpr(W, A->Extent))
      return Status(StatusCode::SynthesisError,
                    "shared-array extent of '" + A->Name +
                        "' is outside the serializable launch-uniform "
                        "expression subset");
  }
  W.u32(static_cast<uint32_t>(CK.ScalarParamRegs.size()));
  for (const auto &[P, Reg] : CK.ScalarParamRegs) {
    W.u32(P->Index);
    W.u16(Reg);
  }

  // The bytecode itself, field by field, plus the source-loc table.
  W.u32(static_cast<uint32_t>(CK.Code.size()));
  for (const ir::Instr &In : CK.Code) {
    W.u8(static_cast<unsigned char>(In.Op));
    W.u8(static_cast<unsigned char>(In.Ty));
    W.u16(In.Dst);
    W.u16(In.Src1);
    W.u16(In.Src2);
    W.u16(In.MemId);
    W.u32(In.Target);
    W.u8(In.Aux);
    W.u8(In.Aux2);
    W.i64(In.ImmI);
    W.f64(In.ImmF);
  }
  W.u32(static_cast<uint32_t>(CK.InstrLocs.size()));
  for (SourceLoc L : CK.InstrLocs)
    W.u32(L.getOffset());

  // Content-hash echo: the reader recomputes ir::stableHash over its
  // reconstruction and compares, proving the round trip bit-identical
  // (not merely checksum-clean).
  W.u64(ir::stableHash(CK));

  // Native register-plane lowering, when the variant was resolved for the
  // native backend. Code pointer is rebound on read.
  if (V.Native) {
    W.u8(1);
    const native::NativeKernel &NK = *V.Native;
    W.u32(static_cast<uint32_t>(NK.OperandPlane.size()));
    for (native::ValuePlane P : NK.OperandPlane)
      W.u8(static_cast<unsigned char>(P));
    W.u8(NK.PairMode ? 1 : 0);
    W.u8(NK.UsesInt ? 1 : 0);
    W.u8(NK.UsesF32 ? 1 : 0);
    W.u8(NK.UsesF64 ? 1 : 0);
  } else {
    W.u8(0);
  }

  if (V.SecondStage) {
    W.u8(1);
    return writeStage(W, *V.SecondStage, Depth + 1);
  }
  W.u8(0);
  return Status::success();
}

/// Reads one stage record. Returns null on any malformed content (the
/// caller reports that as corruption).
std::unique_ptr<SynthesizedVariant> readStage(ByteReader &R, unsigned Depth) {
  if (Depth > MaxStageDepth)
    return nullptr;
  auto V = std::make_unique<SynthesizedVariant>();

  unsigned char GridDist = R.u8();
  unsigned char GridScheme = R.u8();
  unsigned char BlockDistributes = R.u8();
  unsigned char BlockDist = R.u8();
  unsigned char Coop = R.u8();
  uint32_t BlockSize = R.u32();
  uint32_t Coarsen = R.u32();
  unsigned char Op = R.u8();
  unsigned char Elem = R.u8();
  double CompileSeconds = R.f64();
  if (R.failed() ||
      GridDist > static_cast<unsigned char>(transforms::DistPattern::Strided) ||
      GridScheme > static_cast<unsigned char>(GridCombine::GlobalAtomic) ||
      BlockDistributes > 1 ||
      BlockDist > static_cast<unsigned char>(transforms::DistPattern::Strided) ||
      Coop > static_cast<unsigned char>(CoopKind::SerialThread0) ||
      Op > static_cast<unsigned char>(ReduceOp::Any) ||
      Elem > static_cast<unsigned char>(ir::ScalarType::F64))
    return nullptr;
  V->Desc.GridDist = static_cast<transforms::DistPattern>(GridDist);
  V->Desc.GridScheme = static_cast<GridCombine>(GridScheme);
  V->Desc.BlockDistributes = BlockDistributes != 0;
  V->Desc.BlockDist = static_cast<transforms::DistPattern>(BlockDist);
  V->Desc.Coop = static_cast<CoopKind>(Coop);
  V->Desc.BlockSize = BlockSize;
  V->Desc.Coarsen = Coarsen;
  V->Op = static_cast<ReduceOp>(Op);
  V->Elem = static_cast<ir::ScalarType>(Elem);
  V->CompileSeconds = CompileSeconds;

  // Rebuild the kernel skeleton into a fresh module the variant owns.
  V->M = std::make_unique<ir::Module>();
  std::string Name = R.str();
  uint32_t NumRegisters = R.u32();
  uint32_t ParamCount = R.u32();
  if (R.failed() || ParamCount > (1u << 16))
    return nullptr;
  ir::Kernel *K = V->M->addKernel(Name);
  for (uint32_t I = 0; I != ParamCount; ++I) {
    std::string PName = R.str();
    unsigned char PElem = R.u8();
    unsigned char IsPointer = R.u8();
    if (R.failed() || PElem > static_cast<unsigned char>(ir::ScalarType::F64))
      return nullptr;
    if (IsPointer)
      K->addPointerParam(std::move(PName), static_cast<ir::ScalarType>(PElem));
    else
      K->addScalarParam(std::move(PName), static_cast<ir::ScalarType>(PElem));
  }
  uint32_t LocalCount = R.u32();
  if (R.failed() || LocalCount > (1u << 20))
    return nullptr;
  for (uint32_t I = 0; I != LocalCount; ++I)
    K->addLocal("reg" + std::to_string(I), ir::ScalarType::I32);

  ir::CompiledKernel &CK = V->Compiled;
  CK.Name = Name;
  CK.Source = K;
  CK.NumRegisters = NumRegisters;

  uint32_t SharedCount = R.u32();
  if (R.failed() || SharedCount > (1u << 16))
    return nullptr;
  for (uint32_t I = 0; I != SharedCount; ++I) {
    std::string AName = R.str();
    unsigned char AElem = R.u8();
    unsigned char IsDynamic = R.u8();
    unsigned char HasExtent = R.u8();
    if (R.failed() || AElem > static_cast<unsigned char>(ir::ScalarType::F64))
      return nullptr;
    ir::Expr *Extent = nullptr;
    if (HasExtent) {
      Extent = readExtentExpr(R, *V->M, *K, 0);
      if (!Extent)
        return nullptr;
    }
    CK.SharedArrays.push_back(
        K->addSharedArray(std::move(AName), static_cast<ir::ScalarType>(AElem),
                          Extent, IsDynamic != 0));
  }

  uint32_t ScalarRegCount = R.u32();
  if (R.failed() || ScalarRegCount > ParamCount)
    return nullptr;
  for (uint32_t I = 0; I != ScalarRegCount; ++I) {
    uint32_t Index = R.u32();
    uint16_t Reg = R.u16();
    if (R.failed() || Index >= K->getParams().size())
      return nullptr;
    CK.ScalarParamRegs.emplace_back(K->getParams()[Index].get(), Reg);
  }

  uint32_t CodeCount = R.u32();
  if (R.failed() || CodeCount > (1u << 24))
    return nullptr;
  CK.Code.reserve(CodeCount);
  for (uint32_t I = 0; I != CodeCount; ++I) {
    ir::Instr In;
    unsigned char Op8 = R.u8();
    unsigned char Ty8 = R.u8();
    In.Dst = R.u16();
    In.Src1 = R.u16();
    In.Src2 = R.u16();
    In.MemId = R.u16();
    In.Target = R.u32();
    In.Aux = R.u8();
    In.Aux2 = R.u8();
    In.ImmI = R.i64();
    In.ImmF = R.f64();
    if (R.failed() || Op8 > static_cast<unsigned char>(ir::Opcode::Exit) ||
        Ty8 > static_cast<unsigned char>(ir::ScalarType::F64))
      return nullptr;
    In.Op = static_cast<ir::Opcode>(Op8);
    In.Ty = static_cast<ir::ScalarType>(Ty8);
    CK.Code.push_back(In);
  }

  uint32_t LocCount = R.u32();
  if (R.failed() || LocCount > CodeCount)
    return nullptr;
  CK.InstrLocs.reserve(LocCount);
  for (uint32_t I = 0; I != LocCount; ++I)
    CK.InstrLocs.push_back(SourceLoc(R.u32()));

  // The round-trip proof: the reconstruction must hash identically to the
  // kernel that was serialized.
  uint64_t HashEcho = R.u64();
  if (R.failed() || ir::stableHash(CK) != HashEcho)
    return nullptr;

  unsigned char HasNative = R.u8();
  if (R.failed() || HasNative > 1)
    return nullptr;
  if (HasNative) {
    native::NativeKernel NK;
    NK.Code = &CK;
    uint32_t PlaneCount = R.u32();
    if (R.failed() || PlaneCount != CodeCount)
      return nullptr;
    NK.OperandPlane.reserve(PlaneCount);
    for (uint32_t I = 0; I != PlaneCount; ++I) {
      unsigned char P = R.u8();
      if (P > static_cast<unsigned char>(native::ValuePlane::F64))
        return nullptr;
      NK.OperandPlane.push_back(static_cast<native::ValuePlane>(P));
    }
    NK.PairMode = R.u8() != 0;
    NK.UsesInt = R.u8() != 0;
    NK.UsesF32 = R.u8() != 0;
    NK.UsesF64 = R.u8() != 0;
    if (R.failed())
      return nullptr;
    V->Native = std::make_shared<const native::NativeKernel>(std::move(NK));
  }

  unsigned char HasSecond = R.u8();
  if (R.failed() || HasSecond > 1)
    return nullptr;
  if (HasSecond) {
    V->SecondStage = readStage(R, Depth + 1);
    if (!V->SecondStage)
      return nullptr;
  }
  return V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

Expected<std::vector<unsigned char>>
tangram::synth::serializeVariant(const SynthesizedVariant &V,
                                 const ArtifactKey &Key) {
  ByteWriter Payload;
  Status S = writeStage(Payload, V, 0);
  if (!S.ok())
    return S;

  ByteWriter Out;
  Out.Bytes.reserve(HeaderSize + Payload.Bytes.size());
  for (unsigned char C : Magic)
    Out.u8(C);
  Out.u32(VariantArtifactVersion);
  Out.u64(Key.SourceHash);
  Out.u64(Key.DescHash);
  Out.u8(Key.Gen);
  Out.u8(Key.Op);
  Out.u8(Key.Elem);
  Out.u8(Key.Flags);
  Out.u8(Key.BackendKind);
  Out.u8(0);
  Out.u8(0);
  Out.u8(0); // Pad to an 8-byte boundary; reserved, must be zero.
  Out.u64(Payload.Bytes.size());
  Out.u64(support::binaryChecksum(Payload.Bytes.data(), Payload.Bytes.size()));
  // The header checksum covers everything before it, so a bit flip in the
  // key echo or size field is caught before any of them is trusted.
  Out.u64(support::binaryChecksum(Out.Bytes.data(), Out.Bytes.size()));
  Out.Bytes.insert(Out.Bytes.end(), Payload.Bytes.begin(),
                   Payload.Bytes.end());
  return std::move(Out.Bytes);
}

Expected<std::unique_ptr<SynthesizedVariant>>
tangram::synth::deserializeVariant(const unsigned char *Data, size_t Size,
                                   const ArtifactKey &Expect) {
  if (Size < HeaderSize)
    return Status(StatusCode::InvalidArgument,
                  "variant artifact truncated before the header");
  if (std::memcmp(Data, Magic, sizeof(Magic)) != 0)
    return Status(StatusCode::InvalidArgument,
                  "variant artifact has no TGRV magic");
  ByteReader H(Data, HeaderSize);
  for (unsigned I = 0; I != 4; ++I)
    H.u8(); // Magic, already checked.
  uint32_t Version = H.u32();
  ArtifactKey Stored;
  Stored.SourceHash = H.u64();
  Stored.DescHash = H.u64();
  Stored.Gen = H.u8();
  Stored.Op = H.u8();
  Stored.Elem = H.u8();
  Stored.Flags = H.u8();
  Stored.BackendKind = H.u8();
  H.u8();
  H.u8();
  H.u8(); // Reserved pad.
  uint64_t PayloadSize = H.u64();
  uint64_t PayloadChecksum = H.u64();
  uint64_t HeaderChecksum = H.u64();
  if (support::binaryChecksum(Data, HeaderSize - 8) != HeaderChecksum)
    return Status(StatusCode::InvalidArgument,
                  "variant artifact header checksum mismatch");
  if (Version != VariantArtifactVersion)
    return Status(StatusCode::InvalidArgument,
                  "variant artifact format version " + std::to_string(Version) +
                      " is not the supported version " +
                      std::to_string(VariantArtifactVersion));
  if (PayloadSize != Size - HeaderSize)
    return Status(StatusCode::InvalidArgument,
                  "variant artifact payload size disagrees with the file");
  if (support::binaryChecksum(Data + HeaderSize, PayloadSize) != PayloadChecksum)
    return Status(StatusCode::InvalidArgument,
                  "variant artifact payload checksum mismatch");

  // Header proven intact: a key disagreement is now the content-addressing
  // contract being violated, not bit rot.
  if (!(Stored == Expect))
    return Status(StatusCode::InternalError,
                  "variant artifact carries a different identity than the "
                  "key it was addressed by (content-addressing integrity "
                  "failure)");

  ByteReader R(Data + HeaderSize, PayloadSize);
  std::unique_ptr<SynthesizedVariant> V = readStage(R, 0);
  if (!V || R.failed() || !R.atEnd())
    return Status(StatusCode::InvalidArgument,
                  "variant artifact payload is malformed");
  return V;
}
