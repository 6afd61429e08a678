//===- NativeMachine.cpp - Native CPU execution engine ---------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
// Float-exactness note: the interpreter evaluates F32 arithmetic in double
// and rounds to float on every register write (SimtMachine's setF). For
// every float op the synthesizer emits — add, sub, mul, min, max, the
// reduce combines, and the comparisons — evaluating directly in float is
// bit-identical: the exact product/sum of two floats is representable in
// double, so "compute in double, round once" IS the correctly-rounded
// float operation. The only exceptions are float division (double
// rounding, not emitted by reduction kernels) and the vectorized
// multi-element load, which the interpreter accumulates in double — the
// machine below does the same there. Integer and pair (argmin/argmax)
// semantics are shared outright via ir::wrapToType / ir::saturatingIntOf /
// applyReduceOp*, so int results are always bitwise equal. Global stores
// and atomics of both machines commit through sim::Buffer::commit, which
// folds F32 in double and rounds once: by the argument above, exactly the
// float operation.
//
//===----------------------------------------------------------------------===//

#include "native/NativeMachine.h"

#include "native/VecTraits.h"
#include "support/ErrorHandling.h"
#include "support/ReduceOp.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <cmath>
#include <type_traits>

using namespace tangram;
using namespace tangram::ir;
using namespace tangram::native;
using sim::ArgValue;
using sim::Buffer;
using sim::LaunchConfig;

namespace {

/// Typed, non-owning window into one pointer argument's device buffer.
struct View {
  bool IsBuffer = false;
  Plane P = Plane::Int;
  bool Writable = false;
  size_t Size = 0;
  float *F32 = nullptr;
  double *F64 = nullptr;
  long long *I = nullptr;
  long long *Idx = nullptr;
};

struct Frame {
  uint32_t Saved = 0;
  uint32_t Else = 0;
};

/// One warp's state: typed register planes instead of Cell registers.
/// Plane layout is register-major (Plane[reg * 32 + lane]) so each
/// register's 32 lanes are one contiguous, alignable vector group.
struct NWarp {
  uint32_t PC = 0;
  uint32_t Active = 0;
  unsigned TidBase = 0;
  bool Done = false;
  bool AtBarrier = false;
  std::vector<Frame> Stack;
  std::vector<long long> I;
  std::vector<float> F32;
  std::vector<double> F64;
  std::vector<long long> Idx;
};

/// Typed per-block shared array (the per-block stack buffer that replaces
/// `__shared__` memory).
struct SharedArr {
  Plane P = Plane::Int;
  size_t Size = 0;
  std::vector<float> F32;
  std::vector<double> F64;
  std::vector<long long> I;
  std::vector<long long> Idx;
};

/// Executes one block natively: warps run to the barrier in epochs on the
/// calling thread, lane loops vectorize per VecTraits.h.
class NativeBlockExec {
public:
  NativeBlockExec(const NativeKernel &NK, const LaunchConfig &Config,
                  const std::vector<ArgValue> &Args,
                  std::vector<View> &Views, sim::Device &Dev,
                  uint64_t InstrBudget)
      : NK(NK), K(*NK.Code), Config(Config), Args(Args), Views(Views),
        Dev(Dev), InstrBudget(InstrBudget) {}

  /// Runs block \p B into \p Out, logging its global writes to \p BlockLog
  /// when that is non-null and committing them in place otherwise. Reusing
  /// one executor across a sequential grid keeps the per-warp plane
  /// vectors' storage allocated (init* re-fill in place), which matters
  /// when the grid has hundreds of thousands of small blocks. The
  /// instruction budget, deadline flag and counts are per block, exactly
  /// as if freshly constructed.
  void runBlock(unsigned B, sim::BlockOutcome &Out,
                std::vector<sim::GlobalWrite> *BlockLog) {
    BlockIdx = B;
    Errors = &Out.Errors;
    Log = BlockLog;
    IssuedWarpInstrs = 0;
    BudgetExhausted = false;
    DeadlineReported = false;
    WarpInstructions = 0;
    LaneInstructions = 0;
    run();
    Out.DeadlineExceeded = BudgetExhausted;
    Out.Stats.WarpInstructions = WarpInstructions;
    Out.Stats.LaneInstructions = LaneInstructions;
  }

private:
  void run() {
    initShared();
    initWarps();
    // Barrier-epoch loop, identical in structure to the interpreter: run
    // every runnable warp to the next barrier (or exit), then release all
    // waiting warps together. Barriers are block-uniform (verified IR).
    while (true) {
      bool AnyRunnable = false;
      for (NWarp &W : Warps) {
        if (W.Done || W.AtBarrier)
          continue;
        AnyRunnable = true;
        resume(W);
      }
      if (!AnyRunnable) {
        bool AnyWaiting = false;
        for (NWarp &W : Warps)
          if (!W.Done && W.AtBarrier) {
            W.AtBarrier = false;
            AnyWaiting = true;
          }
        if (!AnyWaiting)
          break;
      }
    }
    if (BudgetExhausted)
      deadline();
  }

  void error(const std::string &Msg) {
    if (Errors->size() < 8)
      Errors->push_back("kernel '" + K.Name + "' block " +
                        strformat("%u", BlockIdx) + ": " + Msg);
  }

  /// Logs \p W (parallel mode) or commits it to device memory in place.
  void writeGlobal(const sim::GlobalWrite &W) {
    if (Log)
      Log->push_back(W);
    else
      Dev.get(W.Buf).commit(W);
  }

  void initShared() {
    Shared.resize(K.SharedArrays.size());
    for (size_t I = 0; I != K.SharedArrays.size(); ++I) {
      const SharedArray *A = K.SharedArrays[I];
      size_t Extent;
      if (A->IsDynamic)
        Extent = Config.DynSharedElems;
      else if (A->Extent)
        Extent = static_cast<size_t>(std::max<long long>(
            0, sim::evalUniformExpr(A->Extent, K, Args, Config)));
      else
        Extent = 1;
      SharedArr &S = Shared[I];
      S.P = planeOf(A->Elem);
      S.Size = Extent;
      switch (S.P) {
      case Plane::F32:
        S.F32.assign(Extent, 0.0f);
        break;
      case Plane::F64:
        S.F64.assign(Extent, 0.0);
        break;
      case Plane::Int:
        S.I.assign(Extent, 0);
        break;
      }
      if (NK.PairMode)
        S.Idx.assign(Extent, 0);
    }
  }

  void initWarps() {
    unsigned NumWarps = (Config.BlockDim + WarpLanes - 1) / WarpLanes;
    size_t PlaneSize = static_cast<size_t>(K.NumRegisters) * WarpLanes;
    Warps.resize(NumWarps);
    for (unsigned WI = 0; WI != NumWarps; ++WI) {
      NWarp &W = Warps[WI];
      W.PC = 0;
      W.Done = false;
      W.AtBarrier = false;
      W.Stack.clear();
      W.TidBase = WI * WarpLanes;
      unsigned Remaining = Config.BlockDim - W.TidBase;
      W.Active =
          Remaining >= WarpLanes ? FullMask : ((1u << Remaining) - 1u);
      if (NK.UsesInt)
        W.I.assign(PlaneSize, 0);
      if (NK.UsesF32)
        W.F32.assign(PlaneSize, 0.0f);
      if (NK.UsesF64)
        W.F64.assign(PlaneSize, 0.0);
      if (NK.PairMode)
        W.Idx.assign(PlaneSize, 0);
      // Scalar parameters fill every allocated plane — the interpreter
      // binds the whole Cell (I and F views consistent), and the dataflow
      // models these registers as plane-uniform.
      for (const auto &[P, Reg] : K.ScalarParamRegs) {
        const ArgValue &V = Args.at(P->Index);
        size_t Off = static_cast<size_t>(Reg) * WarpLanes;
        std::fill_n(&W.I[Off], WarpLanes, V.Scalar.I);
        if (NK.UsesF32)
          std::fill_n(&W.F32[Off], WarpLanes,
                      static_cast<float>(V.Scalar.F));
        if (NK.UsesF64)
          std::fill_n(&W.F64[Off], WarpLanes, V.Scalar.F);
        if (NK.PairMode)
          std::fill_n(&W.Idx[Off], WarpLanes, V.Scalar.Idx);
      }
    }
  }

  long long *ip(NWarp &W, uint16_t R) {
    return W.I.data() + static_cast<size_t>(R) * WarpLanes;
  }
  float *fp(NWarp &W, uint16_t R) {
    return W.F32.data() + static_cast<size_t>(R) * WarpLanes;
  }
  double *dp(NWarp &W, uint16_t R) {
    return W.F64.data() + static_cast<size_t>(R) * WarpLanes;
  }
  long long *xp(NWarp &W, uint16_t R) {
    return W.Idx.data() + static_cast<size_t>(R) * WarpLanes;
  }

  static unsigned popcount(uint32_t M) { return __builtin_popcount(M); }

  /// True when all 32 lanes of \p B hold the same value (vectorizable
  /// scan; callers use it to gate uniform-divisor fast paths).
  static bool uniformLanes(const long long *B) {
    long long Acc = 0;
    TGR_VEC_LOOP
    for (unsigned L = 1; L != WarpLanes; ++L)
      Acc |= B[L] ^ B[0];
    return Acc == 0;
  }

  /// If a full warp addresses 32 consecutive elements (IdxP[L] ==
  /// IdxP[0] + L, the coalesced-access pattern), returns the base index;
  /// -1 otherwise. Callers still bounds-check the base.
  static long long contiguousBase(const long long *IdxP, uint32_t M) {
    if (M != FullMask)
      return -1;
    long long Acc = 0;
    TGR_VEC_LOOP
    for (unsigned L = 0; L != WarpLanes; ++L)
      Acc |= IdxP[L] - IdxP[0] - static_cast<long long>(L);
    return Acc == 0 ? IdxP[0] : -1;
  }

  void charge(uint32_t Mask) {
    WarpInstructions += 1;
    LaneInstructions += popcount(Mask);
    if (++IssuedWarpInstrs > InstrBudget)
      BudgetExhausted = true;
  }

  void deadline() {
    if (!DeadlineReported) {
      DeadlineReported = true;
      error(strformat("warp-instruction budget %llu exhausted "
                      "(deadline exceeded; possible livelock)",
                      static_cast<unsigned long long>(InstrBudget)));
    }
    for (NWarp &W : Warps) {
      W.Done = true;
      W.AtBarrier = false;
    }
  }

  /// Integer binary arithmetic with the per-type wrap hoisted out of the
  /// lane loop so the loop body stays vectorizable.
  template <typename OpFn>
  void intBin(long long *D, const long long *A, const long long *B,
              uint32_t M, ScalarType Ty, OpFn Op) {
    switch (Ty) {
    case ScalarType::I64:
      forEachLane(M, [&](unsigned L) { D[L] = Op(A[L], B[L]); });
      break;
    case ScalarType::U32:
      forEachLane(M, [&](unsigned L) {
        D[L] = static_cast<long long>(
            static_cast<uint32_t>(Op(A[L], B[L])));
      });
      break;
    default:
      forEachLane(M, [&](unsigned L) {
        D[L] = static_cast<long long>(static_cast<int32_t>(Op(A[L], B[L])));
      });
      break;
    }
  }

  void aluInt(NWarp &W, const Instr &In) {
    uint32_t M = W.Active;
    long long *D = ip(W, In.Dst);
    const long long *A = ip(W, In.Src1), *B = ip(W, In.Src2);
    switch (In.Op) {
    case Opcode::Add:
      intBin(D, A, B, M, In.Ty, [](long long X, long long Y) { return X + Y; });
      break;
    case Opcode::Sub:
      intBin(D, A, B, M, In.Ty, [](long long X, long long Y) { return X - Y; });
      break;
    case Opcode::Mul:
      intBin(D, A, B, M, In.Ty, [](long long X, long long Y) { return X * Y; });
      break;
    case Opcode::Min:
      intBin(D, A, B, M, In.Ty,
             [](long long X, long long Y) { return std::min(X, Y); });
      break;
    case Opcode::Max:
      intBin(D, A, B, M, In.Ty,
             [](long long X, long long Y) { return std::max(X, Y); });
      break;
    case Opcode::Div:
      // Hardware integer division is serial and tens of cycles per lane,
      // and nearly every division the synthesizer emits divides by a
      // broadcast power-of-two (halving a shuffle offset, lanes-per-warp
      // arithmetic). A uniform positive 2^k divisor becomes a branchless
      // vector shift; the bias keeps C's round-toward-zero for negative
      // dividends.
      if (long long B0 = B[0];
          M == FullMask && B0 > 0 && (B0 & (B0 - 1)) == 0 &&
          uniformLanes(B)) {
        unsigned Sh = static_cast<unsigned>(__builtin_ctzll(B0));
        long long Bias = B0 - 1;
        intBin(D, A, B, M, In.Ty, [=](long long X, long long) {
          return (X + ((X >> 63) & Bias)) >> Sh;
        });
        break;
      }
      for (unsigned L = 0; L != WarpLanes; ++L)
        if (M >> L & 1u) {
          if (B[L] == 0) {
            error("integer division by zero");
            D[L] = 0;
          } else
            D[L] = wrapToType(In.Ty, A[L] / B[L]);
        }
      break;
    case Opcode::Rem:
      if (long long B0 = B[0];
          M == FullMask && B0 > 0 && (B0 & (B0 - 1)) == 0 &&
          uniformLanes(B)) {
        unsigned Sh = static_cast<unsigned>(__builtin_ctzll(B0));
        long long Bias = B0 - 1;
        intBin(D, A, B, M, In.Ty, [=](long long X, long long) {
          return X - (((X + ((X >> 63) & Bias)) >> Sh) << Sh);
        });
        break;
      }
      for (unsigned L = 0; L != WarpLanes; ++L)
        if (M >> L & 1u) {
          if (B[L] == 0) {
            error("integer remainder by zero");
            D[L] = 0;
          } else
            D[L] = wrapToType(In.Ty, A[L] % B[L]);
        }
      break;
    case Opcode::SetLT:
      forEachLane(M, [&](unsigned L) { D[L] = A[L] < B[L]; });
      break;
    case Opcode::SetGT:
      forEachLane(M, [&](unsigned L) { D[L] = A[L] > B[L]; });
      break;
    case Opcode::SetLE:
      forEachLane(M, [&](unsigned L) { D[L] = A[L] <= B[L]; });
      break;
    case Opcode::SetGE:
      forEachLane(M, [&](unsigned L) { D[L] = A[L] >= B[L]; });
      break;
    case Opcode::SetEQ:
      forEachLane(M, [&](unsigned L) { D[L] = A[L] == B[L]; });
      break;
    case Opcode::SetNE:
      forEachLane(M, [&](unsigned L) { D[L] = A[L] != B[L]; });
      break;
    case Opcode::LAnd:
      forEachLane(M,
                  [&](unsigned L) { D[L] = (A[L] != 0) && (B[L] != 0); });
      break;
    case Opcode::LOr:
      forEachLane(M,
                  [&](unsigned L) { D[L] = (A[L] != 0) || (B[L] != 0); });
      break;
    default:
      tgr_unreachable("bad integer ALU op");
    }
  }

  template <typename T> void aluFloat(NWarp &W, const Instr &In, T *Base) {
    uint32_t M = W.Active;
    size_t Stride = WarpLanes;
    T *D = Base + In.Dst * Stride;
    const T *A = Base + In.Src1 * Stride, *B = Base + In.Src2 * Stride;
    switch (In.Op) {
    case Opcode::Add:
      forEachLane(M, [&](unsigned L) { D[L] = A[L] + B[L]; });
      return;
    case Opcode::Sub:
      forEachLane(M, [&](unsigned L) { D[L] = A[L] - B[L]; });
      return;
    case Opcode::Mul:
      forEachLane(M, [&](unsigned L) { D[L] = A[L] * B[L]; });
      return;
    case Opcode::Min:
      forEachLane(M, [&](unsigned L) { D[L] = std::min(A[L], B[L]); });
      return;
    case Opcode::Max:
      forEachLane(M, [&](unsigned L) { D[L] = std::max(A[L], B[L]); });
      return;
    case Opcode::Div:
      // Rare in reduction kernels; matches the interpreter's
      // double-evaluated division (and its division-by-zero diagnostic)
      // exactly rather than risking a double-rounding ULP.
      for (unsigned L = 0; L != WarpLanes; ++L)
        if (M >> L & 1u) {
          if (B[L] == T(0)) {
            error("floating division by zero");
            D[L] = T(0);
          } else
            D[L] = static_cast<T>(static_cast<double>(A[L]) /
                                  static_cast<double>(B[L]));
        }
      return;
    default:
      break;
    }
    // Comparisons and logic read the float plane but write the 0/1 result
    // to the destination's integer plane (the interpreter's setI).
    long long *DI = ip(W, In.Dst);
    switch (In.Op) {
    case Opcode::SetLT:
      forEachLane(M, [&](unsigned L) { DI[L] = A[L] < B[L]; });
      break;
    case Opcode::SetGT:
      forEachLane(M, [&](unsigned L) { DI[L] = A[L] > B[L]; });
      break;
    case Opcode::SetLE:
      forEachLane(M, [&](unsigned L) { DI[L] = A[L] <= B[L]; });
      break;
    case Opcode::SetGE:
      forEachLane(M, [&](unsigned L) { DI[L] = A[L] >= B[L]; });
      break;
    case Opcode::SetEQ:
      forEachLane(M, [&](unsigned L) { DI[L] = A[L] == B[L]; });
      break;
    case Opcode::SetNE:
      forEachLane(M, [&](unsigned L) { DI[L] = A[L] != B[L]; });
      break;
    case Opcode::LAnd:
      forEachLane(
          M, [&](unsigned L) { DI[L] = (A[L] != T(0)) && (B[L] != T(0)); });
      break;
    case Opcode::LOr:
      forEachLane(
          M, [&](unsigned L) { DI[L] = (A[L] != T(0)) || (B[L] != T(0)); });
      break;
    default:
      tgr_unreachable("bad float ALU op");
    }
  }

  void opCast(NWarp &W, const Instr &In) {
    auto From = static_cast<ScalarType>(In.Aux);
    uint32_t M = W.Active;
    Plane FromP = planeOf(From), ToP = planeOf(In.Ty);
    // Source lane as double (floats) or long long (ints), then convert
    // with the interpreter's rounding/saturation rules.
    if (ToP == Plane::Int) {
      long long *D = ip(W, In.Dst);
      ScalarType Ty = In.Ty;
      if (FromP == Plane::Int) {
        const long long *S = ip(W, In.Src1);
        forEachLane(M, [&](unsigned L) { D[L] = wrapToType(Ty, S[L]); });
      } else if (FromP == Plane::F32) {
        const float *S = fp(W, In.Src1);
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (M >> L & 1u)
            D[L] = wrapToType(Ty, saturatingIntOf(S[L]));
      } else {
        const double *S = dp(W, In.Src1);
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (M >> L & 1u)
            D[L] = wrapToType(Ty, saturatingIntOf(S[L]));
      }
      return;
    }
    auto Src = [&](unsigned L) -> double {
      switch (FromP) {
      case Plane::Int:
        return static_cast<double>(ip(W, In.Src1)[L]);
      case Plane::F32:
        return fp(W, In.Src1)[L];
      case Plane::F64:
        return dp(W, In.Src1)[L];
      }
      return 0;
    };
    if (ToP == Plane::F32) {
      float *D = fp(W, In.Dst);
      for (unsigned L = 0; L != WarpLanes; ++L)
        if (M >> L & 1u)
          D[L] = static_cast<float>(Src(L));
    } else {
      double *D = dp(W, In.Dst);
      for (unsigned L = 0; L != WarpLanes; ++L)
        if (M >> L & 1u)
          D[L] = Src(L);
    }
  }

  /// Copies one register's lanes (Mov): the live value plane (per the
  /// lowering's dataflow) plus the index payload. `All` — the source is
  /// plane-uniform (parameter or never written) — copies every allocated
  /// plane so the destination becomes uniform too.
  void copyReg(NWarp &W, uint16_t Dst, uint16_t Src, uint32_t M,
               ValuePlane VP) {
    if (VP == ValuePlane::Int || VP == ValuePlane::All) {
      long long *D = ip(W, Dst);
      const long long *S = ip(W, Src);
      forEachLane(M, [&](unsigned L) { D[L] = S[L]; });
    }
    if (NK.UsesF32 && (VP == ValuePlane::F32 || VP == ValuePlane::All)) {
      float *D = fp(W, Dst);
      const float *S = fp(W, Src);
      forEachLane(M, [&](unsigned L) { D[L] = S[L]; });
    }
    if (NK.UsesF64 && (VP == ValuePlane::F64 || VP == ValuePlane::All)) {
      double *D = dp(W, Dst);
      const double *S = dp(W, Src);
      forEachLane(M, [&](unsigned L) { D[L] = S[L]; });
    }
    if (NK.PairMode) {
      long long *D = xp(W, Dst);
      const long long *S = xp(W, Src);
      forEachLane(M, [&](unsigned L) { D[L] = S[L]; });
    }
  }

  /// Warp shuffle as an in-register permute: resolve each lane's source
  /// (with CUDA's own-value fallback outside the segment), then gather on
  /// the live plane(s) of the shuffled value.
  void opShfl(NWarp &W, const Instr &In, ValuePlane VP) {
    auto Mode = static_cast<ShuffleMode>(In.Aux);
    unsigned Width = In.Aux2 ? In.Aux2 : WarpLanes;
    const long long *Off = ip(W, In.Src2);
    unsigned SrcLane[WarpLanes];
    for (unsigned L = 0; L != WarpLanes; ++L) {
      long long Offset = Off[L];
      unsigned SegBase = L / Width * Width;
      long long Src = L;
      switch (Mode) {
      case ShuffleMode::Down:
        Src = L + Offset;
        break;
      case ShuffleMode::Up:
        Src = L - Offset;
        break;
      case ShuffleMode::Xor:
        Src = static_cast<long long>(L ^ static_cast<unsigned>(Offset));
        break;
      case ShuffleMode::Idx:
        Src = SegBase + Offset;
        break;
      }
      if (Src < SegBase || Src >= static_cast<long long>(SegBase + Width))
        Src = L;
      SrcLane[L] = static_cast<unsigned>(Src);
    }
    uint32_t M = W.Active;
    auto gather = [&](auto *D, const auto *S) {
      std::remove_reference_t<decltype(*D)> Snap[WarpLanes];
      std::copy_n(S, WarpLanes, Snap);
      forEachLane(M, [&](unsigned L) { D[L] = Snap[SrcLane[L]]; });
    };
    if (VP == ValuePlane::Int || VP == ValuePlane::All)
      gather(ip(W, In.Dst), ip(W, In.Src1));
    if (NK.UsesF32 && (VP == ValuePlane::F32 || VP == ValuePlane::All))
      gather(fp(W, In.Dst), fp(W, In.Src1));
    if (NK.UsesF64 && (VP == ValuePlane::F64 || VP == ValuePlane::All))
      gather(dp(W, In.Dst), dp(W, In.Src1));
    if (NK.PairMode)
      gather(xp(W, In.Dst), xp(W, In.Src1));
  }

  void opRed(NWarp &W, const Instr &In) {
    auto Op = static_cast<ReduceOp>(In.Aux);
    uint32_t M = W.Active;
    Plane TyP = planeOf(In.Ty);
    if (isArgReduce(Op)) {
      long long *DX = xp(W, In.Dst);
      const long long *AX = xp(W, In.Src1), *BX = xp(W, In.Src2);
      if (TyP == Plane::Int) {
        long long *D = ip(W, In.Dst);
        const long long *A = ip(W, In.Src1), *B = ip(W, In.Src2);
        ScalarType Ty = In.Ty;
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (M >> L & 1u) {
            long long V = A[L], X = AX[L];
            applyReduceOpPair(Op, V, X, B[L], BX[L]);
            D[L] = wrapToType(Ty, V);
            DX[L] = X;
          }
      } else if (TyP == Plane::F32) {
        float *D = fp(W, In.Dst);
        const float *A = fp(W, In.Src1), *B = fp(W, In.Src2);
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (M >> L & 1u) {
            float V = A[L];
            long long X = AX[L];
            applyReduceOpPair(Op, V, X, B[L], BX[L]);
            D[L] = V;
            DX[L] = X;
          }
      } else {
        double *D = dp(W, In.Dst);
        const double *A = dp(W, In.Src1), *B = dp(W, In.Src2);
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (M >> L & 1u) {
            double V = A[L];
            long long X = AX[L];
            applyReduceOpPair(Op, V, X, B[L], BX[L]);
            D[L] = V;
            DX[L] = X;
          }
      }
      return;
    }
    switch (TyP) {
    case Plane::Int: {
      long long *D = ip(W, In.Dst);
      const long long *A = ip(W, In.Src1), *B = ip(W, In.Src2);
      ScalarType Ty = In.Ty;
      forEachLane(M, [&](unsigned L) {
        D[L] = wrapToType(Ty, applyReduceOp<long long>(Op, A[L], B[L]));
      });
      break;
    }
    case Plane::F32: {
      float *D = fp(W, In.Dst);
      const float *A = fp(W, In.Src1), *B = fp(W, In.Src2);
      forEachLane(M,
                  [&](unsigned L) { D[L] = applyReduceOp<float>(Op, A[L], B[L]); });
      break;
    }
    case Plane::F64: {
      double *D = dp(W, In.Dst);
      const double *A = dp(W, In.Src1), *B = dp(W, In.Src2);
      forEachLane(
          M, [&](unsigned L) { D[L] = applyReduceOp<double>(Op, A[L], B[L]); });
      break;
    }
    }
  }

  void opLdGlobal(NWarp &W, const Instr &In) {
    View &V = Views[In.MemId];
    uint32_t M = W.Active;
    unsigned Width = std::max<unsigned>(1, In.Aux2);
    const long long *IdxP = ip(W, In.Src1);
    if (!V.IsBuffer) {
      error("pointer parameter bound to a scalar argument");
      return;
    }
    // Coalesced hot path: a full warp loading 32 consecutive in-bounds
    // elements (the pattern strided distributions produce every
    // iteration) is a straight vector copy instead of a per-lane gather.
    if (Width == 1) {
      long long B0 = contiguousBase(IdxP, M);
      if (B0 >= 0 && static_cast<uint64_t>(B0) + WarpLanes <= V.Size) {
        switch (planeOf(In.Ty)) {
        case Plane::F32: {
          float *D = fp(W, In.Dst);
          const float *S = V.F32 + B0;
          TGR_VEC_LOOP
          for (unsigned L = 0; L != WarpLanes; ++L)
            D[L] = S[L];
          break;
        }
        case Plane::F64: {
          double *D = dp(W, In.Dst);
          const double *S = V.F64 + B0;
          TGR_VEC_LOOP
          for (unsigned L = 0; L != WarpLanes; ++L)
            D[L] = S[L];
          break;
        }
        case Plane::Int: {
          long long *D = ip(W, In.Dst);
          const long long *S = V.I + B0;
          TGR_VEC_LOOP
          for (unsigned L = 0; L != WarpLanes; ++L)
            D[L] = S[L];
          break;
        }
        }
        if (NK.PairMode) {
          long long *X = xp(W, In.Dst);
          if (V.Idx) {
            const long long *S = V.Idx + B0;
            TGR_VEC_LOOP
            for (unsigned L = 0; L != WarpLanes; ++L)
              X[L] = S[L];
          } else {
            std::fill_n(X, WarpLanes, 0);
          }
        }
        return;
      }
    }
    // General path: unit-width typed gather (per-lane indices and bounds
    // checks). The launch pre-check pinned the buffer's element plane to
    // the access type, so the destination plane is the instruction's.
    switch (planeOf(In.Ty)) {
    case Plane::F32: {
      float *D = fp(W, In.Dst);
      for (unsigned L = 0; L != WarpLanes; ++L) {
        if (!(M >> L & 1u))
          continue;
        long long Base = IdxP[L] * Width;
        if (Base < 0 || static_cast<uint64_t>(Base) + Width > V.Size) {
          error(strformat("global load out of bounds (index %lld)", Base));
          D[L] = 0;
          continue;
        }
        if (Width == 1) {
          D[L] = V.F32[Base];
          if (NK.PairMode)
            xp(W, In.Dst)[L] = V.Idx ? V.Idx[Base] : 0;
        } else {
          // Vectorized load: sum of W consecutive elements, accumulated
          // in double exactly like the interpreter, rounded once.
          double Sum = 0;
          for (unsigned J = 0; J != Width; ++J)
            Sum += V.F32[Base + J];
          D[L] = static_cast<float>(Sum);
        }
      }
      break;
    }
    case Plane::F64: {
      double *D = dp(W, In.Dst);
      for (unsigned L = 0; L != WarpLanes; ++L) {
        if (!(M >> L & 1u))
          continue;
        long long Base = IdxP[L] * Width;
        if (Base < 0 || static_cast<uint64_t>(Base) + Width > V.Size) {
          error(strformat("global load out of bounds (index %lld)", Base));
          D[L] = 0;
          continue;
        }
        if (Width == 1) {
          D[L] = V.F64[Base];
          if (NK.PairMode)
            xp(W, In.Dst)[L] = V.Idx ? V.Idx[Base] : 0;
        } else {
          double Sum = 0;
          for (unsigned J = 0; J != Width; ++J)
            Sum += V.F64[Base + J];
          D[L] = Sum;
        }
      }
      break;
    }
    case Plane::Int: {
      long long *D = ip(W, In.Dst);
      ScalarType Ty = In.Ty;
      for (unsigned L = 0; L != WarpLanes; ++L) {
        if (!(M >> L & 1u))
          continue;
        long long Base = IdxP[L] * Width;
        if (Base < 0 || static_cast<uint64_t>(Base) + Width > V.Size) {
          error(strformat("global load out of bounds (index %lld)", Base));
          D[L] = 0;
          continue;
        }
        if (Width == 1) {
          D[L] = V.I[Base];
          if (NK.PairMode)
            xp(W, In.Dst)[L] = V.Idx ? V.Idx[Base] : 0;
        } else {
          long long Sum = 0;
          for (unsigned J = 0; J != Width; ++J)
            Sum += V.I[Base + J];
          D[L] = wrapToType(Ty, Sum);
        }
      }
      break;
    }
    }
  }

  /// Lane \p L's store or atomic \p In to element \p Index: the value
  /// read off its live plane into the write's (F, I, Idx) lanes.
  sim::GlobalWrite globalWrite(NWarp &W, const Instr &In, size_t Index,
                               unsigned L, ValuePlane VP) {
    sim::GlobalWrite G;
    G.Buf = Args[In.MemId].Id;
    G.Index = Index;
    G.Atomic = In.Op == Opcode::AtomGlobal;
    G.Op = G.Atomic ? static_cast<ReduceOp>(In.Aux) : ReduceOp::Add;
    G.Ty = In.Ty;
    readStoreValue(W, In.Src2, L, VP, G.F, G.I, G.Idx);
    return G;
  }

  /// Reads one lane's store value off its live plane into (F, I, Idx),
  /// with the interpreter's cell-mirror conversions. A plane-uniform
  /// source (`All`) reads each lane off its own plane.

  void readStoreValue(NWarp &W, uint16_t Reg, unsigned L, ValuePlane VP,
                      double &F, long long &I, long long &Idx) {
    F = 0;
    I = 0;
    switch (VP) {
    case ValuePlane::F32: {
      float V = fp(W, Reg)[L];
      F = V;
      I = saturatingIntOf(V);
      break;
    }
    case ValuePlane::F64: {
      double V = dp(W, Reg)[L];
      F = V;
      I = saturatingIntOf(V);
      break;
    }
    case ValuePlane::Int: {
      long long V = ip(W, Reg)[L];
      I = V;
      F = static_cast<double>(V);
      break;
    }
    case ValuePlane::All:
      I = ip(W, Reg)[L];
      F = NK.UsesF64   ? dp(W, Reg)[L]
          : NK.UsesF32 ? static_cast<double>(fp(W, Reg)[L])
                       : static_cast<double>(I);
      break;
    }
    Idx = NK.PairMode ? xp(W, Reg)[L] : 0;
  }

  /// A store or global atomic, one GlobalWrite per active lane.
  void opGlobalWrite(NWarp &W, const Instr &In, ValuePlane VP) {
    View &V = Views[In.MemId];
    uint32_t M = W.Active;
    if (!V.IsBuffer) {
      error("pointer parameter bound to a scalar argument");
      return;
    }
    const bool Atomic = In.Op == Opcode::AtomGlobal;
    const long long *IdxP = ip(W, In.Src1);
    for (unsigned L = 0; L != WarpLanes; ++L) {
      if (!(M >> L & 1u))
        continue;
      long long Idx = IdxP[L];
      if (Idx < 0 || static_cast<uint64_t>(Idx) >= V.Size) {
        error(strformat("global %s out of bounds (index %lld)",
                        Atomic ? "atomic" : "store", Idx));
        continue;
      }
      if (!V.Writable) {
        error(Atomic ? "atomic on a read-only (virtual) buffer"
                     : "store to a read-only (virtual) buffer");
        continue;
      }
      writeGlobal(globalWrite(W, In, static_cast<size_t>(Idx), L, VP));
    }
  }

  void opLdShared(NWarp &W, const Instr &In) {
    SharedArr &S = Shared[In.MemId];
    uint32_t M = W.Active;
    const long long *IdxP = ip(W, In.Src1);
    // The destination's live plane is the shared array's element plane —
    // exactly what the lowering's dataflow recorded for later readers.
    for (unsigned L = 0; L != WarpLanes; ++L) {
      if (!(M >> L & 1u))
        continue;
      long long Idx = IdxP[L];
      if (Idx < 0 || static_cast<uint64_t>(Idx) >= S.Size) {
        error(strformat("shared load out of bounds (index %lld)", Idx));
        switch (S.P) {
        case Plane::F32:
          fp(W, In.Dst)[L] = 0;
          break;
        case Plane::F64:
          dp(W, In.Dst)[L] = 0;
          break;
        case Plane::Int:
          ip(W, In.Dst)[L] = 0;
          break;
        }
        continue;
      }
      switch (S.P) {
      case Plane::F32:
        fp(W, In.Dst)[L] = S.F32[static_cast<size_t>(Idx)];
        break;
      case Plane::F64:
        dp(W, In.Dst)[L] = S.F64[static_cast<size_t>(Idx)];
        break;
      case Plane::Int:
        ip(W, In.Dst)[L] = S.I[static_cast<size_t>(Idx)];
        break;
      }
      if (NK.PairMode)
        xp(W, In.Dst)[L] = S.Idx[static_cast<size_t>(Idx)];
    }
  }

  void opStShared(NWarp &W, const Instr &In, ValuePlane VP) {
    SharedArr &S = Shared[In.MemId];
    uint32_t M = W.Active;
    const long long *IdxP = ip(W, In.Src1);
    for (unsigned L = 0; L != WarpLanes; ++L) {
      if (!(M >> L & 1u))
        continue;
      long long Idx = IdxP[L];
      if (Idx < 0 || static_cast<uint64_t>(Idx) >= S.Size) {
        error(strformat("shared store out of bounds (index %lld)", Idx));
        continue;
      }
      double F;
      long long I, IdxPayload;
      readStoreValue(W, In.Src2, L, VP, F, I, IdxPayload);
      switch (S.P) {
      case Plane::F32:
        S.F32[static_cast<size_t>(Idx)] = static_cast<float>(F);
        break;
      case Plane::F64:
        S.F64[static_cast<size_t>(Idx)] = F;
        break;
      case Plane::Int:
        S.I[static_cast<size_t>(Idx)] = I;
        break;
      }
      if (NK.PairMode)
        S.Idx[static_cast<size_t>(Idx)] = IdxPayload;
    }
  }

  void opAtomShared(NWarp &W, const Instr &In, ValuePlane VP) {
    SharedArr &S = Shared[In.MemId];
    auto Op = static_cast<ReduceOp>(In.Aux);
    uint32_t M = W.Active;
    const long long *IdxP = ip(W, In.Src1);
    for (unsigned L = 0; L != WarpLanes; ++L) {
      if (!(M >> L & 1u))
        continue;
      long long Idx = IdxP[L];
      if (Idx < 0 || static_cast<uint64_t>(Idx) >= S.Size) {
        error(strformat("shared atomic out of bounds (index %lld)", Idx));
        continue;
      }
      size_t I = static_cast<size_t>(Idx);
      double VF;
      long long VI, ValIdx;
      readStoreValue(W, In.Src2, L, VP, VF, VI, ValIdx);
      if (isArgReduce(Op)) {
        long long IdxLane = NK.PairMode ? S.Idx[I] : 0;
        switch (S.P) {
        case Plane::F32:
          applyReduceOpPair(Op, S.F32[I], IdxLane, static_cast<float>(VF),
                            ValIdx);
          break;
        case Plane::F64:
          applyReduceOpPair(Op, S.F64[I], IdxLane, VF, ValIdx);
          break;
        case Plane::Int:
          applyReduceOpPair(Op, S.I[I], IdxLane, VI, ValIdx);
          break;
        }
        if (NK.PairMode)
          S.Idx[I] = IdxLane;
        continue;
      }
      switch (S.P) {
      case Plane::F32:
        S.F32[I] =
            applyReduceOp<float>(Op, S.F32[I], static_cast<float>(VF));
        break;
      case Plane::F64:
        S.F64[I] = applyReduceOp<double>(Op, S.F64[I], VF);
        break;
      case Plane::Int:
        S.I[I] = wrapToType(In.Ty,
                            applyReduceOp<long long>(Op, S.I[I], VI));
        break;
      }
    }
  }

  /// Runs \p W until it hits a barrier or exits.
  void resume(NWarp &W) {
    const std::vector<Instr> &Code = K.Code;
    while (true) {
      if (BudgetExhausted) {
        deadline();
        return;
      }
      const Instr &In = Code[W.PC];
      switch (In.Op) {
      case Opcode::MovImmI: {
        long long *D = ip(W, In.Dst);
        long long V = In.ImmI;
        forEachLane(W.Active, [&](unsigned L) { D[L] = V; });
        charge(W.Active);
        ++W.PC;
        break;
      }
      case Opcode::MovImmF:
        if (planeOf(In.Ty) == Plane::F32) {
          float *D = fp(W, In.Dst);
          float V = static_cast<float>(In.ImmF);
          forEachLane(W.Active, [&](unsigned L) { D[L] = V; });
        } else {
          double *D = dp(W, In.Dst);
          double V = In.ImmF;
          forEachLane(W.Active, [&](unsigned L) { D[L] = V; });
        }
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::Mov:
        copyReg(W, In.Dst, In.Src1, W.Active, NK.OperandPlane[W.PC]);
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::Cast:
        opCast(W, In);
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::Mul:
      case Opcode::Div:
      case Opcode::Rem:
      case Opcode::Min:
      case Opcode::Max:
      case Opcode::SetLT:
      case Opcode::SetGT:
      case Opcode::SetLE:
      case Opcode::SetGE:
      case Opcode::SetEQ:
      case Opcode::SetNE:
      case Opcode::LAnd:
      case Opcode::LOr:
        switch (planeOf(In.Ty)) {
        case Plane::Int:
          aluInt(W, In);
          break;
        case Plane::F32:
          aluFloat(W, In, W.F32.data());
          break;
        case Plane::F64:
          aluFloat(W, In, W.F64.data());
          break;
        }
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::Not: {
        long long *D = ip(W, In.Dst);
        switch (planeOf(In.Ty)) {
        case Plane::Int: {
          const long long *S = ip(W, In.Src1);
          forEachLane(W.Active, [&](unsigned L) { D[L] = S[L] == 0; });
          break;
        }
        case Plane::F32: {
          const float *S = fp(W, In.Src1);
          forEachLane(W.Active, [&](unsigned L) { D[L] = S[L] == 0; });
          break;
        }
        case Plane::F64: {
          const double *S = dp(W, In.Src1);
          forEachLane(W.Active, [&](unsigned L) { D[L] = S[L] == 0; });
          break;
        }
        }
        charge(W.Active);
        ++W.PC;
        break;
      }
      case Opcode::Neg:
        switch (planeOf(In.Ty)) {
        case Plane::Int: {
          long long *D = ip(W, In.Dst);
          const long long *S = ip(W, In.Src1);
          ScalarType Ty = In.Ty;
          forEachLane(W.Active,
                      [&](unsigned L) { D[L] = wrapToType(Ty, -S[L]); });
          break;
        }
        case Plane::F32: {
          float *D = fp(W, In.Dst);
          const float *S = fp(W, In.Src1);
          forEachLane(W.Active, [&](unsigned L) { D[L] = -S[L]; });
          break;
        }
        case Plane::F64: {
          double *D = dp(W, In.Dst);
          const double *S = dp(W, In.Src1);
          forEachLane(W.Active, [&](unsigned L) { D[L] = -S[L]; });
          break;
        }
        }
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::ReadSpecial: {
        auto R = static_cast<SpecialReg>(In.Aux);
        long long *D = ip(W, In.Dst);
        switch (R) {
        case SpecialReg::ThreadIdxX: {
          unsigned Base = W.TidBase;
          forEachLane(W.Active, [&](unsigned L) { D[L] = Base + L; });
          break;
        }
        case SpecialReg::BlockIdxX:
          forEachLane(W.Active, [&](unsigned L) { D[L] = BlockIdx; });
          break;
        case SpecialReg::BlockDimX:
          forEachLane(W.Active,
                      [&](unsigned L) { D[L] = Config.BlockDim; });
          break;
        case SpecialReg::GridDimX:
          forEachLane(W.Active, [&](unsigned L) { D[L] = Config.GridDim; });
          break;
        case SpecialReg::WarpSize:
          forEachLane(W.Active, [&](unsigned L) { D[L] = WarpLanes; });
          break;
        }
        charge(W.Active);
        ++W.PC;
        break;
      }
      case Opcode::LdGlobal:
        opLdGlobal(W, In);
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::StGlobal:
      case Opcode::AtomGlobal:
        opGlobalWrite(W, In, NK.OperandPlane[W.PC]);
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::LdShared:
        opLdShared(W, In);
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::StShared:
        opStShared(W, In, NK.OperandPlane[W.PC]);
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::AtomShared:
        opAtomShared(W, In, NK.OperandPlane[W.PC]);
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::MkPair: {
        copyReg(W, In.Dst, In.Src1, W.Active, NK.OperandPlane[W.PC]);
        long long *DX = xp(W, In.Dst);
        const long long *S = ip(W, In.Src2);
        forEachLane(W.Active, [&](unsigned L) { DX[L] = S[L]; });
        charge(W.Active);
        ++W.PC;
        break;
      }
      case Opcode::Red:
        opRed(W, In);
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::Shfl:
        opShfl(W, In, NK.OperandPlane[W.PC]);
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::Bar:
        charge(W.Active);
        ++W.PC;
        W.AtBarrier = true;
        return;
      case Opcode::PushIf: {
        uint32_t ThenMask = 0;
        const long long *S = ip(W, In.Src1);
        for (unsigned L = 0; L != WarpLanes; ++L)
          if ((W.Active >> L & 1u) && S[L] != 0)
            ThenMask |= 1u << L;
        uint32_t ElseMask = W.Active & ~ThenMask;
        W.Stack.push_back({W.Active, ElseMask});
        charge(W.Active);
        if (ThenMask == 0) {
          W.PC = In.Target;
        } else {
          W.Active = ThenMask;
          ++W.PC;
        }
        break;
      }
      case Opcode::ElseIf: {
        Frame &F = W.Stack.back();
        W.Active = F.Else;
        charge(W.Active ? W.Active : F.Saved);
        if (W.Active == 0)
          W.PC = In.Target;
        else
          ++W.PC;
        break;
      }
      case Opcode::PopIf:
        W.Active = W.Stack.back().Saved;
        W.Stack.pop_back();
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::PushLoop:
        W.Stack.push_back({W.Active, 0});
        charge(W.Active);
        ++W.PC;
        break;
      case Opcode::LoopTest: {
        uint32_t Continue = 0;
        const long long *S = ip(W, In.Src1);
        for (unsigned L = 0; L != WarpLanes; ++L)
          if ((W.Active >> L & 1u) && S[L] != 0)
            Continue |= 1u << L;
        charge(W.Active);
        if (Continue == 0) {
          W.Active = W.Stack.back().Saved;
          W.Stack.pop_back();
          W.PC = In.Target;
        } else {
          W.Active = Continue;
          ++W.PC;
        }
        break;
      }
      case Opcode::Jump:
        charge(W.Active);
        W.PC = In.Target;
        break;
      case Opcode::Exit:
        W.Done = true;
        return;
      }
    }
  }

  const NativeKernel &NK;
  const CompiledKernel &K;
  const LaunchConfig &Config;
  const std::vector<ArgValue> &Args;
  std::vector<View> &Views;
  sim::Device &Dev;
  uint64_t InstrBudget;
  unsigned BlockIdx = 0;
  std::vector<std::string> *Errors = nullptr;
  std::vector<sim::GlobalWrite> *Log = nullptr;
  uint64_t WarpInstructions = 0;
  uint64_t LaneInstructions = 0;
  uint64_t IssuedWarpInstrs = 0;
  bool BudgetExhausted = false;
  bool DeadlineReported = false;
  std::vector<NWarp> Warps;
  std::vector<SharedArr> Shared;
};

} // namespace

sim::LaunchResult NativeMachine::launch(const NativeKernel &NK,
                                       const LaunchConfig &Config,
                                       const std::vector<ArgValue> &Args) {
  sim::LaunchResult R;
  R.GridDim = Config.GridDim;
  R.BlockDim = Config.BlockDim;
  R.BlocksSimulated = Config.GridDim;
  const CompiledKernel &K = *NK.Code;

  sim::LaunchPlan Plan = sim::planLaunch(K, Config, Args, Pool);
  if (!Plan.Error.empty()) {
    R.Errors.push_back(Plan.Error);
    return R;
  }
  if (Config.BlockDim > WarpLanes * 32) {
    R.Errors.push_back(strformat("block size %u exceeds the native "
                                 "backend's limit %u",
                                 Config.BlockDim, WarpLanes * 32));
    return R;
  }
  // Every global access must agree with the bound buffer's element plane:
  // typed storage cannot be reinterpreted the way an untyped Cell can.
  for (const Instr &In : K.Code) {
    if (In.Op != Opcode::LdGlobal && In.Op != Opcode::StGlobal &&
        In.Op != Opcode::AtomGlobal)
      continue;
    const ArgValue &V = Args[In.MemId];
    if (!V.IsBuffer)
      continue;
    Plane BufP = Dev.get(V.Id).getPlane();
    if (BufP != planeOf(In.Ty)) {
      R.Errors.push_back(
          strformat("native launch: buffer argument %u holds %s data but "
                    "is accessed as %s",
                    In.MemId, getPlaneName(BufP),
                    getPlaneName(planeOf(In.Ty))));
      return R;
    }
  }

  // Pair kernels store (value, index) pairs, so each buffer they write
  // gets an index lane first; reads of a buffer without one see index 0.
  if (NK.PairMode)
    for (const Instr &In : K.Code) {
      if (In.Op != Opcode::StGlobal && In.Op != Opcode::AtomGlobal)
        continue;
      const ArgValue &A = Args[In.MemId];
      if (A.IsBuffer && !Dev.get(A.Id).isVirtual())
        Dev.get(A.Id).addIndexLane();
    }

  // Views straight over the device buffers: blocks read device memory in
  // place. A virtual buffer builds its typed plane on first use.
  std::vector<View> Views(Args.size());
  for (size_t I = 0; I != Args.size(); ++I) {
    if (!Args[I].IsBuffer)
      continue;
    Buffer &B = Dev.get(Args[I].Id);
    B.materialize();
    View &V = Views[I];
    V.IsBuffer = true;
    V.P = B.getPlane();
    V.Writable = !B.isVirtual();
    V.Size = B.size();
    V.F32 = B.f32Data();
    V.F64 = B.f64Data();
    V.I = B.intData();
    V.Idx = NK.PairMode ? B.indexData() : nullptr;
  }

  // Blocks that run in order share one executor, so the plane vectors
  // allocate once; parallel blocks each need their own.
  NativeBlockExec InOrder(NK, Config, Args, Views, Dev, Plan.Budget);
  sim::runGrid(
      Dev, Pool, Plan.Parallel, Config.GridDim,
      [&](size_t B, sim::BlockOutcome &O, std::vector<sim::GlobalWrite> *Log) {
        if (Log)
          NativeBlockExec(NK, Config, Args, Views, Dev, Plan.Budget)
              .runBlock(static_cast<unsigned>(B), O, Log);
        else
          InOrder.runBlock(static_cast<unsigned>(B), O, nullptr);
      },
      R);
  return R;
}
