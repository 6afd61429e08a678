//===- SimtMachine.cpp - SIMT bytecode execution engine --------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "gpusim/SimtMachine.h"

#include "support/ErrorHandling.h"
#include "support/StringUtils.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <unordered_map>

using namespace tangram;
using namespace tangram::ir;
using namespace tangram::sim;

void ExecStats::scale(double Factor) {
  WarpCycles *= Factor;
  auto S = [Factor](uint64_t &V) {
    V = static_cast<uint64_t>(static_cast<double>(V) * Factor + 0.5);
  };
  S(LaneInstructions);
  S(WarpInstructions);
  S(GlobalLoadBytesScalar);
  S(GlobalLoadBytesVector);
  S(GlobalStoreBytes);
  S(GlobalTransactions);
  S(UncoalescedExtraBytes);
  S(SharedAtomicOps);
  S(SharedAtomicConflicts);
  S(GlobalAtomicOps);
  S(GlobalAtomicHotOps);
  S(Barriers);
  S(DivergentBranches);
  S(SharedBytes);
}

void ExecStats::accumulate(const ExecStats &Other) {
  WarpCycles += Other.WarpCycles;
  LaneInstructions += Other.LaneInstructions;
  WarpInstructions += Other.WarpInstructions;
  GlobalLoadBytesScalar += Other.GlobalLoadBytesScalar;
  GlobalLoadBytesVector += Other.GlobalLoadBytesVector;
  GlobalStoreBytes += Other.GlobalStoreBytes;
  GlobalTransactions += Other.GlobalTransactions;
  UncoalescedExtraBytes += Other.UncoalescedExtraBytes;
  SharedAtomicOps += Other.SharedAtomicOps;
  SharedAtomicConflicts += Other.SharedAtomicConflicts;
  GlobalAtomicOps += Other.GlobalAtomicOps;
  GlobalAtomicHotOps += Other.GlobalAtomicHotOps;
  Barriers += Other.Barriers;
  DivergentBranches += Other.DivergentBranches;
  SharedBytes += Other.SharedBytes;
}

long long tangram::sim::evalUniformExpr(const Expr *E,
                                        const CompiledKernel &Kernel,
                                        const std::vector<ArgValue> &Args,
                                        const LaunchConfig &Config) {
  switch (E->getKind()) {
  case Expr::Kind::IntConst:
    return cast<IntConstExpr>(E)->getValue();
  case Expr::Kind::ParamRef: {
    const Param *P = cast<ParamRefExpr>(E)->getParam();
    return Args.at(P->Index).Scalar.I;
  }
  case Expr::Kind::Special:
    switch (cast<SpecialExpr>(E)->getReg()) {
    case SpecialReg::BlockDimX:
      return Config.BlockDim;
    case SpecialReg::GridDimX:
      return Config.GridDim;
    case SpecialReg::WarpSize:
      return 32;
    default:
      tgr_unreachable("thread-dependent special in uniform expression");
    }
  case Expr::Kind::Binary: {
    const auto *B = cast<BinaryOpExpr>(E);
    long long L = evalUniformExpr(B->getLHS(), Kernel, Args, Config);
    long long R = evalUniformExpr(B->getRHS(), Kernel, Args, Config);
    switch (B->getOp()) {
    case BinOp::Add:
      return L + R;
    case BinOp::Sub:
      return L - R;
    case BinOp::Mul:
      return L * R;
    case BinOp::Div:
      return R ? L / R : 0;
    case BinOp::Rem:
      return R ? L % R : 0;
    case BinOp::Min:
      return std::min(L, R);
    case BinOp::Max:
      return std::max(L, R);
    default:
      tgr_unreachable("unsupported operator in uniform expression");
    }
  }
  default:
    tgr_unreachable("unsupported node in uniform expression");
  }
}

namespace {

constexpr unsigned WarpLanes = 32;

double hostSeconds() {
  using Clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

// Integer wrap / saturated float->int conversion live in ir/Bytecode.h
// (wrapToType / saturatingIntOf) so the native CPU backend shares the
// exact semantics; the local names keep this file's call sites readable.
long long wrapInt(ScalarType Ty, long long V) { return wrapToType(Ty, V); }
long long mirrorIntOf(double V) { return saturatingIntOf(V); }

/// Writes an integer result, mirroring into the float view (guards
/// against int constants flowing into float arithmetic).
void setI(Cell &C, long long V) {
  C.I = V;
  C.F = static_cast<double>(V);
}
void setF(Cell &C, double V, ScalarType Ty = ScalarType::F32) {
  if (Ty != ScalarType::F64) {
    // Round to float32 so accumulation error matches 32-bit GPU math.
    float F32 = static_cast<float>(V);
    C.F = F32;
    C.I = mirrorIntOf(F32);
  } else {
    C.F = V;
    C.I = mirrorIntOf(V);
  }
}

/// Applies a reduce op to a shared-memory cell (sim::foldCell). Global
/// atomics go through Buffer::commit. Kept out of line: inlined at both
/// call sites, the fold grows BlockExecutor::resume past the size at
/// which the compiler inlines resume into the launch loop.
[[gnu::noinline]] void sharedAtomic(ReduceOp Op, ScalarType Ty, Cell &Target,
                                    const Cell &V) {
  foldCell(Op, Ty, Target, V);
}

struct Frame {
  uint32_t Saved = 0;
  uint32_t Else = 0;
};

struct Warp {
  uint32_t PC = 0;
  uint32_t Active = 0;
  unsigned TidBase = 0; ///< threadIdx.x of lane 0.
  std::vector<Frame> Stack;
  std::vector<Cell> Regs; ///< Register-major: Regs[reg * 32 + lane].
  bool Done = false;
  bool AtBarrier = false;
};

/// Executes one block.
class BlockExecutor {
public:
  /// When \p Log is non-null the block records its global writes there
  /// instead of touching device memory (parallel-execution mode). When
  /// \p Race is non-null every shared/global access is reported to it
  /// (RaceCheck mode; mutually exclusive with \p Log). \p Fault, when
  /// non-null, perturbs execution per its plan (mutually exclusive with
  /// \p Log too — fault launches run sequentially). \p InstrBudget is the
  /// watchdog: the block traps once it issues that many warp-instructions.
  BlockExecutor(Device &Dev, const ArchDesc &Arch,
                const CompiledKernel &Kernel, const LaunchConfig &Config,
                const std::vector<ArgValue> &Args, unsigned BlockIdx,
                ExecStats &Stats, std::vector<std::string> &Errors,
                std::vector<GlobalWrite> *Log = nullptr,
                RaceDetector *Race = nullptr,
                FaultInjector *Fault = nullptr,
                uint64_t InstrBudget = ~0ull)
      : Dev(Dev), Arch(Arch), Kernel(Kernel), Config(Config), Args(Args),
        BlockIdx(BlockIdx), Stats(Stats), Errors(Errors), Log(Log),
        Race(Race), Fault(Fault), InstrBudget(InstrBudget) {}

  /// True once the watchdog tripped: the block was cut short and its
  /// results are meaningless.
  bool hitDeadline() const { return BudgetExhausted; }

  void run() {
    initShared();
    initWarps();
    // Run all runnable warps to the next barrier (or exit); then release
    // the barrier and repeat. Barriers are block-uniform (verified IR), so
    // every runnable warp reaches the same barrier in each pass.
    while (true) {
      bool AnyRunnable = false;
      for (Warp &W : Warps) {
        if (W.Done || W.AtBarrier)
          continue;
        AnyRunnable = true;
        resume(W);
      }
      if (!AnyRunnable) {
        bool AnyWaiting = false;
        for (Warp &W : Warps)
          if (!W.Done && W.AtBarrier) {
            W.AtBarrier = false;
            AnyWaiting = true;
          }
        if (!AnyWaiting)
          break; // All warps exited.
        // Every live warp crossed the same barrier: a new epoch begins —
        // accesses after this point are ordered against those before it.
        if (Race)
          Race->barrier();
      }
    }
    if (BudgetExhausted)
      deadline(); // Budget tripped on the block's very last instructions.
  }

private:
  void error(const std::string &Msg) {
    if (Errors.size() < 8)
      Errors.push_back("kernel '" + Kernel.Name + "' block " +
                       strformat("%u", BlockIdx) + ": " + Msg);
  }

  /// Logs \p W (parallel mode) or commits it to device memory in place.
  void writeGlobal(const GlobalWrite &W) {
    if (Log)
      Log->push_back(W);
    else
      Dev.get(W.Buf).commit(W);
  }

  void initShared() {
    SharedMem.resize(Kernel.SharedArrays.size());
    for (size_t I = 0; I != Kernel.SharedArrays.size(); ++I) {
      const SharedArray *A = Kernel.SharedArrays[I];
      size_t Extent;
      if (A->IsDynamic)
        Extent = Config.DynSharedElems;
      else if (A->Extent)
        Extent = static_cast<size_t>(
            std::max<long long>(0, evalUniformExpr(A->Extent, Kernel, Args,
                                                   Config)));
      else
        Extent = 1;
      SharedMem[I].assign(Extent, Cell());
      Stats.SharedBytes += Extent * (is64BitType(A->Elem) ? 8 : 4);
    }
  }

  void initWarps() {
    unsigned NumWarps = (Config.BlockDim + WarpLanes - 1) / WarpLanes;
    Warps.resize(NumWarps);
    for (unsigned W = 0; W != NumWarps; ++W) {
      Warp &Wp = Warps[W];
      Wp.TidBase = W * WarpLanes;
      unsigned Remaining = Config.BlockDim - Wp.TidBase;
      Wp.Active = Remaining >= WarpLanes
                      ? 0xffffffffu
                      : ((1u << Remaining) - 1u);
      Wp.Regs.assign(static_cast<size_t>(Kernel.NumRegisters) * WarpLanes,
                     Cell());
      // Bind scalar parameters.
      for (const auto &[P, Reg] : Kernel.ScalarParamRegs) {
        const ArgValue &V = Args.at(P->Index);
        for (unsigned L = 0; L != WarpLanes; ++L)
          Wp.Regs[static_cast<size_t>(Reg) * WarpLanes + L] = V.Scalar;
      }
    }
  }

  Cell &reg(Warp &W, uint16_t R, unsigned Lane) {
    return W.Regs[static_cast<size_t>(R) * WarpLanes + Lane];
  }

  Buffer *bufferOf(uint16_t ParamIndex) {
    const ArgValue &V = Args.at(ParamIndex);
    if (!V.IsBuffer) {
      error("pointer parameter bound to a scalar argument");
      return nullptr;
    }
    return &Dev.get(V.Id);
  }

  void aluOp(Warp &W, const Instr &In) {
    bool IsFloat = isFloatType(In.Ty);
    for (unsigned L = 0; L != WarpLanes; ++L) {
      if (!(W.Active >> L & 1u))
        continue;
      Cell &D = reg(W, In.Dst, L);
      const Cell &A = reg(W, In.Src1, L);
      const Cell &B = reg(W, In.Src2, L);
      if (IsFloat) {
        double R = 0;
        switch (In.Op) {
        case Opcode::Add:
          R = A.F + B.F;
          break;
        case Opcode::Sub:
          R = A.F - B.F;
          break;
        case Opcode::Mul:
          R = A.F * B.F;
          break;
        case Opcode::Div:
          if (B.F == 0) {
            error("floating division by zero");
            R = 0;
          } else
            R = A.F / B.F;
          break;
        case Opcode::Min:
          R = std::min(A.F, B.F);
          break;
        case Opcode::Max:
          R = std::max(A.F, B.F);
          break;
        case Opcode::SetLT:
          setI(D, A.F < B.F);
          continue;
        case Opcode::SetGT:
          setI(D, A.F > B.F);
          continue;
        case Opcode::SetLE:
          setI(D, A.F <= B.F);
          continue;
        case Opcode::SetGE:
          setI(D, A.F >= B.F);
          continue;
        case Opcode::SetEQ:
          setI(D, A.F == B.F);
          continue;
        case Opcode::SetNE:
          setI(D, A.F != B.F);
          continue;
        case Opcode::LAnd:
          setI(D, (A.F != 0) && (B.F != 0));
          continue;
        case Opcode::LOr:
          setI(D, (A.F != 0) || (B.F != 0));
          continue;
        default:
          tgr_unreachable("bad float ALU op");
        }
        setF(D, R, In.Ty);
      } else {
        long long R = 0;
        switch (In.Op) {
        case Opcode::Add:
          R = A.I + B.I;
          break;
        case Opcode::Sub:
          R = A.I - B.I;
          break;
        case Opcode::Mul:
          R = A.I * B.I;
          break;
        case Opcode::Div:
          if (B.I == 0) {
            error("integer division by zero");
            R = 0;
          } else
            R = A.I / B.I;
          break;
        case Opcode::Rem:
          if (B.I == 0) {
            error("integer remainder by zero");
            R = 0;
          } else
            R = A.I % B.I;
          break;
        case Opcode::Min:
          R = std::min(A.I, B.I);
          break;
        case Opcode::Max:
          R = std::max(A.I, B.I);
          break;
        case Opcode::SetLT:
          R = A.I < B.I;
          break;
        case Opcode::SetGT:
          R = A.I > B.I;
          break;
        case Opcode::SetLE:
          R = A.I <= B.I;
          break;
        case Opcode::SetGE:
          R = A.I >= B.I;
          break;
        case Opcode::SetEQ:
          R = A.I == B.I;
          break;
        case Opcode::SetNE:
          R = A.I != B.I;
          break;
        case Opcode::LAnd:
          R = (A.I != 0) && (B.I != 0);
          break;
        case Opcode::LOr:
          R = (A.I != 0) || (B.I != 0);
          break;
        default:
          tgr_unreachable("bad integer ALU op");
        }
        setI(D, wrapInt(In.Ty, R));
      }
    }
  }

  static unsigned popcount(uint32_t M) { return __builtin_popcount(M); }

  void chargeWarpInstr(double Cycles, uint32_t Mask) {
    Stats.WarpCycles += Cycles;
    Stats.WarpInstructions += 1;
    Stats.LaneInstructions += popcount(Mask);
    if (++IssuedWarpInstrs > InstrBudget)
      BudgetExhausted = true;
  }

  /// Watchdog trip: report once, then retire every warp so run() drains.
  void deadline() {
    if (!DeadlineReported) {
      DeadlineReported = true;
      error(strformat("warp-instruction budget %llu exhausted "
                      "(deadline exceeded; possible livelock)",
                      static_cast<unsigned long long>(InstrBudget)));
    }
    for (Warp &Wp : Warps) {
      Wp.Done = true;
      Wp.AtBarrier = false;
    }
  }

  /// Runs \p W until it hits a barrier or exits.
  void resume(Warp &W) {
    const std::vector<Instr> &Code = Kernel.Code;
    const unsigned WarpId = W.TidBase / WarpLanes;
    while (true) {
      if (BudgetExhausted) {
        deadline();
        return;
      }
      if (StuckWarpId == static_cast<int>(WarpId)) {
        // Livelocked: keep issuing (a spinning lock loop still occupies
        // issue slots) without advancing PC until the watchdog trips.
        chargeWarpInstr(Arch.AluCost, W.Active);
        continue;
      }
      const Instr &In = Code[W.PC];
      switch (In.Op) {
      case Opcode::MovImmI:
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (W.Active >> L & 1u)
            setI(reg(W, In.Dst, L), In.ImmI);
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      case Opcode::MovImmF:
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (W.Active >> L & 1u)
            setF(reg(W, In.Dst, L), In.ImmF, In.Ty);
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      case Opcode::Mov:
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (W.Active >> L & 1u)
            reg(W, In.Dst, L) = reg(W, In.Src1, L);
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      case Opcode::Cast: {
        auto From = static_cast<ScalarType>(In.Aux);
        for (unsigned L = 0; L != WarpLanes; ++L) {
          if (!(W.Active >> L & 1u))
            continue;
          Cell &D = reg(W, In.Dst, L);
          const Cell &S = reg(W, In.Src1, L);
          if (isFloatType(In.Ty))
            setF(D, isFloatType(From) ? S.F : static_cast<double>(S.I),
                 In.Ty);
          else
            setI(D, wrapInt(In.Ty,
                            isFloatType(From) ? mirrorIntOf(S.F) : S.I));
        }
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      }
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
        aluOp(W, In);
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      case Opcode::Not:
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (W.Active >> L & 1u) {
            const Cell &S = reg(W, In.Src1, L);
            setI(reg(W, In.Dst, L),
                 isFloatType(In.Ty) ? (S.F == 0) : (S.I == 0));
          }
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      case Opcode::Neg:
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (W.Active >> L & 1u) {
            Cell &D = reg(W, In.Dst, L);
            const Cell &S = reg(W, In.Src1, L);
            if (isFloatType(In.Ty))
              setF(D, -S.F, In.Ty);
            else
              setI(D, wrapInt(In.Ty, -S.I));
          }
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      case Opcode::ReadSpecial: {
        auto R = static_cast<SpecialReg>(In.Aux);
        for (unsigned L = 0; L != WarpLanes; ++L) {
          if (!(W.Active >> L & 1u))
            continue;
          long long V = 0;
          switch (R) {
          case SpecialReg::ThreadIdxX:
            V = W.TidBase + L;
            break;
          case SpecialReg::BlockIdxX:
            V = BlockIdx;
            break;
          case SpecialReg::BlockDimX:
            V = Config.BlockDim;
            break;
          case SpecialReg::GridDimX:
            V = Config.GridDim;
            break;
          case SpecialReg::WarpSize:
            V = WarpLanes;
            break;
          }
          setI(reg(W, In.Dst, L), V);
        }
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      }
      case Opcode::LdGlobal: {
        Buffer *B = bufferOf(In.MemId);
        unsigned Width = std::max<unsigned>(1, In.Aux2);
        uint64_t ElemSize = is64BitType(In.Ty) ? 8 : 4;
        uint64_t Segments = 0, PrevSeg = ~0ull;
        bool First = true;
        if (Race)
          Race->beginInstruction();
        for (unsigned L = 0; L != WarpLanes; ++L) {
          if (!(W.Active >> L & 1u))
            continue;
          long long Idx = reg(W, In.Src1, L).I;
          Cell &D = reg(W, In.Dst, L);
          if (!B) {
            setI(D, 0);
            continue;
          }
          long long Base = Idx * Width;
          if (Base < 0 ||
              static_cast<uint64_t>(Base + Width) > B->size()) {
            error(strformat("global load out of bounds (index %lld)", Base));
            setI(D, 0);
          } else {
            if (Race)
              for (unsigned J = 0; J != Width; ++J)
                Race->onGlobalAccess(Args[In.MemId].Id, In.MemId, Base + J,
                                     WarpId, L, W.PC, /*IsWrite=*/false,
                                     /*IsAtomic=*/false);
            if (Width == 1) {
              D = B->read(static_cast<size_t>(Base));
            } else {
              // Vectorized load: the IR defines it as yielding the sum of
              // the W consecutive elements (see LoadGlobalExpr).
              if (isFloatType(In.Ty)) {
                double Sum = 0;
                for (unsigned J = 0; J != Width; ++J)
                  Sum += B->read(static_cast<size_t>(Base + J)).F;
                setF(D, Sum, In.Ty);
              } else {
                long long Sum = 0;
                for (unsigned J = 0; J != Width; ++J)
                  Sum += B->read(static_cast<size_t>(Base + J)).I;
                setI(D, wrapInt(In.Ty, Sum));
              }
            }
          }
          uint64_t Seg = static_cast<uint64_t>(Base) * ElemSize / 128;
          if (First || Seg != PrevSeg)
            ++Segments;
          First = false;
          PrevSeg = Seg;
        }
        unsigned Lanes = popcount(W.Active);
        uint64_t Bytes = static_cast<uint64_t>(Lanes) * ElemSize * Width;
        if (Width > 1)
          Stats.GlobalLoadBytesVector += Bytes;
        else
          Stats.GlobalLoadBytesScalar += Bytes;
        Stats.GlobalTransactions += Segments;
        uint64_t TxBytes = Segments * 128;
        if (TxBytes > Bytes)
          Stats.UncoalescedExtraBytes += TxBytes - Bytes;
        chargeWarpInstr(Arch.GlobalLdStCost +
                            (Segments > 1 ? (Segments - 1) * 2.0 : 0.0),
                        W.Active);
        ++W.PC;
        break;
      }
      case Opcode::StGlobal: {
        Buffer *B = bufferOf(In.MemId);
        uint64_t ElemSize = is64BitType(In.Ty) ? 8 : 4;
        uint64_t Segments = 0, PrevSeg = ~0ull;
        bool First = true;
        if (Race)
          Race->beginInstruction();
        bool Flip = Fault && Fault->fires(FaultKind::BitFlipGlobal);
        for (unsigned L = 0; L != WarpLanes; ++L) {
          if (!(W.Active >> L & 1u))
            continue;
          long long Idx = reg(W, In.Src1, L).I;
          if (!B)
            continue;
          if (Idx < 0 || static_cast<uint64_t>(Idx) >= B->size()) {
            error(strformat("global store out of bounds (index %lld)", Idx));
          } else if (!B->isVirtual()) {
            if (Race)
              Race->onGlobalAccess(Args[In.MemId].Id, In.MemId, Idx, WarpId,
                                   L, W.PC, /*IsWrite=*/true,
                                   /*IsAtomic=*/false);
            Cell V = reg(W, In.Src2, L);
            if (Flip) {
              V = Fault->corrupt(V, In.Ty);
              Flip = false;
            }
            writeGlobal({Args[In.MemId].Id, static_cast<size_t>(Idx),
                         /*Atomic=*/false, ReduceOp::Add, In.Ty, V.F, V.I,
                         V.Idx});
          } else {
            error("store to a read-only (virtual) buffer");
          }
          uint64_t Seg = static_cast<uint64_t>(Idx) * ElemSize / 128;
          if (First || Seg != PrevSeg)
            ++Segments;
          First = false;
          PrevSeg = Seg;
        }
        Stats.GlobalStoreBytes +=
            static_cast<uint64_t>(popcount(W.Active)) * ElemSize;
        Stats.GlobalTransactions += Segments;
        chargeWarpInstr(Arch.GlobalLdStCost, W.Active);
        ++W.PC;
        break;
      }
      case Opcode::LdShared: {
        auto &Mem = SharedMem[In.MemId];
        if (Race)
          Race->beginInstruction();
        for (unsigned L = 0; L != WarpLanes; ++L) {
          if (!(W.Active >> L & 1u))
            continue;
          long long Idx = reg(W, In.Src1, L).I;
          Cell &D = reg(W, In.Dst, L);
          if (Idx < 0 || static_cast<uint64_t>(Idx) >= Mem.size()) {
            error(strformat("shared load out of bounds (index %lld)", Idx));
            setI(D, 0);
          } else {
            if (Race)
              Race->onSharedAccess(In.MemId, Idx, WarpId, L, W.PC,
                                   /*IsWrite=*/false, /*IsAtomic=*/false);
            D = Mem[static_cast<size_t>(Idx)];
          }
        }
        chargeWarpInstr(Arch.SharedLdStCost, W.Active);
        ++W.PC;
        break;
      }
      case Opcode::StShared: {
        auto &Mem = SharedMem[In.MemId];
        if (Race)
          Race->beginInstruction();
        // One eligible bit-flip event per store instruction; a firing plan
        // corrupts the first active lane's value.
        bool Flip = Fault && Fault->fires(FaultKind::BitFlipShared);
        for (unsigned L = 0; L != WarpLanes; ++L) {
          if (!(W.Active >> L & 1u))
            continue;
          long long Idx = reg(W, In.Src1, L).I;
          if (Idx < 0 || static_cast<uint64_t>(Idx) >= Mem.size()) {
            error(strformat("shared store out of bounds (index %lld)", Idx));
          } else {
            if (Race)
              Race->onSharedAccess(In.MemId, Idx, WarpId, L, W.PC,
                                   /*IsWrite=*/true, /*IsAtomic=*/false);
            Cell V = reg(W, In.Src2, L);
            if (Flip) {
              V = Fault->corrupt(V, In.Ty);
              Flip = false;
            }
            Mem[static_cast<size_t>(Idx)] = V;
          }
        }
        chargeWarpInstr(Arch.SharedLdStCost, W.Active);
        ++W.PC;
        break;
      }
      case Opcode::AtomShared: {
        auto &Mem = SharedMem[In.MemId];
        auto Op = static_cast<ReduceOp>(In.Aux);
        auto Impl = atomicImplFromAux2(In.Aux2);
        // Count the worst per-address multiplicity for the contention
        // model, then apply updates in lane order.
        std::unordered_map<long long, unsigned> Mult;
        unsigned MaxMult = 0, Lanes = 0;
        if (Race)
          Race->beginInstruction();
        // One eligible drop/duplicate event per atomic instruction; a
        // firing plan perturbs the first applying lane's update.
        bool Drop = Fault && Fault->fires(FaultKind::DropAtomic);
        bool Dup = Fault && Fault->fires(FaultKind::DuplicateAtomic);
        for (unsigned L = 0; L != WarpLanes; ++L) {
          if (!(W.Active >> L & 1u))
            continue;
          ++Lanes;
          long long Idx = reg(W, In.Src1, L).I;
          MaxMult = std::max(MaxMult, ++Mult[Idx]);
          if (Idx < 0 || static_cast<uint64_t>(Idx) >= Mem.size()) {
            error(strformat("shared atomic out of bounds (index %lld)", Idx));
            continue;
          }
          if (Race)
            Race->onSharedAccess(In.MemId, Idx, WarpId, L, W.PC,
                                 /*IsWrite=*/true, /*IsAtomic=*/true);
          if (Drop) {
            Drop = false; // Lost read-modify-write: skip this lane's update.
            continue;
          }
          sharedAtomic(Op, In.Ty, Mem[static_cast<size_t>(Idx)],
                       reg(W, In.Src2, L));
          if (Dup) {
            Dup = false; // Replayed read-modify-write: apply a second time.
            sharedAtomic(Op, In.Ty, Mem[static_cast<size_t>(Idx)],
                         reg(W, In.Src2, L));
          }
        }
        Stats.SharedAtomicOps += Lanes;
        Stats.SharedAtomicConflicts += MaxMult > 0 ? MaxMult - 1 : 0;
        double Cost = Arch.SharedAtomicBaseCost;
        if (MaxMult > 1) {
          Cost += (MaxMult - 1) * Arch.SharedAtomicConflictCost;
          Cost += Arch.SharedAtomicLockDivergence;
          if (Arch.SharedAtomics == SharedAtomicImpl::SoftwareLock)
            Stats.DivergentBranches += 1; // The lock loop branches.
        }
        if (Impl == AtomicImpl::CasLoop) {
          // The compare-and-swap loop re-reads and retries; model one extra
          // round trip, plus retry divergence under contention.
          Cost *= 2.0;
          if (MaxMult > 1)
            Stats.DivergentBranches += 1;
        }
        chargeWarpInstr(Cost, W.Active);
        ++W.PC;
        break;
      }
      case Opcode::AtomGlobal: {
        Buffer *B = bufferOf(In.MemId);
        auto Op = static_cast<ReduceOp>(In.Aux);
        auto Scope = atomicScopeFromAux2(In.Aux2);
        auto Impl = atomicImplFromAux2(In.Aux2);
        std::unordered_map<long long, unsigned> Mult;
        unsigned MaxMult = 0, Lanes = 0;
        if (Race)
          Race->beginInstruction();
        bool Drop = Fault && Fault->fires(FaultKind::DropAtomic);
        bool Dup = Fault && Fault->fires(FaultKind::DuplicateAtomic);
        for (unsigned L = 0; L != WarpLanes; ++L) {
          if (!(W.Active >> L & 1u))
            continue;
          ++Lanes;
          long long Idx = reg(W, In.Src1, L).I;
          MaxMult = std::max(MaxMult, ++Mult[Idx]);
          if (!B)
            continue;
          if (Idx < 0 || static_cast<uint64_t>(Idx) >= B->size()) {
            error(strformat("global atomic out of bounds (index %lld)", Idx));
            continue;
          }
          if (Race)
            Race->onGlobalAccess(Args[In.MemId].Id, In.MemId, Idx, WarpId, L,
                                 W.PC, /*IsWrite=*/true, /*IsAtomic=*/true);
          if (!B->isVirtual()) {
            unsigned Applies = 1;
            if (Drop) {
              Drop = false;
              Applies = 0; // Lost read-modify-write.
            } else if (Dup) {
              Dup = false;
              Applies = 2; // Replayed read-modify-write.
            }
            const Cell &V = reg(W, In.Src2, L);
            for (unsigned A = 0; A != Applies; ++A)
              writeGlobal({Args[In.MemId].Id, static_cast<size_t>(Idx),
                           /*Atomic=*/true, Op, In.Ty, V.F, V.I, V.Idx});
          } else {
            error("atomic on a read-only (virtual) buffer");
          }
          ++GlobalAtomicAddrOps[Idx];
        }
        Stats.GlobalAtomicOps += Lanes;
        double Cost = Arch.GlobalAtomicBaseCost +
                      (MaxMult > 1
                           ? (MaxMult - 1) * Arch.GlobalAtomicConflictCost
                           : 0.0);
        if (Scope == AtomicScope::Block)
          Cost *= Arch.BlockScopeAtomicFactor;
        if (Impl == AtomicImpl::CasLoop) {
          // CAS loop: an extra load + retry round trip per update, with
          // retry divergence when lanes contend on one address.
          Cost *= 2.0;
          if (MaxMult > 1)
            Stats.DivergentBranches += 1;
        }
        chargeWarpInstr(Cost, W.Active);
        ++W.PC;
        break;
      }
      case Opcode::MkPair:
        for (unsigned L = 0; L != WarpLanes; ++L)
          if (W.Active >> L & 1u) {
            Cell &D = reg(W, In.Dst, L);
            Cell V = reg(W, In.Src1, L);
            V.Idx = reg(W, In.Src2, L).I;
            D = V;
          }
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      case Opcode::Red: {
        auto Op = static_cast<ReduceOp>(In.Aux);
        for (unsigned L = 0; L != WarpLanes; ++L) {
          if (!(W.Active >> L & 1u))
            continue;
          Cell &D = reg(W, In.Dst, L);
          Cell R = reg(W, In.Src1, L);
          const Cell &B = reg(W, In.Src2, L);
          if (isArgReduce(Op)) {
            if (isFloatType(In.Ty)) {
              applyReduceOpPair(Op, R.F, R.Idx, B.F, B.Idx);
              R.I = mirrorIntOf(R.F);
            } else {
              applyReduceOpPair(Op, R.I, R.Idx, B.I, B.Idx);
              R.F = static_cast<double>(R.I);
            }
            D = R;
          } else if (isFloatType(In.Ty)) {
            setF(D, applyReduceOp<double>(Op, R.F, B.F), In.Ty);
          } else {
            setI(D, wrapInt(In.Ty, applyReduceOp<long long>(Op, R.I, B.I)));
          }
        }
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      }
      case Opcode::Shfl: {
        auto Mode = static_cast<ShuffleMode>(In.Aux);
        unsigned Width = In.Aux2 ? In.Aux2 : WarpLanes;
        Cell Snapshot[WarpLanes];
        for (unsigned L = 0; L != WarpLanes; ++L)
          Snapshot[L] = reg(W, In.Src1, L);
        for (unsigned L = 0; L != WarpLanes; ++L) {
          if (!(W.Active >> L & 1u))
            continue;
          long long Offset = reg(W, In.Src2, L).I;
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
          // Out-of-segment sources return the lane's own value (CUDA
          // semantics for shfl_down/up).
          if (Src < SegBase || Src >= static_cast<long long>(SegBase + Width))
            Src = L;
          reg(W, In.Dst, L) = Snapshot[Src];
        }
        chargeWarpInstr(Arch.ShuffleCost, W.Active);
        ++W.PC;
        break;
      }
      case Opcode::Bar:
        if (Fault && StuckWarpId < 0 &&
            Fault->fires(FaultKind::StuckWarp)) {
          // The warp never reaches the barrier: it livelocks here (e.g. a
          // software lock loop that never acquires) until the watchdog
          // trips. Do not advance PC or set AtBarrier.
          StuckWarpId = static_cast<int>(WarpId);
          break;
        }
        Stats.Barriers += 1;
        chargeWarpInstr(Arch.BarrierCost, W.Active);
        ++W.PC;
        if (Fault && Fault->fires(FaultKind::SkipBarrier)) {
          // Missing __syncthreads: this warp sails past without waiting
          // for the rest of the block.
          break;
        }
        W.AtBarrier = true;
        return;
      case Opcode::PushIf: {
        uint32_t ThenMask = 0;
        for (unsigned L = 0; L != WarpLanes; ++L)
          if ((W.Active >> L & 1u) && reg(W, In.Src1, L).I != 0)
            ThenMask |= 1u << L;
        uint32_t ElseMask = W.Active & ~ThenMask;
        W.Stack.push_back({W.Active, ElseMask});
        if (ThenMask && ElseMask)
          Stats.DivergentBranches += 1;
        chargeWarpInstr(Arch.AluCost, W.Active);
        if (ThenMask == 0) {
          W.PC = In.Target; // Jump to the ElseIf.
        } else {
          W.Active = ThenMask;
          ++W.PC;
        }
        break;
      }
      case Opcode::ElseIf: {
        Frame &F = W.Stack.back();
        W.Active = F.Else;
        chargeWarpInstr(Arch.AluCost, W.Active ? W.Active : F.Saved);
        if (W.Active == 0)
          W.PC = In.Target; // Jump to the PopIf.
        else
          ++W.PC;
        break;
      }
      case Opcode::PopIf: {
        W.Active = W.Stack.back().Saved;
        W.Stack.pop_back();
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      }
      case Opcode::PushLoop:
        W.Stack.push_back({W.Active, 0});
        chargeWarpInstr(Arch.AluCost, W.Active);
        ++W.PC;
        break;
      case Opcode::LoopTest: {
        if (Fault && StuckWarpId < 0 &&
            Fault->fires(FaultKind::StuckWarp)) {
          StuckWarpId = static_cast<int>(WarpId);
          break; // Spin at this loop head until the watchdog trips.
        }
        uint32_t Continue = 0;
        for (unsigned L = 0; L != WarpLanes; ++L)
          if ((W.Active >> L & 1u) && reg(W, In.Src1, L).I != 0)
            Continue |= 1u << L;
        chargeWarpInstr(Arch.AluCost, W.Active);
        if (Continue == 0) {
          W.Active = W.Stack.back().Saved;
          W.Stack.pop_back();
          W.PC = In.Target;
        } else {
          if (Continue != W.Active)
            Stats.DivergentBranches += 1;
          W.Active = Continue;
          ++W.PC;
        }
        break;
      }
      case Opcode::Jump:
        chargeWarpInstr(Arch.AluCost, W.Active);
        W.PC = In.Target;
        break;
      case Opcode::Exit:
        W.Done = true;
        return;
      }
    }
  }

public:
  /// Per-address global atomic op counts (for the hot-address stat).
  std::unordered_map<long long, uint64_t> GlobalAtomicAddrOps;

private:
  Device &Dev;
  const ArchDesc &Arch;
  const CompiledKernel &Kernel;
  const LaunchConfig &Config;
  const std::vector<ArgValue> &Args;
  unsigned BlockIdx;
  ExecStats &Stats;
  std::vector<std::string> &Errors;
  std::vector<GlobalWrite> *Log;
  RaceDetector *Race;
  FaultInjector *Fault;
  uint64_t InstrBudget;
  uint64_t IssuedWarpInstrs = 0;
  bool BudgetExhausted = false;
  bool DeadlineReported = false;
  /// Warp id held in a livelock by FaultKind::StuckWarp (-1 = none).
  int StuckWarpId = -1;
  std::vector<Warp> Warps;
  std::vector<std::vector<Cell>> SharedMem;
};

/// True when \p Kernel loads a buffer it also writes (store or atomic).
bool kernelLoadsWrittenBuffer(const CompiledKernel &Kernel,
                              const std::vector<ArgValue> &Args) {
  std::vector<BufferId> Loads, Writes;
  for (const Instr &In : Kernel.Code) {
    if (In.Op != Opcode::LdGlobal && In.Op != Opcode::StGlobal &&
        In.Op != Opcode::AtomGlobal)
      continue;
    const ArgValue &V = Args[In.MemId];
    if (!V.IsBuffer)
      continue;
    (In.Op == Opcode::LdGlobal ? Loads : Writes).push_back(V.Id);
  }
  for (BufferId L : Loads)
    if (std::find(Writes.begin(), Writes.end(), L) != Writes.end())
      return true;
  return false;
}

} // namespace

LaunchPlan tangram::sim::planLaunch(const CompiledKernel &Kernel,
                                   const LaunchConfig &Config,
                                   const std::vector<ArgValue> &Args,
                                   const support::ThreadPool *Pool) {
  LaunchPlan Plan;
  if (Config.GridDim == 0 || Config.BlockDim == 0) {
    Plan.Error = "empty launch configuration";
    return Plan;
  }
  if (Args.size() != Kernel.Source->getParams().size()) {
    Plan.Error = "argument count does not match kernel params";
    return Plan;
  }
  Plan.Budget = Config.MaxWarpInstructions;
  if (Plan.Budget == 0) {
    uint64_t MaxScalar = 0;
    for (const ArgValue &A : Args)
      if (!A.IsBuffer)
        MaxScalar = std::max(MaxScalar,
                             static_cast<uint64_t>(std::max(0ll, A.Scalar.I)));
    uint64_t NumWarps = (Config.BlockDim + WarpLanes - 1) / WarpLanes;
    Plan.Budget = (1ull << 20) +
                  4096ull * (Kernel.Code.size() + 16) * NumWarps +
                  64ull * MaxScalar;
  }
  Plan.Parallel = Pool && Pool->getThreadCount() > 1 && Config.GridDim > 1 &&
                  !kernelLoadsWrittenBuffer(Kernel, Args);
  return Plan;
}

void tangram::sim::runGrid(Device &Dev, support::ThreadPool *Pool,
                           bool Parallel, size_t NumBlocks,
                           const RunBlockFn &Run, LaunchResult &Result) {
  const double Start = hostSeconds();
  auto Merge = [&](BlockOutcome &O) {
    Result.DeadlineExceeded |= O.DeadlineExceeded;
    for (const GlobalWrite &W : O.Writes)
      Dev.get(W.Buf).commit(W);
    for (std::string &Msg : O.Errors)
      if (Result.Errors.size() < 8)
        Result.Errors.push_back(std::move(Msg));
    if (Result.SharedBytesPerBlock == 0)
      Result.SharedBytesPerBlock = O.Stats.SharedBytes;
    Result.Stats.accumulate(O.Stats);
  };
  if (Parallel) {
    std::vector<BlockOutcome> Outcomes(NumBlocks);
    Pool->parallelFor(NumBlocks, [&](size_t I) {
      Run(I, Outcomes[I], &Outcomes[I].Writes);
    });
    for (BlockOutcome &O : Outcomes)
      Merge(O);
  } else {
    for (size_t I = 0; I != NumBlocks; ++I) {
      BlockOutcome O;
      Run(I, O, /*Log=*/nullptr);
      Merge(O);
    }
  }
  Result.HostSeconds = hostSeconds() - Start;
}

LaunchResult SimtMachine::launch(const CompiledKernel &Kernel,
                                 const LaunchConfig &Config,
                                 const std::vector<ArgValue> &Args,
                                 ExecMode Mode) {
  LaunchResult Result;
  Result.GridDim = Config.GridDim;
  Result.BlockDim = Config.BlockDim;

  LaunchPlan Plan = planLaunch(Kernel, Config, Args, Pool);
  if (!Plan.Error.empty()) {
    Result.Errors.push_back(Plan.Error);
    return Result;
  }
  if (Config.BlockDim > Arch.MaxThreadsPerBlock) {
    Result.Errors.push_back(
        strformat("block size %u exceeds the architecture limit %u",
                  Config.BlockDim, Arch.MaxThreadsPerBlock));
    return Result;
  }

  // Select the blocks to simulate.
  std::vector<unsigned> Blocks;
  bool Sampled = Mode == ExecMode::Sampled && Config.GridDim > SampledBlocks;
  if (!Sampled) {
    Blocks.resize(Config.GridDim);
    for (unsigned B = 0; B != Config.GridDim; ++B)
      Blocks[B] = B;
  } else {
    // Homogeneous interior blocks plus the (possibly ragged) last block.
    for (unsigned B = 0; B + 1 < SampledBlocks; ++B)
      Blocks.push_back(B);
    Blocks.push_back(Config.GridDim - 1);
  }
  Result.Sampled = Sampled;
  Result.BlocksSimulated = static_cast<unsigned>(Blocks.size());

  // RaceCheck interleaves one detector through every block in block-index
  // order, so it forces the sequential path (and, because Sampled is off,
  // the full grid). An active fault plan does the same: one injector's
  // event ordinals must advance in block-index order for fault sites to be
  // deterministic.
  std::unique_ptr<RaceDetector> Race;
  if (Mode == ExecMode::RaceCheck)
    Race = std::make_unique<RaceDetector>(Kernel);
  std::unique_ptr<FaultInjector> Injector;
  if (Fault.active())
    Injector = std::make_unique<FaultInjector>(Fault);
  runGrid(
      Dev, Pool, Plan.Parallel && !Race && !Injector, Blocks.size(),
      [&](size_t I, BlockOutcome &O, std::vector<GlobalWrite> *Log) {
        if (Race)
          Race->beginBlock(Blocks[I]);
        BlockExecutor Exec(Dev, Arch, Kernel, Config, Args, Blocks[I],
                           O.Stats, O.Errors, Log, Race.get(), Injector.get(),
                           Plan.Budget);
        Exec.run();
        O.DeadlineExceeded = Exec.hitDeadline();
        // The block's hottest global address; summed over blocks.
        for (const auto &[Addr, Ops] : Exec.GlobalAtomicAddrOps)
          O.Stats.GlobalAtomicHotOps =
              std::max(O.Stats.GlobalAtomicHotOps, Ops);
      },
      Result);
  if (Injector)
    Result.FaultsInjected = Injector->getFireCount();
  if (Race) {
    Result.Races = Race->getDiagnostics();
    Result.RaceConflicts = Race->getConflictCount();
    Result.RaceCheckTruncated = Race->isTruncated();
  }

  if (Sampled) {
    double Factor =
        static_cast<double>(Config.GridDim) / Result.BlocksSimulated;
    Result.Stats.scale(Factor);
  }

  Result.RegistersPerThread = Kernel.Source->getRegisterEstimate();
  return Result;
}
