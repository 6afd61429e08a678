//===- NativeKernel.h - Bytecode -> host-executable lowering ----*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers post-pass SIMT bytecode (the PassManager pipeline's output, the
/// same artifact the simulator interprets) into a form the native CPU
/// engine can execute at host speed. The interpreter's registers are
/// untyped Cells — every register carries integer, float, and index lanes
/// at once, and every write mirrors the value into the sibling views —
/// which is exactly what makes interpretation slow. The native backend
/// instead stores each register as separate typed lane *planes*:
///
///   Int  — I32/U32/I64 data, stored widened to 64 bits (wrapped per
///          operation type, exactly like the interpreter);
///   F32  — float data (see NativeMachine.cpp for why float arithmetic
///          stays bit-compatible with the interpreter's double-then-round
///          evaluation for every op the synthesizer emits);
///   F64  — double data.
///
/// Typed opcodes (arithmetic, loads, casts) name their plane through the
/// instruction's scalar type, but the synthesizer freely reuses scratch
/// registers across planes (r6 may hold an int immediate at one point and
/// a float at the next) and Mov/Shfl copy whatever their source holds. So
/// the lowering runs a forward dataflow over the bytecode CFG that tracks,
/// per program point, which plane holds each register's live value, and
/// annotates every untyped copy and every store source with the plane to
/// move (NativeKernel::OperandPlane). A register that reaches a read with
/// conflicting planes on different paths is outside the typed subset: the
/// kernel is rejected with a structured Status instead of miscompiled, and
/// callers fall back to the simulator. Pair reductions (ArgMin/ArgMax)
/// additionally carry the index payload in a parallel Idx plane, mirroring
/// Cell::Idx.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_NATIVE_NATIVEKERNEL_H
#define TANGRAM_NATIVE_NATIVEKERNEL_H

#include "gpusim/Device.h"
#include "ir/Bytecode.h"
#include "support/Expected.h"

#include <vector>

namespace tangram::native {

/// Register planes use the device's storage planes (one lane array per
/// register per warp).
using sim::Plane;
using sim::planeOf;

const char *getPlaneName(Plane P);

/// Which plane holds an instruction operand's live value at that program
/// point (the dataflow's verdict). `All` means every plane agrees — the
/// register is a scalar parameter (the launcher fills all planes, like the
/// interpreter's Cell binding) or was never written (all planes zero) —
/// so untyped copies must move every allocated plane.
enum class ValuePlane : unsigned char { All, Int, F32, F64 };

/// A bytecode kernel plus the typing the native engine needs to run it on
/// typed register planes. Borrows the CompiledKernel (callers — the
/// engine's SynthesizedVariant — own both and keep them together).
struct NativeKernel {
  const ir::CompiledKernel *Code = nullptr;
  /// Indexed by PC. Meaningful for the plane-ambiguous instructions only:
  /// Mov/Shfl/MkPair (the plane of the copied value, i.e. of Src1) and
  /// StGlobal/StShared/AtomGlobal/AtomShared (the plane Src2's live value
  /// is stored on; the machine converts to the destination's element plane
  /// with the interpreter's cell-mirror rules). `All` elsewhere.
  std::vector<ValuePlane> OperandPlane;
  /// Kernel manipulates (value, index) pairs: MkPair, arg-reductions, or
  /// arg-atomics appear. The machine then threads an Idx plane through
  /// registers, shared arrays, and buffer index lanes, like Cell::Idx.
  bool PairMode = false;
  /// Which planes the kernel touches (skip allocating the others).
  bool UsesInt = false, UsesF32 = false, UsesF64 = false;
};

/// Runs the plane dataflow over \p K and builds its native form. Fails
/// with StatusCode::SynthesisError when the bytecode is outside the typed
/// subset (a read reaches values on conflicting planes, an access
/// disagrees with a shared array's element plane, ...); the caller keeps
/// using the simulator for that kernel.
support::Expected<NativeKernel> lowerToNative(const ir::CompiledKernel &K);

} // namespace tangram::native

#endif // TANGRAM_NATIVE_NATIVEKERNEL_H
