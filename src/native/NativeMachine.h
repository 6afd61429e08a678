//===- NativeMachine.h - Native CPU execution engine ------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes lowered kernels (NativeKernel) directly on the host at
/// hardware speed, preserving the simulator's observable semantics:
///
///  - each 32-lane warp runs as a SIMD group: typed register planes with
///    fixed-trip vectorizable lane loops (see VecTraits.h), an explicit
///    divergence mask stack, `__shfl_*` as in-register permutes;
///  - `__syncthreads` is a per-block barrier epoch: warps of a block run
///    on one host thread to the barrier, then all are released together —
///    the same epoch structure the interpreter uses, so no OS-level thread
///    team (and no nondeterministic interleaving) is needed;
///  - shared memory is a per-block stack-local typed buffer;
///  - blocks fan out over the engine's ThreadPool with global stores and
///    atomics deferred into program-ordered per-block effect logs that are
///    replayed in block-index order — results are bit-identical across
///    thread counts, exactly like the interpreter's parallel mode (kernels
///    that load a buffer they also write run sequentially, same gate).
///
/// Device memory is the simulator's Device, whose buffers are already
/// typed arrays: the machine binds its views straight to them, so blocks
/// load from and store to the same memory the interpreter (the oracle)
/// reads, with no copy in between. A virtual buffer builds its typed
/// plane once, on its first native launch.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_NATIVE_NATIVEMACHINE_H
#define TANGRAM_NATIVE_NATIVEMACHINE_H

#include "gpusim/SimtMachine.h"
#include "native/NativeKernel.h"

#include <cstdint>
#include <string>
#include <vector>

namespace tangram::support {
class ThreadPool;
} // namespace tangram::support

namespace tangram::native {

/// Result of one native launch.
struct NativeLaunchResult {
  std::vector<std::string> Errors;
  /// Instruction counts over the whole grid (the native analogue of the
  /// interpreter's ExecStats; used for MLIPS reporting).
  uint64_t WarpInstructions = 0;
  uint64_t LaneInstructions = 0;
  /// A block exhausted its warp-instruction watchdog budget.
  bool DeadlineExceeded = false;
  /// Wall-clock seconds spent executing blocks and replaying effects.
  double ExecSeconds = 0;
  unsigned GridDim = 0;
  unsigned BlockDim = 0;

  bool ok() const { return Errors.empty(); }
};

/// Runs NativeKernels against a simulator Device. One machine per engine.
class NativeMachine {
public:
  NativeMachine(sim::Device &Dev, support::ThreadPool *Pool = nullptr)
      : Dev(Dev), Pool(Pool) {}

  /// Executes \p NK over the grid, like SimtMachine::launch. \p Args must
  /// match the kernel's parameter list. On return, every buffer the kernel
  /// wrote holds the results.
  NativeLaunchResult launch(const NativeKernel &NK,
                            const sim::LaunchConfig &Config,
                            const std::vector<sim::ArgValue> &Args);

private:
  sim::Device &Dev;
  support::ThreadPool *Pool;
};

} // namespace tangram::native

#endif // TANGRAM_NATIVE_NATIVEMACHINE_H
