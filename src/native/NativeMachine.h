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
/// Device memory stays the simulator's Cell-based Device (so the oracle
/// cross-check and all existing tooling keep working); the machine keeps
/// typed *mirrors* of the buffers it touches, keyed on Buffer::getStamp(),
/// converts on first use, and writes mutated mirrors back after a launch.
/// Mirror conversion is reported separately from execution time since it
/// amortizes across launches in a tuning/serving loop.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_NATIVE_NATIVEMACHINE_H
#define TANGRAM_NATIVE_NATIVEMACHINE_H

#include "gpusim/SimtMachine.h"
#include "native/NativeKernel.h"

#include <cstdint>
#include <string>
#include <unordered_map>
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
  /// Wall-clock seconds spent (re)building typed buffer mirrors this
  /// launch; 0 on steady-state reuse.
  double MirrorSeconds = 0;
  unsigned GridDim = 0;
  unsigned BlockDim = 0;

  bool ok() const { return Errors.empty(); }
};

/// Runs NativeKernels against a simulator Device. One machine per engine;
/// it owns the typed mirror cache, so repeated launches over the same
/// buffers (tuning sweeps, serving) skip reconversion.
class NativeMachine {
public:
  NativeMachine(sim::Device &Dev, support::ThreadPool *Pool = nullptr)
      : Dev(Dev), Pool(Pool) {}

  /// Executes \p NK over the grid, like SimtMachine::launch. \p Args must
  /// match the kernel's parameter list. On return, device cells of every
  /// buffer the kernel wrote hold the results (mirrors written back).
  NativeLaunchResult launch(const NativeKernel &NK,
                            const sim::LaunchConfig &Config,
                            const std::vector<sim::ArgValue> &Args);

private:
  /// Typed copy of one device buffer's active value lane (+ index payload
  /// lane in pair mode), keyed by the buffer's mutation stamp.
  struct Mirror {
    uint64_t Stamp = 0;
    Plane P = Plane::Int;
    size_t Size = 0;
    std::vector<float> F32;
    std::vector<double> F64;
    std::vector<long long> I;
    std::vector<long long> Idx;
    bool HasIdx = false;
    bool Dirty = false;
  };

  Mirror &ensureMirror(sim::BufferId Id, bool NeedIdx, double &BuildSeconds);
  void writeBack(sim::BufferId Id, Mirror &M);
  void pruneStale();

  sim::Device &Dev;
  support::ThreadPool *Pool;
  std::unordered_map<sim::BufferId, Mirror> Mirrors;
};

} // namespace tangram::native

#endif // TANGRAM_NATIVE_NATIVEMACHINE_H
