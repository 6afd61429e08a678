//===- SimtMachine.h - SIMT bytecode execution engine -----------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes compiled kernels the way a GPU does: a grid of blocks, each
/// block a set of 32-lane warps running in lockstep with an explicit
/// divergence mask stack, shared memory per block, barriers, atomics, and
/// warp shuffles. While executing it gathers the microarchitectural event
/// counts (instruction mix, memory transactions, atomic contention,
/// divergence) that the performance model turns into modeled time.
///
/// Three execution modes:
///  - Functional: every block runs; results in device memory are exact.
///  - Sampled: only a subset of blocks runs (homogeneous-grid assumption)
///    and event counts are scaled; used by the benchmark harness for the
///    paper's multi-hundred-million-element sizes.
///  - RaceCheck: every block runs sequentially while a RaceDetector records
///    all shared/global accesses and reports data races (see
///    RaceDetector.h for the happens-before model).
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_GPUSIM_SIMTMACHINE_H
#define TANGRAM_GPUSIM_SIMTMACHINE_H

#include "gpusim/Arch.h"
#include "gpusim/Device.h"
#include "gpusim/FaultInjector.h"
#include "gpusim/RaceDetector.h"
#include "ir/Bytecode.h"

#include <string>
#include <vector>

namespace tangram::support {
class ThreadPool;
} // namespace tangram::support

namespace tangram::sim {

/// Grid/block geometry for one launch (1-D, like the paper's kernels).
struct LaunchConfig {
  unsigned GridDim = 1;
  unsigned BlockDim = 32;
  /// Extent (elements) bound to `extern __shared__` arrays.
  size_t DynSharedElems = 0;
  /// Watchdog: per-block warp-instruction budget. A block that issues more
  /// traps with an error and LaunchResult::DeadlineExceeded instead of
  /// spinning forever (e.g. a livelocked Kepler lock loop). 0 derives a
  /// generous default from the kernel size, block width, and the largest
  /// scalar argument — every launch has a finite budget.
  uint64_t MaxWarpInstructions = 0;
};

/// One kernel argument: a device buffer (pointer param) or scalar value.
struct ArgValue {
  static ArgValue buffer(BufferId Id) {
    ArgValue V;
    V.IsBuffer = true;
    V.Id = Id;
    return V;
  }
  static ArgValue scalar(long long I) {
    ArgValue V;
    V.Scalar.I = I;
    V.Scalar.F = static_cast<double>(I);
    return V;
  }
  static ArgValue scalarF(double F) {
    ArgValue V;
    V.Scalar.F = F;
    V.Scalar.I = static_cast<long long>(F);
    return V;
  }

  bool IsBuffer = false;
  BufferId Id = 0;
  Cell Scalar;
};

enum class ExecMode : unsigned char { Functional, Sampled, RaceCheck };

/// Microarchitectural event counts, aggregated over the (scaled) grid.
struct ExecStats {
  double WarpCycles = 0;        ///< Sum of per-warp issue cycles.
  uint64_t LaneInstructions = 0;
  uint64_t WarpInstructions = 0;
  uint64_t GlobalLoadBytesScalar = 0; ///< 32-bit per-lane loads.
  uint64_t GlobalLoadBytesVector = 0; ///< 64/128-bit vectorized loads.
  uint64_t GlobalStoreBytes = 0;
  uint64_t GlobalTransactions = 0; ///< 128-byte segments touched.
  /// Bytes moved beyond the useful ones because warp accesses spanned
  /// more 128-byte segments than necessary (uncoalesced access).
  uint64_t UncoalescedExtraBytes = 0;
  uint64_t SharedAtomicOps = 0;    ///< Lane-level shared atomic updates.
  uint64_t SharedAtomicConflicts = 0; ///< Serialized extra lane-updates.
  uint64_t GlobalAtomicOps = 0;
  /// Updates of the most contended single global address per block,
  /// summed over blocks (reductions hit the same accumulator in every
  /// block, so this measures device-wide serialization pressure).
  uint64_t GlobalAtomicHotOps = 0;
  uint64_t Barriers = 0;
  uint64_t DivergentBranches = 0;
  uint64_t SharedBytes = 0;

  void scale(double Factor);
  void accumulate(const ExecStats &Other);
};

/// Result of one kernel launch.
struct LaunchResult {
  ExecStats Stats;
  unsigned BlocksSimulated = 0;
  unsigned GridDim = 0;
  unsigned BlockDim = 0;
  bool Sampled = false;
  /// Shared memory per block in bytes (occupancy input).
  size_t SharedBytesPerBlock = 0;
  unsigned RegistersPerThread = 0;
  /// Runtime errors (out-of-bounds, division by zero, deadlock). Empty on
  /// clean execution.
  std::vector<std::string> Errors;
  /// Data races found in ExecMode::RaceCheck (empty otherwise, and empty
  /// when the launch is race-free).
  std::vector<RaceDiagnostic> Races;
  /// Total race-pair observations, before PC-pair deduplication and the
  /// MaxReports cap (RaceCheck mode only).
  uint64_t RaceConflicts = 0;
  /// The race detector's address table overflowed; race coverage is
  /// partial (RaceCheck mode only).
  bool RaceCheckTruncated = false;
  /// At least one block exhausted its warp-instruction watchdog budget
  /// (livelock or runaway loop); an Errors entry describes it.
  bool DeadlineExceeded = false;
  /// Faults the active FaultPlan actually applied during this launch.
  uint64_t FaultsInjected = 0;

  bool ok() const { return Errors.empty(); }
};

/// Executes kernels on a Device according to an ArchDesc.
///
/// When constructed with a thread pool of more than one thread, independent
/// blocks are interpreted concurrently: each block runs against the pristine
/// device image and defers its global-memory writes into a private,
/// program-ordered effect log; after all blocks finish, the logs are
/// replayed in block-index order. Functional results, modeled cycle counts,
/// and error lists are therefore bit-identical to the sequential path.
/// Kernels that load a buffer they also write (store or atomic) fall back to
/// sequential execution automatically.
class SimtMachine {
public:
  SimtMachine(Device &Dev, const ArchDesc &Arch,
              support::ThreadPool *Pool = nullptr)
      : Dev(Dev), Arch(Arch), Pool(Pool) {}

  /// Runs \p Kernel over the grid. \p Args must match the kernel's
  /// parameter list (buffers for pointer params, scalars otherwise).
  LaunchResult launch(const ir::CompiledKernel &Kernel,
                      const LaunchConfig &Config,
                      const std::vector<ArgValue> &Args,
                      ExecMode Mode = ExecMode::Functional);

  /// Maximum blocks sampled per launch in Sampled mode.
  static constexpr unsigned SampledBlocks = 48;

  /// Fault plan applied to every subsequent launch (an inactive plan — the
  /// default — injects nothing). Active plans force sequential block
  /// execution, like RaceCheck, so fault sites are deterministic.
  void setFaultPlan(const FaultPlan &Plan) { Fault = Plan; }
  const FaultPlan &getFaultPlan() const { return Fault; }

private:
  Device &Dev;
  const ArchDesc &Arch;
  support::ThreadPool *Pool;
  FaultPlan Fault;
};

/// Evaluates a launch-uniform IR expression (shared-array extents): only
/// constants, scalar params, and arithmetic are allowed.
long long evalUniformExpr(const ir::Expr *E, const ir::CompiledKernel &Kernel,
                          const std::vector<ArgValue> &Args,
                          const LaunchConfig &Config);

/// True when \p Kernel loads a buffer it also writes (store or atomic):
/// the only shape where deferred-write block parallelism could change what
/// later blocks observe. Such launches run their blocks sequentially with
/// writes applied in place — on the interpreter and on the native CPU
/// backend alike, so both stay bit-identical to the sequential loop.
bool kernelLoadsWrittenBuffer(const ir::CompiledKernel &Kernel,
                              const std::vector<ArgValue> &Args);

} // namespace tangram::sim

#endif // TANGRAM_GPUSIM_SIMTMACHINE_H
