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

#include <functional>
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
  /// Host wall-clock seconds spent running the blocks and committing their
  /// writes. It is the native backend's reported time; the simulator's is
  /// modeled from Stats.
  double HostSeconds = 0;

  bool ok() const { return Errors.empty(); }
};

/// What a launch decides before its first block, the same way on both
/// machines (see planLaunch).
struct LaunchPlan {
  /// Why the launch cannot run; empty when it can.
  std::string Error;
  /// Per-block warp-instruction budget (the watchdog).
  uint64_t Budget = 0;
  /// Blocks may run concurrently, each logging its global writes for a
  /// commit in block-index order. Otherwise blocks run in index order and
  /// write in place.
  bool Parallel = false;
};

/// The launch prologue of both machines. Checks that the grid is not empty
/// and that \p Args has one value per kernel parameter. Takes the watchdog
/// budget from Config.MaxWarpInstructions, or when that is 0 derives a
/// generous default from the kernel size, warp count and largest scalar
/// argument: loose, but finite, so a livelocked lock loop always traps.
/// Blocks may run in parallel on a \p Pool of more than one thread, for a
/// grid of more than one block, unless the kernel loads a buffer it also
/// writes (store or atomic): the only shape where deferred writes could
/// change what later blocks observe.
LaunchPlan planLaunch(const ir::CompiledKernel &Kernel,
                      const LaunchConfig &Config,
                      const std::vector<ArgValue> &Args,
                      const support::ThreadPool *Pool);

/// What one block leaves for its launch to merge.
struct BlockOutcome {
  ExecStats Stats;
  std::vector<std::string> Errors;
  /// The block's global writes in program order, when it ran in parallel.
  std::vector<GlobalWrite> Writes;
  bool DeadlineExceeded = false;
};

/// Runs one block: block number \p I of the launch's list, into \p Out.
/// Its global writes go to \p Log when that is non-null, else straight to
/// device memory.
using RunBlockFn = std::function<void(size_t I, BlockOutcome &Out,
                                      std::vector<GlobalWrite> *Log)>;

/// The grid loop of both machines: runs \p NumBlocks blocks through \p Run,
/// concurrently on \p Pool when \p Parallel, else in order, and merges the
/// outcomes into \p Result in block order: writes committed, the first 8
/// errors kept, deadline flags and stats accumulated, the first block's
/// shared bytes and the host seconds recorded.
void runGrid(Device &Dev, support::ThreadPool *Pool, bool Parallel,
             size_t NumBlocks, const RunBlockFn &Run, LaunchResult &Result);

/// Executes kernels on a Device according to an ArchDesc.
///
/// A launch takes the path both machines share: planLaunch, then runGrid.
/// With a thread pool of more than one thread, independent blocks are
/// interpreted concurrently against the pristine device image, each logging
/// its global writes in program order; runGrid commits the logs in
/// block-index order. Functional results, modeled cycle counts and error
/// lists are therefore bit-identical to the sequential path. RaceCheck
/// launches and launches under an active fault plan always run in order.
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

} // namespace tangram::sim

#endif // TANGRAM_GPUSIM_SIMTMACHINE_H
