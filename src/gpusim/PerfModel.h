//===- PerfModel.h - Occupancy and kernel timing model ----------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns the SIMT machine's event counts into modeled kernel time:
///
///   time = max(compute, memory, atomic-serialization) + launch overhead
///
/// - compute: total warp issue-cycles spread over the active SMs with a
///   latency-hiding factor bounded by resident warps and scheduler width;
/// - memory: a bandwidth roofline with separate efficiencies for scalar
///   (32-bit) and vectorized (128-bit) access streams — this is what makes
///   CUB's float4 path win at large N (Section IV-C1);
/// - atomic serialization: updates of one hot global address cannot
///   overlap below the L2 atomic unit's occupancy per op;
/// - occupancy: classic blocks-per-SM limit from threads, block slots,
///   shared memory, and registers — smaller shared footprints (atomics,
///   shuffle variants) raise it (Sections III-B, III-C).
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_GPUSIM_PERFMODEL_H
#define TANGRAM_GPUSIM_PERFMODEL_H

#include "gpusim/Arch.h"
#include "gpusim/SimtMachine.h"

namespace tangram::sim {

/// Resident-blocks result of the occupancy calculation.
struct Occupancy {
  unsigned BlocksPerSM = 0; ///< 0 => launch cannot run (resources exceeded).
  unsigned WarpsPerSM = 0;
  double Fraction = 0.0; ///< WarpsPerSM / (MaxThreadsPerSM/32).

  bool viable() const { return BlocksPerSM > 0; }
};

/// Computes blocks-per-SM for a kernel launch.
Occupancy computeOccupancy(const ArchDesc &Arch, unsigned BlockDim,
                           size_t SharedBytesPerBlock,
                           unsigned RegistersPerThread);

/// Knobs the host-side runners use per launch.
struct TimingOptions {
  /// When > 0, replaces both load efficiencies (the Kokkos-style staged
  /// scheme models its bandwidth behaviour this way; see DESIGN.md).
  double MemoryEfficiencyOverride = 0.0;
};

/// Decomposed modeled time for one kernel launch.
struct KernelTiming {
  double ComputeSeconds = 0;
  double MemorySeconds = 0;
  double AtomicSeconds = 0;
  double OverheadSeconds = 0;
  double TotalSeconds = 0;
  Occupancy Occ;

  /// Which roofline term dominated.
  enum class Bound { Compute, Memory, Atomic } Dominant = Bound::Compute;
};

/// Models the execution time of one launch from its event counts.
KernelTiming modelKernelTime(const ArchDesc &Arch, const LaunchResult &Run,
                             const TimingOptions &Options = {});

} // namespace tangram::sim

#endif // TANGRAM_GPUSIM_PERFMODEL_H
