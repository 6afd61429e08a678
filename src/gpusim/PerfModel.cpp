//===- PerfModel.cpp - Occupancy and kernel timing model -------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "gpusim/PerfModel.h"

#include <algorithm>
#include <cmath>

using namespace tangram;
using namespace tangram::sim;

Occupancy tangram::sim::computeOccupancy(const ArchDesc &Arch,
                                         unsigned BlockDim,
                                         size_t SharedBytesPerBlock,
                                         unsigned RegistersPerThread) {
  Occupancy Occ;
  if (BlockDim == 0 || BlockDim > Arch.MaxThreadsPerBlock)
    return Occ;
  if (SharedBytesPerBlock > Arch.SharedMemPerBlockBytes)
    return Occ;

  unsigned ByThreads = Arch.MaxThreadsPerSM / BlockDim;
  unsigned ByBlocks = Arch.MaxBlocksPerSM;
  unsigned BySmem =
      SharedBytesPerBlock
          ? static_cast<unsigned>(Arch.SharedMemPerSMBytes /
                                  SharedBytesPerBlock)
          : ~0u;
  unsigned RegsPerBlock = RegistersPerThread * BlockDim;
  unsigned ByRegs =
      RegsPerBlock ? Arch.RegistersPerSM / RegsPerBlock : ~0u;

  unsigned Blocks =
      std::min(std::min(ByThreads, ByBlocks), std::min(BySmem, ByRegs));
  if (Blocks == 0)
    return Occ;

  unsigned WarpsPerBlock = (BlockDim + Arch.WarpSize - 1) / Arch.WarpSize;
  Occ.BlocksPerSM = Blocks;
  Occ.WarpsPerSM = Blocks * WarpsPerBlock;
  Occ.Fraction = static_cast<double>(Occ.WarpsPerSM) /
                 (Arch.MaxThreadsPerSM / Arch.WarpSize);
  return Occ;
}

KernelTiming tangram::sim::modelKernelTime(const ArchDesc &Arch,
                                           const LaunchResult &Run,
                                           const TimingOptions &Options) {
  KernelTiming T;
  T.Occ = computeOccupancy(Arch, Run.BlockDim, Run.SharedBytesPerBlock,
                           Run.RegistersPerThread);
  if (!T.Occ.viable()) {
    // Resource-infeasible launches are priced prohibitively so the tuner
    // never selects them.
    T.TotalSeconds = 1e9;
    return T;
  }

  // --- Compute roofline ------------------------------------------------
  unsigned ActiveSMs = std::min(Run.GridDim, Arch.NumSMs);
  unsigned BlocksPerActiveSM = static_cast<unsigned>(
      (static_cast<uint64_t>(Run.GridDim) + ActiveSMs - 1) / ActiveSMs);
  unsigned ResidentBlocks = std::min(T.Occ.BlocksPerSM, BlocksPerActiveSM);
  unsigned WarpsPerBlock = (Run.BlockDim + Arch.WarpSize - 1) / Arch.WarpSize;
  double ResidentWarps =
      static_cast<double>(WarpsPerBlock) * std::max(1u, ResidentBlocks);
  // Dual-issue pipelines hide latency once enough warps are resident.
  double Ipc = std::clamp(ResidentWarps, 1.0,
                          2.0 * Arch.WarpSchedulersPerSM);
  T.ComputeSeconds = Run.Stats.WarpCycles /
                     (static_cast<double>(ActiveSMs) * Ipc) /
                     (Arch.ClockGHz * 1e9);

  // --- Memory roofline --------------------------------------------------
  double EffScalar = Options.MemoryEfficiencyOverride > 0
                         ? Options.MemoryEfficiencyOverride
                         : Arch.ScalarLoadEfficiency;
  double EffVector = Options.MemoryEfficiencyOverride > 0
                         ? Options.MemoryEfficiencyOverride
                         : Arch.VectorLoadEfficiency;
  double PeakBytesPerSec = Arch.DramBandwidthGBs * 1e9;
  double ScalarBytes = static_cast<double>(Run.Stats.GlobalLoadBytesScalar) +
                       static_cast<double>(Run.Stats.GlobalStoreBytes);
  double VectorBytes = static_cast<double>(Run.Stats.GlobalLoadBytesVector);
  // Uncoalesced accesses drag whole 128-byte segments across the bus for
  // a few useful bytes; the waste is charged at scalar-stream efficiency.
  double WastedBytes =
      static_cast<double>(Run.Stats.UncoalescedExtraBytes);
  T.MemorySeconds = ScalarBytes / (PeakBytesPerSec * EffScalar) +
                    VectorBytes / (PeakBytesPerSec * EffVector) +
                    WastedBytes / (PeakBytesPerSec * EffScalar);
  // DRAM saturation needs enough warps in flight to cover memory latency;
  // under-occupied launches (small grids from aggressive coarsening)
  // achieve a proportionally lower fraction of peak bandwidth.
  constexpr double WarpsToSaturatePerSM = 16.0;
  double TotalResidentWarps = ResidentWarps * ActiveSMs;
  double Saturation = std::min(
      1.0, TotalResidentWarps / (WarpsToSaturatePerSM * Arch.NumSMs));
  if (Saturation > 0)
    T.MemorySeconds /= Saturation;

  // --- Atomic serialization ----------------------------------------------
  T.AtomicSeconds = static_cast<double>(Run.Stats.GlobalAtomicHotOps) *
                    Arch.GlobalAtomicSameAddrNs * 1e-9;

  // --- Composition -------------------------------------------------------
  // The dominant term hides the others, but overlap is imperfect: a small
  // serialized fraction of the minor terms remains visible (and breaks
  // ties between equally memory-bound variants in favor of cheaper
  // compute, matching the measured variant rankings).
  double Sum = T.ComputeSeconds + T.MemorySeconds + T.AtomicSeconds;
  double Body = std::max({T.ComputeSeconds, T.MemorySeconds, T.AtomicSeconds});
  Body += 0.08 * (Sum - Body);
  if (Body == T.MemorySeconds && T.MemorySeconds > 0)
    T.Dominant = KernelTiming::Bound::Memory;
  else if (Body == T.AtomicSeconds && T.AtomicSeconds > 0)
    T.Dominant = KernelTiming::Bound::Atomic;
  else
    T.Dominant = KernelTiming::Bound::Compute;

  T.OverheadSeconds = Arch.KernelLaunchOverheadUs * 1e-6;
  T.TotalSeconds = Body + T.OverheadSeconds;
  return T;
}
