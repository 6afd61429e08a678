//===- RaceDetector.h - Dynamic data-race detection --------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compute-sanitizer-style dynamic race detector for the SIMT simulator.
/// In `ExecMode::RaceCheck` the machine records every shared- and global-
/// memory access (lane, warp, block, program counter, kind, atomicity,
/// barrier epoch) and checks each new access against the per-address
/// history under a happens-before relation derived from the machine's
/// execution model:
///
///  - same thread: ordered by program order;
///  - same warp, different lanes: ordered by lockstep issue — two accesses
///    conflict only when they originate from the *same* instruction issue
///    (e.g. 32 lanes storing to one address), the warp-synchronous
///    assumption valid on the paper's pre-Volta architectures;
///  - same block, different warps: ordered iff a `__syncthreads()` barrier
///    separates them (barrier-epoch comparison);
///  - different blocks: never ordered within one launch for global memory
///    (shared memory is block-private and resets per block); kernel-launch
///    boundaries order everything, which the detector models by being
///    instantiated per launch.
///
/// A race is a pair of concurrent accesses to one address where at least
/// one is a write and not both are atomic. Racing program counters map
/// back through `CompiledKernel::InstrLocs` to codelet source locations.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_GPUSIM_RACEDETECTOR_H
#define TANGRAM_GPUSIM_RACEDETECTOR_H

#include "ir/Bytecode.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace tangram::sim {

/// Which memory an access touched.
enum class MemSpace : unsigned char { Shared, Global };

/// Conflict flavor (atomics count as writes).
enum class RaceKind : unsigned char { ReadWrite, WriteWrite };

const char *getMemSpaceName(MemSpace Space);
const char *getRaceKindName(RaceKind Kind);

/// One recorded access, as the detector saw it.
struct RaceAccess {
  uint32_t PC = 0;
  unsigned Block = 0;
  unsigned Warp = 0;
  unsigned Lane = 0;
  unsigned Epoch = 0; ///< Barrier epoch within the block.
  uint64_t Step = 0;  ///< Instruction-issue ordinal (warp granularity).
  bool IsWrite = false;
  bool IsAtomic = false;
  SourceLoc Loc; ///< Codelet source position (via kernel debug info).
};

/// One reported conflict between two accesses to the same address.
struct RaceDiagnostic {
  MemSpace Space = MemSpace::Shared;
  RaceKind Kind = RaceKind::WriteWrite;
  std::string KernelName;
  std::string MemName; ///< Shared-array or pointer-parameter name.
  long long Index = 0; ///< Element index within the array/buffer.
  RaceAccess First;    ///< The older access of the pair.
  RaceAccess Second;   ///< The newer access of the pair.

  /// Human-readable one-line rendering (no source-line decoding; the
  /// facade layers file:line:column on top via its SourceManager).
  std::string render() const;
};

/// Per-launch access-history tracker. Use sequentially: the machine forces
/// single-threaded block interpretation in RaceCheck mode, so blocks are
/// observed in block-index order and barrier epochs advance globally
/// within each block.
class RaceDetector {
public:
  explicit RaceDetector(const ir::CompiledKernel &Kernel) : Kernel(Kernel) {}

  /// Read records kept per address; older reads age out (a bounded
  /// under-approximation — at least the most recent conflicts survive).
  static constexpr unsigned ReadHistoryLimit = 8;
  /// Diagnostics reported per launch; further races are counted, not kept.
  static constexpr unsigned MaxReports = 16;
  /// Addresses tracked per memory space per launch. Beyond this the
  /// detector stops tracking *new* addresses (sets `truncated`), bounding
  /// memory on very large inputs.
  static constexpr size_t MaxTrackedAddresses = 1u << 22;

  /// Starts block \p BlockIdx: shared-memory history and the barrier epoch
  /// reset (shared memory is block-private; a fresh block implies fresh
  /// contents). Global history persists across blocks.
  void beginBlock(unsigned BlockIdx);

  /// A barrier released all warps of the current block: accesses after it
  /// are ordered against accesses before it.
  void barrier() { ++Epoch; }

  /// A new instruction issue (one per executed instruction per warp);
  /// accesses recorded until the next call share the issue ordinal.
  void beginInstruction() { ++Step; }

  /// Records one lane's shared-memory access and checks it for conflicts.
  void onSharedAccess(unsigned ArrayId, long long Index, unsigned Warp,
                      unsigned Lane, uint32_t PC, bool IsWrite,
                      bool IsAtomic);

  /// Records one lane's global-memory access. \p BufferId keys the history
  /// (two pointer params may alias one buffer); \p ParamIndex names the
  /// parameter in diagnostics.
  void onGlobalAccess(unsigned BufferId, uint16_t ParamIndex,
                      long long Index, unsigned Warp, unsigned Lane,
                      uint32_t PC, bool IsWrite, bool IsAtomic);

  const std::vector<RaceDiagnostic> &getDiagnostics() const {
    return Diagnostics;
  }
  /// Total conflicts observed (>= getDiagnostics().size(): deduplicated by
  /// racing PC pair and capped at MaxReports).
  uint64_t getConflictCount() const { return Conflicts; }
  /// True when the address table overflowed and coverage is partial.
  bool isTruncated() const { return Truncated; }

private:
  struct AddrState {
    RaceAccess LastWrite;
    bool HasWrite = false;
    std::vector<RaceAccess> Reads;
  };

  RaceAccess makeAccess(unsigned Warp, unsigned Lane, uint32_t PC,
                        bool IsWrite, bool IsAtomic) const;
  bool concurrent(const RaceAccess &A, const RaceAccess &B,
                  MemSpace Space) const;
  void check(MemSpace Space, AddrState &State, const RaceAccess &Access,
             const std::string &MemName, long long Index);
  void record(MemSpace Space, AddrState &State, const RaceAccess &Access);
  void report(MemSpace Space, RaceKind Kind, const std::string &MemName,
              long long Index, const RaceAccess &First,
              const RaceAccess &Second);

  const ir::CompiledKernel &Kernel;

  unsigned Block = 0;
  unsigned Epoch = 0;
  uint64_t Step = 0;

  /// Address histories, keyed by (array/buffer id, element index).
  std::unordered_map<uint64_t, AddrState> SharedState;
  std::unordered_map<uint64_t, AddrState> GlobalState;
  /// Deduplication of reported (space, pc, pc) triples.
  std::unordered_set<uint64_t> Reported;

  std::vector<RaceDiagnostic> Diagnostics;
  uint64_t Conflicts = 0;
  bool Truncated = false;
};

} // namespace tangram::sim

#endif // TANGRAM_GPUSIM_RACEDETECTOR_H
