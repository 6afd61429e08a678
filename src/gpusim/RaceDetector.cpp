//===- RaceDetector.cpp - Dynamic data-race detection ----------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "gpusim/RaceDetector.h"

#include <algorithm>
#include <cstdio>

namespace tangram::sim {

const char *getMemSpaceName(MemSpace Space) {
  switch (Space) {
  case MemSpace::Shared:
    return "shared";
  case MemSpace::Global:
    return "global";
  }
  return "?";
}

const char *getRaceKindName(RaceKind Kind) {
  switch (Kind) {
  case RaceKind::ReadWrite:
    return "read-write";
  case RaceKind::WriteWrite:
    return "write-write";
  }
  return "?";
}

namespace {

std::string renderAccess(const RaceAccess &A) {
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "%s%s at pc %u (block %u, warp %u, lane %u, epoch %u)",
                A.IsAtomic ? "atomic " : "", A.IsWrite ? "write" : "read",
                A.PC, A.Block, A.Warp, A.Lane, A.Epoch);
  return Buf;
}

/// Packs an (id, index) pair into one history key. Ids are tiny; element
/// indices are bounds-checked against buffer extents before the detector
/// sees them, so 44 bits of index are ample.
uint64_t addrKey(unsigned Id, long long Index) {
  return (uint64_t(Id) << 44) | (uint64_t(Index) & ((uint64_t(1) << 44) - 1));
}

uint64_t reportKey(MemSpace Space, RaceKind Kind, uint32_t PCA, uint32_t PCB) {
  uint32_t Lo = std::min(PCA, PCB), Hi = std::max(PCA, PCB);
  return (uint64_t(Space) << 62) | (uint64_t(Kind) << 60) |
         (uint64_t(Lo) << 30) | uint64_t(Hi);
}

} // namespace

std::string RaceDiagnostic::render() const {
  std::string Out = getMemSpaceName(Space);
  Out += " memory ";
  Out += getRaceKindName(Kind);
  Out += " race on '";
  Out += MemName;
  Out += "'[";
  Out += std::to_string(Index);
  Out += "] in kernel '";
  Out += KernelName;
  Out += "': ";
  Out += renderAccess(First);
  Out += " vs ";
  Out += renderAccess(Second);
  return Out;
}

void RaceDetector::beginBlock(unsigned BlockIdx) {
  Block = BlockIdx;
  Epoch = 0;
  SharedState.clear();
}

RaceAccess RaceDetector::makeAccess(unsigned Warp, unsigned Lane, uint32_t PC,
                                    bool IsWrite, bool IsAtomic) const {
  RaceAccess A;
  A.PC = PC;
  A.Block = Block;
  A.Warp = Warp;
  A.Lane = Lane;
  A.Epoch = Epoch;
  A.Step = Step;
  A.IsWrite = IsWrite;
  A.IsAtomic = IsAtomic;
  A.Loc = Kernel.locOf(PC);
  return A;
}

bool RaceDetector::concurrent(const RaceAccess &A, const RaceAccess &B,
                              MemSpace Space) const {
  if (A.Block != B.Block)
    // Shared memory is block-private (histories reset per block, so this
    // only arises for global memory): no intra-launch ordering exists
    // between blocks.
    return Space == MemSpace::Global;
  if (A.Epoch != B.Epoch)
    return false; // A barrier separates them.
  if (A.Warp != B.Warp)
    return true; // Same epoch, different warps: unordered.
  if (A.Step != B.Step)
    return false; // Same warp, different issues: lockstep-ordered.
  return A.Lane != B.Lane; // Lanes of one issue are simultaneous.
}

void RaceDetector::report(MemSpace Space, RaceKind Kind,
                          const std::string &MemName, long long Index,
                          const RaceAccess &First, const RaceAccess &Second) {
  ++Conflicts;
  if (!Reported.insert(reportKey(Space, Kind, First.PC, Second.PC)).second)
    return;
  if (Diagnostics.size() >= MaxReports)
    return;
  RaceDiagnostic D;
  D.Space = Space;
  D.Kind = Kind;
  D.KernelName = Kernel.Name;
  D.MemName = MemName;
  D.Index = Index;
  D.First = First;
  D.Second = Second;
  Diagnostics.push_back(std::move(D));
}

void RaceDetector::check(MemSpace Space, AddrState &State,
                         const RaceAccess &Access, const std::string &MemName,
                         long long Index) {
  if (State.HasWrite && concurrent(State.LastWrite, Access, Space) &&
      !(State.LastWrite.IsAtomic && Access.IsAtomic))
    report(Space, Access.IsWrite ? RaceKind::WriteWrite : RaceKind::ReadWrite,
           MemName, Index, State.LastWrite, Access);
  if (Access.IsWrite)
    // Recorded reads are always non-atomic (atomics enter as writes), so a
    // concurrent prior read is a race regardless of this access's atomicity.
    for (const RaceAccess &R : State.Reads)
      if (concurrent(R, Access, Space))
        report(Space, RaceKind::ReadWrite, MemName, Index, R, Access);
}

void RaceDetector::record(MemSpace Space, AddrState &State,
                          const RaceAccess &Access) {
  (void)Space;
  if (Access.IsWrite) {
    State.LastWrite = Access;
    State.HasWrite = true;
    return;
  }
  // A warp-wide load of one address produces 32 identical records; keep
  // one per issue so the bounded history covers distinct program points.
  if (!State.Reads.empty()) {
    const RaceAccess &Last = State.Reads.back();
    if (Last.Warp == Access.Warp && Last.Step == Access.Step &&
        Last.PC == Access.PC)
      return;
  }
  if (State.Reads.size() >= ReadHistoryLimit)
    State.Reads.erase(State.Reads.begin());
  State.Reads.push_back(Access);
}

void RaceDetector::onSharedAccess(unsigned ArrayId, long long Index,
                                  unsigned Warp, unsigned Lane, uint32_t PC,
                                  bool IsWrite, bool IsAtomic) {
  uint64_t Key = addrKey(ArrayId, Index);
  auto It = SharedState.find(Key);
  if (It == SharedState.end()) {
    if (SharedState.size() >= MaxTrackedAddresses) {
      Truncated = true;
      return;
    }
    It = SharedState.emplace(Key, AddrState()).first;
  }
  RaceAccess A = makeAccess(Warp, Lane, PC, IsWrite, IsAtomic);
  const std::string &Name = ArrayId < Kernel.SharedArrays.size()
                                ? Kernel.SharedArrays[ArrayId]->Name
                                : Kernel.Name;
  check(MemSpace::Shared, It->second, A, Name, Index);
  record(MemSpace::Shared, It->second, A);
}

void RaceDetector::onGlobalAccess(unsigned BufferId, uint16_t ParamIndex,
                                  long long Index, unsigned Warp,
                                  unsigned Lane, uint32_t PC, bool IsWrite,
                                  bool IsAtomic) {
  uint64_t Key = addrKey(BufferId, Index);
  auto It = GlobalState.find(Key);
  if (It == GlobalState.end()) {
    if (GlobalState.size() >= MaxTrackedAddresses) {
      Truncated = true;
      return;
    }
    It = GlobalState.emplace(Key, AddrState()).first;
  }
  RaceAccess A = makeAccess(Warp, Lane, PC, IsWrite, IsAtomic);
  const ir::Kernel *Src = Kernel.Source;
  std::string Name =
      Src && ParamIndex < Src->getParams().size()
          ? Src->getParams()[ParamIndex]->Name
          : ("param#" + std::to_string(ParamIndex));
  check(MemSpace::Global, It->second, A, Name, Index);
  record(MemSpace::Global, It->second, A);
}

} // namespace tangram::sim
