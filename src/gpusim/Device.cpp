//===- Device.cpp - Simulated device memory -------------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Device.h"

#include "support/ReduceOp.h"

#ifdef __linux__
#include <sys/mman.h>
#endif

using namespace tangram;
using namespace tangram::sim;

void Buffer::commit(const GlobalWrite &W) {
  const size_t I = W.Index;
  if (!W.Atomic) {
    write(I, Cell{W.I, W.F, W.Idx});
    return;
  }
  assert(I < Count && !Virtual && "atomic on an invalid element");
  long long Index = Idx.empty() ? 0 : Idx[I];
  if (P == Plane::Int) {
    long long V = Ints[I];
    applyReduceOpPair(W.Op, V, Index, W.I, W.Idx);
    Ints[I] = ir::wrapToType(
        Elem, isArgReduce(W.Op) ? V : ir::wrapToType(W.Ty, V));
  } else {
    double V = P == Plane::F32 ? F32[I] : F64[I];
    applyReduceOpPair(W.Op, V, Index, W.F, W.Idx);
    if (P == Plane::F32)
      F32[I] = static_cast<float>(V);
    else
      F64[I] = W.Ty == ir::ScalarType::F64 ? V : static_cast<float>(V);
  }
  if (Idx.empty() && Index != 0)
    addIndexLane();
  if (!Idx.empty())
    Idx[I] = Index;
}

void *tangram::sim::allocateStorage(size_t Bytes) {
  void *P = std::calloc(1, Bytes);
  if (!P)
    throw std::bad_alloc();
#ifdef MADV_HUGEPAGE
  // Only a hint, over the whole pages inside the block: where the kernel
  // declines, the array keeps small pages.
  const uintptr_t Page = 4096, Begin = reinterpret_cast<uintptr_t>(P);
  if (Bytes >= (uintptr_t{2} << 20))
    madvise(reinterpret_cast<void *>((Begin + Page - 1) & ~(Page - 1)),
            (Bytes - Page) & ~(Page - 1), MADV_HUGEPAGE);
#endif
  return P;
}
