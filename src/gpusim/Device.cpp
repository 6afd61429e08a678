//===- Device.cpp - Simulated device memory -------------------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "gpusim/Device.h"

#ifdef __linux__
#include <sys/mman.h>
#endif

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
