//===- CudaEmitter.h - CUDA C source emission -------------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders kernel IR as CUDA C source (the Listings 1-4 output of the
/// paper's Tangram backend): `__global__` kernels with `__shared__` /
/// `extern __shared__` declarations, atomic instructions with scopes
/// (`atomicAdd`, `atomicAdd_block`), warp shuffle intrinsics
/// (`__shfl_down` / `__shfl_up`), and `__syncthreads()`. A host wrapper
/// in the Reduce_Grid style (cudaMalloc + `<<<grid, block>>>` launch) can
/// be emitted alongside.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_CODEGEN_CUDAEMITTER_H
#define TANGRAM_CODEGEN_CUDAEMITTER_H

#include "ir/KernelIR.h"

#include <string>

namespace tangram::codegen {

/// Options shaping the emitted source.
struct CudaEmitOptions {
  /// Emit `__shfl_down_sync(0xffffffff, ...)` (CUDA 9+) instead of the
  /// legacy `__shfl_down(...)` spelling the paper's listings use.
  bool SyncShuffles = false;
  /// Emit a Reduce_Grid-style host wrapper after the kernel, launching
  /// over `grid_dim` blocks of `block_dim` threads.
  bool EmitHostWrapper = false;
};

/// Renders \p K as CUDA C.
std::string emitCuda(const ir::Kernel &K, const CudaEmitOptions &Options = {});

/// Renders every kernel of \p M.
std::string emitCuda(const ir::Module &M, const CudaEmitOptions &Options = {});

} // namespace tangram::codegen

#endif // TANGRAM_CODEGEN_CUDAEMITTER_H
