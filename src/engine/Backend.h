//===- Backend.h - Execution backend selection ------------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Which engine executes a synthesized kernel:
///
///   Simulator — the SIMT bytecode interpreter with its cycle-level
///               performance model. The oracle: every other backend is
///               validated against it.
///   NativeCpu — the src/native machine: the same bytecode lowered to
///               typed register planes and run as vectorized host code
///               (warp-per-SIMD-group). No cycle model; its "seconds" are
///               host wall-clock, which is what a serving deployment on a
///               CPU actually pays.
///
/// The backend is part of the VariantKey — native resolution attaches a
/// lowering artifact to the cached variant — and a parameter of the
/// ExecutionEngine run/tune entry points.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_ENGINE_BACKEND_H
#define TANGRAM_ENGINE_BACKEND_H

namespace tangram::engine {

enum class Backend : unsigned char {
  Simulator,
  NativeCpu,
};

inline const char *getBackendName(Backend B) {
  switch (B) {
  case Backend::Simulator:
    return "simulator";
  case Backend::NativeCpu:
    return "native";
  }
  return "unknown";
}

/// The backend a failover chain tries when \p B cannot answer.
inline Backend getOtherBackend(Backend B) {
  return B == Backend::Simulator ? Backend::NativeCpu : Backend::Simulator;
}

} // namespace tangram::engine

#endif // TANGRAM_ENGINE_BACKEND_H
