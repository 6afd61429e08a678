//===- GlobalAtomicMapPass.h - Section III-A AST pass -----------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The global-memory atomic pass of Section III-A. A compound codelet may
/// carry both a Map atomic API call (`map.atomicAdd()`, Fig. 1b line 10)
/// and a non-atomic spectrum call (`return sum(map)`, line 11); the two are
/// mutually exclusive accumulation strategies. The analysis locates Map
/// primitives with an atomic API and whether the Map feeds a spectrum call
/// that applies the same computation. The AST itself is never rewritten:
/// the synthesizer lowers every code variant from the checked AST and
/// picks the strategy per descriptor:
///
///  - atomic variant: Map partial results are accumulated with
///    `atomicAdd_block` (block level) / `atomicAdd` (grid level) into a
///    single-element accumulator (Listing 2);
///  - non-atomic variant: partial results go to an array consumed by a
///    second spectrum call (Listing 1).
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_TRANSFORMS_GLOBALATOMICMAPPASS_H
#define TANGRAM_TRANSFORMS_GLOBALATOMICMAPPASS_H

#include "lang/AST.h"

#include <optional>

namespace tangram::transforms {

/// Analysis result: the atomic-accumulation opportunity of one compound
/// codelet.
struct GlobalAtomicInfo {
  /// The Map variable the API was invoked on.
  const lang::VarDecl *MapVar = nullptr;
  /// The spectrum call consuming the Map (null if none).
  lang::CallExpr *SpectrumCall = nullptr;
  /// The atomic operator requested by the API.
  ReduceOp Op = ReduceOp::Add;
  /// Whether the spectrum call applies the same computation as the atomic
  /// API (only then is the atomic variant a drop-in replacement for it).
  bool SameComputation = false;
  /// Whether the op tolerates arbitrary inter-block accumulation order
  /// (reduce::OpDef Commutative && Associative). Atomics serialize updates
  /// in nondeterministic order, so the atomic variant is only generated
  /// when this holds.
  bool ReorderSafe = true;
};

/// Scans \p C for a Map atomic API. Returns nullopt when the codelet has
/// no atomic API call.
std::optional<GlobalAtomicInfo> analyzeGlobalAtomicMap(lang::CodeletDecl *C);

} // namespace tangram::transforms

#endif // TANGRAM_TRANSFORMS_GLOBALATOMICMAPPASS_H
