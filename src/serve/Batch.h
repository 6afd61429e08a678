//===- Batch.h - Segmented batch execution of small reductions --*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer's coalescing engine: many small-N reduction jobs of
/// one (op, dtype) lane are packed into a single segmented launch of a
/// two-kernel variant's *first* stage. Each job owns exactly one block
/// tile (ObjectSize elements), padded with the kernel identity, so block j
/// computes job j's partial. The arena launches through the engine's own
/// first stage (ExecutionEngine::runStage), so the partials buffer, its
/// identity seed, the arguments and the backend choice are those of a
/// lone run; a host-side epilogue replicates the second
/// stage's identity fold. The result of each job is bit-identical to
/// running it alone through ExecutionEngine::run with the same descriptor:
///
///  - The padded cells hold reduce::getKernelIdentity, the same constant
///    tileExpand substitutes for guarded out-of-range loads, so every
///    schedule position folds the same operand value in both executions.
///  - Arg-reductions see arena-global indexes (a uniform shift of the
///    job-local ones); the smaller-index tie-break preserves the winning
///    element under a uniform shift, and the epilogue shifts it back. A
///    winner inside the padding corresponds exactly to the lone-run case
///    where the guard constant wins, and is mapped to its index lane.
///  - The per-job second stage reduces a single partial against identity
///    padding — an identity fold — which the epilogue replays with
///    sim::foldCell, the interpreter's own atomic fold (value computed in
///    double, F32 results rounded per step, integer lane mirrored).
///
/// Sub is excluded by the shard (its second stage subtracts partials, so
/// coalescing would change the sign structure).
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_SERVE_BATCH_H
#define TANGRAM_SERVE_BATCH_H

#include "serve/ReductionService.h"

#include "gpusim/Device.h"

namespace tangram::engine {
class ExecutionEngine;
} // namespace tangram::engine

namespace tangram::serve {

/// Uploads one job's payload into \p Buf starting at \p Offset, with the
/// device upload rules (F32 values rounded to float on write; the value
/// lane matching the element type is authoritative).
void writeJob(sim::Device &Dev, sim::BufferId Buf, size_t Offset,
              const JobSpec &Spec);

/// Runs \p Jobs (all of one (op, dtype) lane, each with size() <= the
/// descriptor's block tile) as ONE segmented stage-1 launch of \p Desc on
/// \p E (ExecutionEngine::runStage), plus the host epilogue. Results are
/// in job order; Seconds is the batch's modeled (or native wall-clock)
/// time split evenly across jobs. A non-Ok Status means the batch could
/// not run — synthesis and launch failures quarantine \p Desc on \p E so
/// the caller's per-job failover takes over.
support::Expected<std::vector<JobResult>>
runBatch(engine::ExecutionEngine &E, const synth::VariantDescriptor &Desc,
         engine::Backend B, const std::vector<const JobSpec *> &Jobs);

} // namespace tangram::serve

#endif // TANGRAM_SERVE_BATCH_H
