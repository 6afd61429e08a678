//===- Batch.cpp - Segmented batch execution of small reductions -----------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "serve/Batch.h"

#include "engine/ExecutionEngine.h"
#include "gpusim/PerfModel.h"
#include "ir/Bytecode.h"
#include "support/ReduceOp.h"

#include <cassert>

using namespace tangram;
using namespace tangram::serve;

using support::Expected;
using support::Status;
using support::StatusCode;

void serve::writeJob(sim::Device &Dev, sim::BufferId Buf, size_t Offset,
                     const JobSpec &Spec) {
  // Buffer::write keeps the element type's lane: F32 data is rounded to
  // float exactly like Device::writeFloats fed from a float vector.
  sim::Buffer &B = Dev.get(Buf);
  sim::Cell C;
  if (ir::isFloatType(Spec.Elem)) {
    for (size_t I = 0; I != Spec.FloatData.size(); ++I) {
      C.F = Spec.FloatData[I];
      B.write(Offset + I, C);
    }
  } else {
    for (size_t I = 0; I != Spec.IntData.size(); ++I) {
      C.I = Spec.IntData[I];
      B.write(Offset + I, C);
    }
  }
}

void serve::foldCell(ReduceOp Op, ir::ScalarType Ty, sim::Cell &Acc,
                     const sim::Cell &V) {
  // Mirrors the SIMT machine's atomicApply: the element type picks the
  // authoritative value lane, pair ops fold (value, index) with the
  // smaller-index tie-break, and the other numeric lane mirrors the
  // result so downstream readers of either lane agree.
  if (isArgReduce(Op)) {
    if (ir::isFloatType(Ty)) {
      applyReduceOpPair(Op, Acc.F, Acc.Idx, V.F, V.Idx);
      Acc.I = ir::saturatingIntOf(Acc.F);
    } else {
      applyReduceOpPair(Op, Acc.I, Acc.Idx, V.I, V.Idx);
      Acc.F = static_cast<double>(Acc.I);
    }
    return;
  }
  if (ir::isFloatType(Ty)) {
    double R = applyReduceOp<double>(Op, Acc.F, V.F);
    if (Ty != ir::ScalarType::F64) {
      float F32 = static_cast<float>(R);
      Acc.F = F32;
      Acc.I = ir::saturatingIntOf(F32);
    } else {
      Acc.F = R;
      Acc.I = ir::saturatingIntOf(R);
    }
  } else {
    Acc.I = ir::wrapToType(Ty, applyReduceOp<long long>(Op, Acc.I, V.I));
    Acc.F = static_cast<double>(Acc.I);
  }
}

Expected<std::vector<JobResult>>
serve::runBatch(engine::ExecutionEngine &E,
                const synth::VariantDescriptor &Desc, engine::Backend B,
                const std::vector<const JobSpec *> &Jobs) {
  if (Jobs.empty())
    return std::vector<JobResult>();
  if (E.isQuarantined(Desc))
    return Status(StatusCode::Unavailable,
                  "batch variant is quarantined on this shard");

  const ReduceOp Op = Jobs.front()->Op;
  const ir::ScalarType Elem = Jobs.front()->Elem;
  auto V = E.getVariant(Desc, {}, B);
  if (!V) {
    // Synthesis/lowering failure is structural: quarantine so the shard
    // stops retrying the descriptor and degrades to the failover chain.
    E.quarantineVariant(Desc, V.status());
    return V.status();
  }
  if (!(*V)->Desc.usesSecondKernel())
    return Status(StatusCode::InvalidArgument,
                  "batch execution needs a two-kernel (partials) variant");

  const size_t K = Jobs.size();
  const size_t Tile = (*V)->elementsPerBlock();
  for (const JobSpec *Job : Jobs)
    if (Job->size() > Tile)
      return Status(StatusCode::InvalidArgument,
                    "batched job exceeds one block tile");

  sim::Device &Dev = E.getDevice();
  struct Scope {
    sim::Device &D;
    size_t M;
    ~Scope() { D.release(M); }
  } Scratch{Dev, Dev.mark()};

  // The arena: job j owns cells [j*Tile, (j+1)*Tile), padded with the
  // kernel identity — the constant guarded loads substitute when the same
  // job runs alone, so every schedule position folds identical operands.
  const reduce::IdentityCell KIdentity = reduce::getKernelIdentity(Op, Elem);
  const sim::Cell KId{KIdentity.I, KIdentity.F, KIdentity.Idx};
  sim::BufferId Arena = Dev.alloc(Elem, K * Tile);
  sim::Buffer &AB = Dev.get(Arena);
  for (size_t J = 0; J != K; ++J) {
    const size_t Base = J * Tile;
    writeJob(Dev, Arena, Base, *Jobs[J]);
    for (size_t I = Jobs[J]->size(); I != Tile; ++I)
      AB.write(Base + I, KId);
  }

  // Identity-seed cell 0 like the engine does for its partials buffer; the
  // kernel overwrites every cell it owns.
  const reduce::IdentityCell Identity = reduce::getIdentity(Op, Elem);
  const sim::Cell Id{Identity.I, Identity.F, Identity.Idx};
  sim::BufferId Partials = Dev.alloc(Elem, K);
  Dev.get(Partials).write(0, Id);

  // One stage-1 launch over the whole arena: N = K*Tile with ObjectSize =
  // Tile makes the grid exactly K blocks, one per job.
  sim::LaunchConfig Config = engine::makeLaunchConfig(**V, K * Tile);
  assert(Config.GridDim == K && "arena tiling must map one block per job");
  std::vector<sim::ArgValue> Args = {
      sim::ArgValue::buffer(Partials), sim::ArgValue::buffer(Arena),
      sim::ArgValue::scalar(static_cast<long long>(K * Tile)),
      sim::ArgValue::scalar(static_cast<long long>(Tile))};

  double BatchSeconds = 0;
  if (B == engine::Backend::NativeCpu) {
    if (!(*V)->Native)
      return Status(StatusCode::InvalidArgument,
                    "batch variant was not resolved for the native backend");
    native::NativeLaunchResult NR =
        E.getNativeMachine().launch(*(*V)->Native, Config, Args);
    if (!NR.ok() || NR.DeadlineExceeded) {
      Status Why(NR.DeadlineExceeded ? StatusCode::DeadlineExceeded
                                     : StatusCode::LaunchError,
                 NR.Errors.empty() ? "native batch deadline exceeded"
                                   : NR.Errors.front());
      E.quarantineVariant(Desc, Why);
      return Why;
    }
    BatchSeconds = NR.ExecSeconds;
  } else {
    sim::LaunchResult LR =
        E.launch((*V)->Compiled, Config, Args, sim::ExecMode::Functional);
    if (!LR.ok()) {
      Status Why(LR.DeadlineExceeded ? StatusCode::DeadlineExceeded
                                     : StatusCode::LaunchError,
                 LR.Errors.empty() ? "batch launch failed" : LR.Errors.front());
      E.quarantineVariant(Desc, Why);
      return Why;
    }
    BatchSeconds = sim::modelKernelTime(E.getArch(), LR).TotalSeconds;
  }

  // Host epilogue: partial j IS job j's block result; replay the lone
  // run's second stage (a fold of one partial against identity padding)
  // and final accumulator fold with the machine's own cell semantics.
  std::vector<JobResult> Results(K);
  for (size_t J = 0; J != K; ++J) {
    sim::Cell P = Dev.get(Partials).read(J);
    if (isArgReduce(Op)) {
      // Arena indexes are job-local ones shifted by the tile base, and a
      // block only ever reads its own tile — padding lanes included, whose
      // guard-identity pairs carry their (shifted) lane index exactly like
      // the lone run's out-of-range lanes carry theirs. Unshifting the
      // whole tile therefore reproduces the lone run bit-for-bit even when
      // a padding lane wins (e.g. the empty job).
      const long long Base = static_cast<long long>(J * Tile);
      if (P.Idx >= Base && P.Idx < Base + static_cast<long long>(Tile))
        P.Idx -= Base;
    }

    sim::Cell Acc = KId;
    foldCell(Op, Elem, Acc, P);
    sim::Cell Fin = Id;
    foldCell(Op, Elem, Fin, Acc);

    JobResult &R = Results[J];
    R.FloatValue = Fin.F;
    R.IntValue = Fin.I;
    R.IndexValue = Fin.Idx;
    R.Seconds = BatchSeconds / static_cast<double>(K);
    R.Used = B;
    R.Coalesced = true;
    R.BatchJobs = static_cast<unsigned>(K);
  }
  return Results;
}
