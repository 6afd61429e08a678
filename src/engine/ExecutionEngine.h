//===- ExecutionEngine.h - Shared variant execution layer -------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place kernels are compiled and launched. An ExecutionEngine
/// binds together, for a single architecture:
///
///  - a simulated Device (global memory) and the SimtMachine driving it;
///  - a persistent ThreadPool the machine uses to interpret independent
///    blocks in parallel (deterministic block-index merge order keeps
///    functional results and cycle totals bit-identical to a 1-thread run);
///  - a content-addressed VariantCache so each (source, descriptor, arch,
///    op, elem, flags) identity is synthesized and bytecode-compiled at
///    most once, no matter how many tuning sweeps request it.
///
/// Pool and cache can be shared across several per-architecture engines
/// (TangramReduction does this), turning the paper's Fig. 6/7 sweeps into
/// cache hits after the first pass over the portfolio.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_ENGINE_EXECUTIONENGINE_H
#define TANGRAM_ENGINE_EXECUTIONENGINE_H

#include "engine/Backend.h"
#include "engine/Request.h"
#include "engine/TunedPack.h"
#include "engine/VariantCache.h"
#include "gpusim/PerfModel.h"
#include "gpusim/SimtMachine.h"
#include "native/NativeMachine.h"
#include "support/Expected.h"
#include "support/ThreadPool.h"
#include "synth/KernelSynthesizer.h"

#include <limits>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace tangram::engine {

/// Launch geometry for \p V at problem size \p N, including a per-variant
/// watchdog budget sized from the block tile (~100x above any legitimate
/// lowering's issue count, yet finite).
sim::LaunchConfig makeLaunchConfig(const synth::SynthesizedVariant &V,
                                   size_t N);

/// The last resort of every failover chain, for when no backend can run a
/// descriptor: a plain host loop folding elements [0, N) of \p In in index
/// order under (\p Op, \p Elem). The non-authoritative value lane mirrors
/// the other, as in a kernel's result. Used is Backend::NativeCpu (the CPU
/// tier) and Seconds the loop's host wall-clock. A Status only for an
/// invalid buffer or an N past its end.
support::Expected<ReduceResult> hostReduce(sim::Device &Dev, sim::BufferId In,
                                           size_t N, ReduceOp Op,
                                           ir::ScalarType Elem);

/// Why one variant configuration was pulled from tuning.
struct QuarantineRecord {
  synth::VariantDescriptor Desc;
  support::Status Why;
};

/// Structured result of a hardened tuning sweep: the best *surviving*
/// configuration plus an account of everything that was quarantined
/// (trapped, timed out, or produced a wrong reduction) along the way.
struct TuneReport {
  synth::VariantDescriptor Best;
  double BestSeconds = std::numeric_limits<double>::infinity();
  std::string Fig6Label;
  /// The reduction axis the sweep ran for (provenance: `tgrc tune` output
  /// and BENCH_*.json metadata).
  ReduceOp Op = ReduceOp::Add;
  ir::ScalarType Elem = ir::ScalarType::F32;
  /// Structural candidates examined (descriptors before tunable expansion).
  unsigned CandidatesTried = 0;
  /// Tunable configurations actually timed.
  unsigned ConfigsTimed = 0;
  std::vector<QuarantineRecord> Quarantined;

  bool hasWinner() const {
    return BestSeconds < std::numeric_limits<double>::infinity();
  }
};

/// Knobs for the hardened tune/findBest sweeps.
struct TuneOptions {
  /// Tunable candidates (the paper's tuning-script grid).
  std::vector<unsigned> BlockSizes = {64, 128, 256, 512};
  std::vector<unsigned> CoarsenFactors = {1, 4, 16, 64};
  /// Per-block element cap during tuning (bounds simulation cost).
  unsigned MaxElemsPerBlock = 16384;
  /// Backend whose clock ranks configurations: the simulator's cycle model
  /// (the paper's Fig. 6/7 methodology) or the native CPU engine's host
  /// wall-clock (what a CPU serving deployment pays). Winners are
  /// validated on the same backend either way, and native validation
  /// additionally cross-checks against the simulator oracle.
  Backend TimingBackend = Backend::Simulator;
};

/// Construction knobs for ExecutionEngine.
struct EngineOptions {
  /// Worker threads for block-parallel simulation; 0 = one per host core.
  /// Ignored when \p Pool is provided.
  unsigned ThreadCount = 0;
  /// Capacity of the variant cache created when \p Cache is null.
  size_t CacheCapacity = 256;
  /// Share an existing cache (per-arch engines keyed apart by generation).
  std::shared_ptr<VariantCache> Cache;
  /// Share an existing pool across engines.
  std::shared_ptr<support::ThreadPool> Pool;
  /// Fault plan applied to every launch (inactive by default). See
  /// ExecutionEngine::setFaultPlan.
  sim::FaultPlan Fault;
  /// Tuned-variant packs (engine/TunedPack.h) imported when the compiler
  /// is attached: every entry warm-starts the cache; quarantine records
  /// matching this engine's generation, op and element type are
  /// pre-applied. Import problems are collected in getStartupWarnings(),
  /// never thrown — an unreadable pack degrades to a cold start.
  std::vector<std::string> ImportPacks;
};

/// Per-architecture execution facade: owns the device, drives the SIMT
/// machine through the shared thread pool, and resolves variant descriptors
/// through the shared compilation cache.
class ExecutionEngine {
public:
  explicit ExecutionEngine(const sim::ArchDesc &Arch, EngineOptions Opts = {});

  /// Attaches the synthesizer used to resolve descriptor cache misses.
  /// \p SourceText is the canonical source the synthesizer was built from;
  /// its hash becomes part of every cache key. Imports
  /// EngineOptions::ImportPacks.
  void attachCompiler(const synth::KernelSynthesizer &Synth,
                      const std::string &SourceText);
  bool hasCompiler() const { return Synth != nullptr; }

  sim::Device &getDevice() { return Dev; }
  native::NativeMachine &getNativeMachine() { return NativeM; }
  const sim::ArchDesc &getArch() const { return Arch; }
  support::ThreadPool &getThreadPool() { return *Pool; }
  unsigned getThreadCount() const { return Pool->getThreadCount(); }
  const std::shared_ptr<VariantCache> &getCachePtr() const { return Cache; }
  CacheStats getCacheStats() const { return Cache->getStats(); }

  /// Device allocation watermark helpers for scoped scratch buffers.
  size_t deviceMark() const { return Dev.mark(); }
  void deviceRelease(size_t Mark) { Dev.release(Mark); }

  /// Resolves \p Desc to a compiled variant, synthesizing on cache miss
  /// (failures are not cached). Requires attachCompiler(); without one the
  /// Status carries StatusCode::InvalidArgument. For Backend::NativeCpu
  /// the variant (and its second stage) is additionally lowered to native
  /// form — cached under a backend-distinct key — and a failed lowering
  /// (plane conflict: bytecode outside the typed subset) is returned as
  /// StatusCode::SynthesisError so callers can fall back to the simulator.
  support::Expected<std::shared_ptr<const synth::SynthesizedVariant>>
  getVariant(const synth::VariantDescriptor &Desc,
             const synth::OptimizationFlags &Flags = {},
             Backend B = Backend::Simulator);

  /// The full cache identity getVariant would resolve \p Desc under —
  /// exposed so exporters/tests can address artifacts the way the cache
  /// does. Requires attachCompiler() (the key embeds the source hash and
  /// the synthesizer's op/elem axis).
  support::Expected<VariantKey>
  keyFor(const synth::VariantDescriptor &Desc,
         const synth::OptimizationFlags &Flags = {},
         Backend B = Backend::Simulator) const;

  /// Imports \p Pack: every entry's artifact is validated against its key
  /// and then inserted into the (possibly shared) variant cache without
  /// counting as a compile; quarantine records for this engine's
  /// generation, op and element type are applied. Returns the number of
  /// variants imported. A corrupt artifact or a key/artifact mismatch fails
  /// the import and leaves the cache and the quarantine untouched (a pack
  /// is explicit input, not best-effort cache state). Requires
  /// attachCompiler().
  support::Expected<unsigned> importTunedPack(const TunedPack &Pack);
  /// readTunedPack + importTunedPack.
  support::Expected<unsigned> importTunedPackFile(const std::string &Path);

  /// Builds one pack entry for \p Desc as tuned on this engine: resolves
  /// the variant through the cache (compiling if cold) and serializes it.
  /// \p TunedSeconds is recorded as provenance (a TuneReport's
  /// BestSeconds).
  support::Expected<TunedPackEntry>
  exportTunedVariant(const synth::VariantDescriptor &Desc, Backend B,
                     double TunedSeconds);

  /// Non-fatal problems from construction-time pack imports (unreadable
  /// file, rejected artifact). Empty on a clean start.
  const std::vector<support::Status> &getStartupWarnings() const {
    return StartupWarnings;
  }

  /// Launches \p Kernel on this engine's device/arch (through the shared
  /// thread pool when profitable).
  sim::LaunchResult launch(const ir::CompiledKernel &Kernel,
                           const sim::LaunchConfig &Config,
                           const std::vector<sim::ArgValue> &Args,
                           sim::ExecMode Mode = sim::ExecMode::Functional);

  /// Runs one reduction request end to end: validates the request's routing
  /// facts (op/dtype/generation, when present) against this engine,
  /// enforces its admission deadline, resolves the descriptor through the
  /// variant cache, and executes — allocating and identity-initializing the
  /// accumulator, launching, modeling time, and recursively driving the
  /// second stage for two-kernel variants. Scratch buffers are released
  /// before returning. Launch failures carry StatusCode::LaunchError.
  /// With Backend::NativeCpu, Seconds is host wall-clock, Timing is not
  /// modeled, and RaceCheck mode is refused (InvalidArgument) — race
  /// detection is a simulator instrument.
  support::Expected<ReduceResult> run(const ReduceRequest &Req);

  /// Same contract over an already-synthesized variant (bypasses the cache;
  /// Req.Desc is ignored in favor of \p V). For callers that hold a
  /// variant — synthesis tests, the serving layer's batch path.
  support::Expected<ReduceResult> run(const ReduceRequest &Req,
                                      const synth::SynthesizedVariant &V);

  /// Runs one diagnostic campaign (race detection, fault injection, or
  /// functional validation) described by \p Req. See DiagnoseRequest for
  /// which fields each kind consumes; see the DiagnoseReport arms for what
  /// each kind yields. A Status escapes only for structural failures
  /// (synthesis, a broken clean run) — findings are data, not errors.
  support::Expected<DiagnoseReport> diagnose(const DiagnoseRequest &Req);

  /// Modeled seconds for \p Desc at size \p N over a scoped virtual input
  /// (Sampled mode). Infinity when the variant fails to synthesize or run —
  /// tuning loops price such variants out. Delegates to timeVariantChecked,
  /// so failures also land the configuration in quarantine.
  double timeVariant(const synth::VariantDescriptor &Desc, size_t N);

  /// Hardened timing: skips configurations already in quarantine, runs with
  /// the per-variant watchdog budget, retries DeadlineExceeded once at
  /// eight times the budget (a genuinely slow configuration finishes, a
  /// livelocked one traps again), and quarantines configurations that
  /// still trap/timeout. The Status names why a run was priced out.
  /// Backend::Simulator times the cycle model (Sampled mode);
  /// Backend::NativeCpu times real host execution — the second run is
  /// measured so building the virtual input's typed plane amortizes out,
  /// mimicking a warm serving loop.
  support::Expected<double>
  timeVariantChecked(const synth::VariantDescriptor &Desc, size_t N,
                     Backend B = Backend::Simulator);

  /// Hardened tunable sweep for one structural candidate: times every
  /// (BlockSize, Coarsen) configuration through timeVariantChecked, then
  /// validates winners against a host reference over 2048 elements
  /// (falling back to the next-fastest surviving configuration when a
  /// winner fails validation). Never hangs: every run is budgeted. Returns
  /// a report even when nothing survives (hasWinner() == false); a Status
  /// only for engine misuse (no compiler).
  support::Expected<TuneReport> tune(const synth::VariantDescriptor &Desc,
                                     size_t N, const TuneOptions &Opts = {});

  /// Hardened portfolio sweep: tune() for every candidate, aggregated into
  /// one report whose Best is the fastest surviving configuration. When
  /// nothing survives, the Status carries the first quarantine reason so
  /// callers learn *why* tuning came back empty.
  support::Expected<TuneReport>
  findBest(const std::vector<synth::VariantDescriptor> &Candidates, size_t N,
           const TuneOptions &Opts = {});

  /// Fault plan applied to every subsequent launch on this engine (tuning
  /// under injected faults is how the quarantine/fallback machinery is
  /// exercised). Inactive by default.
  void setFaultPlan(const sim::FaultPlan &Plan);
  const sim::FaultPlan &getFaultPlan() const;

  /// Quarantine bookkeeping. Configurations are keyed by their full stable
  /// hash (structure + tunables), per engine (= per architecture).
  bool isQuarantined(const synth::VariantDescriptor &Desc) const;
  void quarantineVariant(const synth::VariantDescriptor &Desc,
                         support::Status Why);
  /// Drops the quarantine record for \p Desc alone (false when it held
  /// none). The serving layer's half-open circuit-breaker probe uses this
  /// to give a quarantined primary variant one supervised second chance
  /// without forgetting every other record the way clearQuarantine does.
  bool unquarantineVariant(const synth::VariantDescriptor &Desc);
  std::vector<QuarantineRecord> getQuarantineRecords() const;
  /// Drops all quarantine records and validation memos (e.g. after
  /// changing the fault plan).
  void clearQuarantine();

private:
  const QuarantineRecord *
  findQuarantine(const synth::VariantDescriptor &Desc) const;

  /// The body of both run() overloads, past admission: executes \p V over
  /// \p N elements of \p In on backend \p B, driving the second stage
  /// recursively.
  support::Expected<ReduceResult>
  runReduction(const synth::SynthesizedVariant &V, sim::BufferId In,
               size_t N, sim::ExecMode Mode, Backend B);

  /// DiagnoseKind::Race: one RaceCheck run of \p Desc over a materialized
  /// input, every launch of the variant folded into one report.
  support::Expected<RaceReport>
  raceCheck(const synth::VariantDescriptor &Desc, size_t N,
            const synth::OptimizationFlags &Flags);

  /// DiagnoseKind::Validate. Functional validation: runs \p Desc over \p N
  /// materialized elements and compares against a host-computed reference.
  /// A mismatch (or any trap) quarantines the configuration and returns a
  /// non-Ok Status (StatusCode::WrongResult for mismatches). Passing
  /// configurations are remembered and not re-validated. Non-associative
  /// ops (Sub) are skipped: different schedules legitimately disagree.
  /// With Backend::NativeCpu, validation is a three-way cross-check: the
  /// native run must match the host reference (tolerance rules as below)
  /// AND the simulator oracle's run of the same variant — bit-for-bit for
  /// integer and arg-reductions, ULP-tolerance for summing float ops.
  support::Status validateVariant(const synth::VariantDescriptor &Desc,
                                  size_t N, Backend B);

  /// DiagnoseKind::Fault. Fault campaign against one variant: a clean
  /// reference run, then an identical run under \p Plan, compared
  /// bit-exactly (simulation is deterministic, so any divergence is the
  /// fault's doing). Only a broken *clean* run produces a Status;
  /// faulted-run failures are reported as FaultOutcome::Trapped.
  support::Expected<FaultReport>
  faultCheck(const synth::VariantDescriptor &Desc, size_t N,
             const sim::FaultPlan &Plan,
             const synth::OptimizationFlags &Flags);
  /// Request-level admission checks (routing facts, deadline). Ok when the
  /// request may proceed on this engine.
  support::Status admit(const ReduceRequest &Req) const;

  sim::ArchDesc Arch; ///< By value: the engine outlives any accessor.
  std::shared_ptr<support::ThreadPool> Pool;
  std::shared_ptr<VariantCache> Cache;
  sim::Device Dev;
  sim::SimtMachine Machine;
  native::NativeMachine NativeM;
  const synth::KernelSynthesizer *Synth = nullptr;
  uint64_t SourceHash = 0;
  /// Quarantined configurations, keyed by VariantDescriptor::stableHash().
  std::unordered_map<uint64_t, QuarantineRecord> Quarantine;
  /// EngineOptions::ImportPacks, imported by attachCompiler().
  std::vector<std::string> PendingPacks;
  /// Construction-time pack-import problems (see getStartupWarnings).
  std::vector<support::Status> StartupWarnings;
  /// Configurations that already passed validateVariant (per backend).
  std::unordered_set<uint64_t> Validated;
  /// Watchdog multiplier applied by runReduction (1 except during the
  /// escalated-budget retry inside timeVariantChecked).
  unsigned BudgetEscalation = 1;
};

} // namespace tangram::engine

#endif // TANGRAM_ENGINE_EXECUTIONENGINE_H
