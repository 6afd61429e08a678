//===- Tangram.h - Public library facade ------------------------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The front door of the library: compiles the canonical reduction
/// spectrum, runs the Fig. 5 pre-processing pipeline, enumerates the code
/// variants of Section IV-B, synthesizes and tunes them, and selects the
/// best performer per architecture and problem size — the full workflow
/// the paper evaluates.
///
/// \code
///   auto TR = tangram::TangramReduction::create({});
///   if (!TR) {
///     std::cerr << TR.status().toString() << "\n";  // e.g. "parse-error: ..."
///     return 1;
///   }
///   auto Best = (*TR)->findBest(sim::getPascalP100(), 1 << 20);
///   auto Cuda = (*TR)->emitCudaFor(Best.Desc);
///   if (Cuda)
///     std::cout << *Cuda;
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_TANGRAM_TANGRAM_H
#define TANGRAM_TANGRAM_TANGRAM_H

#include "engine/ExecutionEngine.h"
#include "gpusim/Arch.h"
#include "lang/ASTContext.h"
#include "pm/PassInstrumentation.h"
#include "support/Diagnostics.h"
#include "support/Expected.h"
#include "support/SourceManager.h"
#include "synth/KernelSynthesizer.h"
#include "synth/ReductionSpectrum.h"
#include "synth/VariantEnumerator.h"

#include <map>
#include <memory>
#include <string>

namespace tangram {

/// Compiled reduction spectrum + synthesis services.
class TangramReduction {
public:
  struct Options {
    ir::ScalarType Elem = ir::ScalarType::F32;
    ReduceOp Op = ReduceOp::Add;
    /// Knobs of tune/findBestReport/timeVariant: the tunable grid (the
    /// paper's tuning script), the per-block cap, and the backend whose
    /// clock ranks configurations (the simulator's cycle model by default;
    /// `tgrc tune --backend=native` ranks by native host wall-clock).
    engine::TuneOptions Tune;
    /// Execution-layer knobs (thread pool, variant cache, fault plan,
    /// packs), passed to every lazily-created per-arch engine.
    engine::EngineOptions Engine;
    /// Compile this text instead of the canonical spectrum source when
    /// non-empty (testing hook: error paths, custom codelet sets).
    std::string SourceOverride;
    /// Pass-pipeline observability knobs (`--time-passes`, `--stats`,
    /// `--print-after-all`, `--verify-each`). One PassInstrumentation is
    /// created from these and shared by the AST pipeline at create() time
    /// and by every variant lowering afterwards.
    pm::InstrumentationOptions PM;
  };

  /// Parses + checks the canonical source (or Options::SourceOverride) and
  /// runs the transform pipeline. Failures carry StatusCode::ParseError or
  /// StatusCode::SemaError with the rendered diagnostics as the message.
  static support::Expected<std::unique_ptr<TangramReduction>>
  create(const Options &Opts);
  static support::Expected<std::unique_ptr<TangramReduction>> create() {
    return create(Options());
  }

  const lang::TranslationUnit &getUnit() const { return TU; }
  const synth::SearchSpace &getSearchSpace() const { return Space; }
  const Options &getOptions() const { return Opts; }
  /// The normalized canonical source text.
  const std::string &getSourceText() const { return SourceText; }
  /// The Fig. 5 pre-processing pipeline results, keyed by codelet.
  const std::map<const lang::CodeletDecl *,
                 transforms::CodeletTransformInfo> &
  getTransformInfos() const {
    return Infos;
  }
  /// The shared pass observability sink: per-pass timings across the AST
  /// pipeline and every variant lowering, plus `--print-after-all` dumps.
  pm::PassInstrumentation &getInstrumentation() const { return *PI; }

  /// The lazily-created execution engine for \p Arch. Engines are created
  /// once per architecture generation and share one variant cache and one
  /// thread pool, so tuning sweeps across architectures never recompile a
  /// variant and block simulation scales with host cores.
  engine::ExecutionEngine &engineFor(const sim::ArchDesc &Arch) const;

  /// Synthesizes one variant (tunables taken from the descriptor).
  /// \p Opts applies the optional future-work IR passes (warp-aggregated
  /// atomics, loop unrolling). Failures carry StatusCode::UnknownVariant
  /// or StatusCode::SynthesisError.
  support::Expected<std::unique_ptr<synth::SynthesizedVariant>>
  synthesize(const synth::VariantDescriptor &Desc,
             const synth::OptimizationFlags &Opts = {}) const;

  /// Emits the CUDA C text for one variant (Listings 1-4 form).
  support::Expected<std::string>
  emitCudaFor(const synth::VariantDescriptor &Desc) const;

  /// Runs one diagnostic campaign (race / fault / validate) on \p Arch's
  /// engine. See engine::ExecutionEngine::diagnose.
  support::Expected<engine::DiagnoseReport>
  diagnose(const sim::ArchDesc &Arch,
           const engine::DiagnoseRequest &Req) const;

  /// "file:line:col: <diagnostic>" rendering of one race against the
  /// compiled codelet source (positions fall back to the raw diagnostic
  /// when the racing instruction is synthesized scaffolding).
  std::string renderRace(const sim::RaceDiagnostic &D) const;

  /// Picks the best tunables for \p Desc on \p Arch at size \p N by
  /// sampled simulation; returns the tuned descriptor. Delegates to the
  /// hardened engine tuner: configurations that trap, time out, or produce
  /// wrong reductions are quarantined and never win.
  synth::VariantDescriptor tune(const synth::VariantDescriptor &Desc,
                                const sim::ArchDesc &Arch, size_t N) const;

  /// A tuned, timed best-version query result.
  struct BestResult {
    synth::VariantDescriptor Desc;
    double Seconds = 0;
    std::string Fig6Label;
  };

  /// Tunes every pruned variant on \p Arch at size \p N and returns the
  /// fastest (the per-size winners of Figs. 8-10). Seconds is infinity
  /// when nothing survived tuning — use findBestReport for the structured
  /// account of what was quarantined and why.
  BestResult findBest(const sim::ArchDesc &Arch, size_t N) const;

  /// The hardened full-portfolio sweep: the best surviving variant plus
  /// every quarantine record. When nothing survives, the Status names the
  /// first quarantined configuration and its failure.
  support::Expected<engine::TuneReport>
  findBestReport(const sim::ArchDesc &Arch, size_t N) const;

  /// Seconds for a tuned descriptor at size \p N on Options::Tune's timing
  /// backend (modeled cycles over a virtual input on the simulator).
  double timeVariant(const synth::VariantDescriptor &Desc,
                     const sim::ArchDesc &Arch, size_t N) const;

private:
  TangramReduction() = default;

  Options Opts;
  std::string SourceText;
  std::unique_ptr<SourceManager> SM;
  std::unique_ptr<DiagnosticEngine> Diags;
  std::unique_ptr<lang::ASTContext> Ctx;
  lang::TranslationUnit TU;
  std::map<const lang::CodeletDecl *, transforms::CodeletTransformInfo>
      Infos;
  std::unique_ptr<pm::PassInstrumentation> PI;
  std::unique_ptr<synth::KernelSynthesizer> Synth;
  synth::SearchSpace Space;

  // Execution state. Mutable: tune/timeVariant/findBest are logically const
  // queries but lazily materialize engines and fill the shared cache.
  mutable std::shared_ptr<engine::VariantCache> Cache;
  mutable std::shared_ptr<support::ThreadPool> Pool;
  mutable std::map<sim::ArchGeneration,
                   std::unique_ptr<engine::ExecutionEngine>>
      Engines;
};

} // namespace tangram

#endif // TANGRAM_TANGRAM_TANGRAM_H
