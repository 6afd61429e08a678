//===- Request.h - Engine request/response value types ----------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The value types of the request-shaped engine API. A ReduceRequest is a
/// self-describing unit of work — input buffer, size, op/dtype/arch routing
/// facts, backend, execution mode — that can be queued, batched, and
/// shipped between threads, which is exactly what the serving layer
/// (src/serve) does with it. DiagnoseRequest plays the same role for
/// the diagnostic entry points (race check, fault campaign, functional
/// validation), collapsing three parallel facade methods into one.
///
/// The response types (ReduceResult and friends) live here too so a
/// consumer of the request API never needs the full ExecutionEngine header
/// just to name a result.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_ENGINE_REQUEST_H
#define TANGRAM_ENGINE_REQUEST_H

#include "engine/Backend.h"
#include "gpusim/PerfModel.h"
#include "gpusim/RaceDetector.h"
#include "gpusim/SimtMachine.h"
#include "support/Expected.h"
#include "synth/KernelSynthesizer.h"

#include <cstdint>
#include <optional>
#include <vector>

namespace tangram::engine {

/// One unit of reduction work, fully described by value. The descriptor and
/// flags say *how* to reduce; the optional routing facts (`Op`, `Elem`,
/// `Gen`) say what the caller *believes* it is asking for — when set, the
/// engine cross-checks them against its own configuration and refuses a
/// misrouted request with StatusCode::InvalidArgument instead of silently
/// computing the wrong reduction. Multi-tenant front-ends set all three;
/// in-process callers that constructed the engine themselves may leave them
/// unset.
struct ReduceRequest {
  synth::VariantDescriptor Desc;
  synth::OptimizationFlags Flags;
  /// Input buffer resident in the target engine's device, and its length.
  sim::BufferId In = 0;
  size_t N = 0;
  sim::ExecMode Mode = sim::ExecMode::Functional;
  Backend BackendKind = Backend::Simulator;
  /// Routing facts (see above). Checked when present.
  std::optional<ReduceOp> Op;
  std::optional<ir::ScalarType> Elem;
  std::optional<sim::ArchGeneration> Gen;
};

/// Response to one successful ReduceRequest (failures travel as the Status
/// arm of Expected<ReduceResult>).
struct ReduceResult {
  /// The reduction result (meaningful in Functional mode only). Float
  /// results are in `FloatValue`, integer results in `IntValue`. For
  /// arg-reductions (ArgMin/ArgMax) `IndexValue` carries the winning
  /// element's position (ReduceIndexSentinel when no element was folded).
  double FloatValue = 0;
  long long IntValue = 0;
  long long IndexValue = 0;
  /// End-to-end seconds: modeled on the simulator, host wall-clock on the
  /// native backend.
  double Seconds = 0;
  sim::KernelTiming Timing;
  /// First-stage launch detail. In RaceCheck mode the second stage's race
  /// diagnostics/conflict counts are folded in here too.
  sim::LaunchResult Launch;
  /// Backend that actually produced the value (failover may differ from
  /// the request's).
  Backend Used = Backend::Simulator;
};

/// Which diagnostic campaign a DiagnoseRequest runs.
enum class DiagnoseKind : unsigned char {
  Race,     ///< Dynamic race detection across every launch of the variant.
  Fault,    ///< Deterministic fault-injection campaign vs. a clean run.
  Validate, ///< Functional validation against a host reference.
};

const char *getDiagnoseKindName(DiagnoseKind K);

/// One diagnostic campaign, fully described by value. `Plan` is consulted
/// for DiagnoseKind::Fault only; `BackendKind` for Validate only (race and
/// fault campaigns are simulator instruments).
struct DiagnoseRequest {
  DiagnoseKind Kind = DiagnoseKind::Validate;
  synth::VariantDescriptor Desc;
  synth::OptimizationFlags Flags;
  size_t N = 2048;
  sim::FaultPlan Plan;
  Backend BackendKind = Backend::Simulator;
};

/// Aggregated result of a RaceCheck run over every launch a variant
/// performs (main kernel plus the second-stage kernel when present).
struct RaceReport {
  std::vector<sim::RaceDiagnostic> Diagnostics;
  /// Kernel launches the check covered.
  unsigned LaunchCount = 0;
  /// Total conflict observations before deduplication/caps.
  uint64_t Conflicts = 0;
  /// The detector's address table overflowed; coverage is partial.
  bool Truncated = false;

  bool clean() const { return Conflicts == 0 && Diagnostics.empty(); }
};

/// How an injected fault played out for one variant (see
/// DiagnoseKind::Fault).
enum class FaultOutcome : unsigned char {
  Clean,    ///< No fault fired; result matches the reference bit-exactly.
  Survived, ///< Faults fired, yet the result still matches the reference.
  Detected, ///< The result diverged from the reference (fault caught).
  Trapped,  ///< The faulted run failed structurally (error/deadline).
};

const char *getFaultOutcomeName(FaultOutcome O);

/// Result of one fault-injection campaign against one variant.
struct FaultReport {
  sim::FaultKind Kind = sim::FaultKind::None;
  FaultOutcome Outcome = FaultOutcome::Clean;
  uint64_t FaultsInjected = 0;
  /// Clean-run reference reduction values (index lane meaningful for
  /// arg-reductions only).
  double RefFloat = 0;
  long long RefInt = 0;
  long long RefIndex = 0;
  /// Faulted-run values (meaningless when Outcome == Trapped).
  double GotFloat = 0;
  long long GotInt = 0;
  long long GotIndex = 0;
  /// The structural failure when Outcome == Trapped.
  support::Status Trap;
};

/// Response to a DiagnoseRequest: one report shape for every kind. Only the
/// arm matching `Kind` is meaningful.
struct DiagnoseReport {
  DiagnoseKind Kind = DiagnoseKind::Validate;
  RaceReport Race;
  FaultReport Fault;
  support::Status Validation;

  /// Uniform pass/fail view: a clean race report, a completed fault
  /// campaign whose faulted run did not silently corrupt the result
  /// (Clean/Survived/Detected all count — the campaign *observing* a fault
  /// is the instrument working), or a validation that returned Ok.
  bool passed() const {
    switch (Kind) {
    case DiagnoseKind::Race:
      return Race.clean();
    case DiagnoseKind::Fault:
      return true; // A structured report is itself the campaign succeeding.
    case DiagnoseKind::Validate:
      return Validation.ok();
    }
    return false;
  }
};

/// Monotonic wall-clock in seconds — the time base of
/// serve::JobSpec::DeadlineSeconds and of the serving layer's latency
/// accounting.
double steadySeconds();

} // namespace tangram::engine

#endif // TANGRAM_ENGINE_REQUEST_H
