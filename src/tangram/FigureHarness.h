//===- FigureHarness.h - Figure/table regeneration harness ------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's evaluation series: for each array size of
/// Figs. 7-10 (64 .. 268M 32-bit elements), the best Tangram-synthesized
/// version, CUB, Kokkos, and the OpenMP CPU version are timed and reported
/// as speedups over the CUB baseline — the y-axis of every figure.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_TANGRAM_FIGUREHARNESS_H
#define TANGRAM_TANGRAM_FIGUREHARNESS_H

#include "baselines/CubReduce.h"
#include "baselines/KokkosReduce.h"
#include "baselines/OmpCpuReduce.h"
#include "tangram/Tangram.h"

namespace tangram {

/// One x-axis point of a figure.
struct FigureRow {
  size_t N = 0;
  double TangramSeconds = 0;
  double CubSeconds = 0;
  double KokkosSeconds = 0;
  double OmpSeconds = 0;
  /// Fig. 6 label of the winning Tangram version at this size.
  std::string BestLabel;
  std::string BestName;
  /// The winner's tuned block size and coarsening factor.
  unsigned BestBlockSize = 0;
  unsigned BestCoarsen = 0;
  /// Health of the Tangram sweep behind this row: "ok" when a tuned winner
  /// survived, else the failure class of the hardened tuner (for example
  /// "deadline-exceeded" or "wrong-result"). Baseline columns are always
  /// measured; only TangramSeconds is meaningless when not "ok".
  std::string Status = "ok";
  /// Configurations the hardened tuner quarantined while producing this
  /// row (0 on a fully clean sweep).
  unsigned QuarantinedConfigs = 0;

  double tangramSpeedup() const { return CubSeconds / TangramSeconds; }
  double kokkosSpeedup() const { return CubSeconds / KokkosSeconds; }
  double ompSpeedup() const { return CubSeconds / OmpSeconds; }
};

/// Generates figure rows for one architecture.
class FigureHarness {
public:
  explicit FigureHarness(TangramReduction &TR) : TR(TR) {}

  /// The paper's x-axis: 64 to 268435456 elements (Figs. 7-10).
  static const std::vector<size_t> &getPaperSizes();

  /// Measures one size on one architecture (sampled pricing).
  FigureRow measure(const sim::ArchDesc &Arch, size_t N);

  /// Measures every paper size.
  std::vector<FigureRow> measureAll(const sim::ArchDesc &Arch);

private:
  TangramReduction &TR;
  baselines::CubReduce Cub;
  baselines::KokkosReduce Kokkos;
  baselines::OmpCpuReduce Omp{2};
};

/// Renders rows as the aligned text table the bench binaries print.
std::string formatFigureTable(const std::string &Title,
                              const std::vector<FigureRow> &Rows);

} // namespace tangram

#endif // TANGRAM_TANGRAM_FIGUREHARNESS_H
