//===- OpMatrixRaceTest.cpp - RaceCheck over the op x dtype matrix ----------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
//
// The race-freedom guarantee multiplied by the reduce::OpDef axis: every
// representative variant stays clean for every (op, dtype) spectrum point
// — including the CAS-loop lowerings (float min/max) and the pair-carrying
// arg-reductions — and produces the host-reference-exact value AND index.
// Spectrum points the legality lattice marks Illegal must be refused with
// a structured SynthesisError, never lowered into a broken kernel.
//
// Registered under the `op-matrix` ctest label (tier1-opmatrix preset).
//
//===----------------------------------------------------------------------===//

#include "engine/ExecutionEngine.h"
#include "reduce/OpDef.h"
#include "tangram/Tangram.h"

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>

using namespace tangram;
using namespace tangram::synth;

namespace {

struct MatrixPoint {
  ReduceOp Op;
  ir::ScalarType Elem;
};

std::string pointName(const MatrixPoint &P) {
  return std::string(getReduceOpSpelling(P.Op)) + "_" +
         reduce::getScalarTypeSpelling(P.Elem);
}

/// The satellite matrix: {Add, Min, Max, ArgMax} x {F32, I32, I64}.
const MatrixPoint Matrix[] = {
    {ReduceOp::Add, ir::ScalarType::F32},
    {ReduceOp::Add, ir::ScalarType::I32},
    {ReduceOp::Add, ir::ScalarType::I64},
    {ReduceOp::Min, ir::ScalarType::F32},
    {ReduceOp::Min, ir::ScalarType::I32},
    {ReduceOp::Min, ir::ScalarType::I64},
    {ReduceOp::Max, ir::ScalarType::F32},
    {ReduceOp::Max, ir::ScalarType::I32},
    {ReduceOp::Max, ir::ScalarType::I64},
    {ReduceOp::ArgMax, ir::ScalarType::F32},
    {ReduceOp::ArgMax, ir::ScalarType::I32},
    {ReduceOp::ArgMax, ir::ScalarType::I64},
};

TangramReduction &facadeFor(const MatrixPoint &P) {
  // One facade per spectrum point, shared across tests so each point
  // compiles its spectrum once.
  static std::map<std::pair<ReduceOp, ir::ScalarType>,
                  std::unique_ptr<TangramReduction>>
      Cache;
  auto Key = std::make_pair(P.Op, P.Elem);
  auto It = Cache.find(Key);
  if (It == Cache.end()) {
    TangramReduction::Options Opts;
    Opts.Op = P.Op;
    Opts.Elem = P.Elem;
    auto TR = TangramReduction::create(Opts);
    EXPECT_TRUE(TR.ok()) << pointName(P) << ": " << TR.status().toString();
    It = Cache.emplace(Key, std::move(*TR)).first;
  }
  return *It->second;
}

class OpMatrix : public ::testing::TestWithParam<MatrixPoint> {};

/// Deterministic input with a unique extremum (so arg-reduction indices
/// are unambiguous) and values small enough for exact float sums.
void fillInput(sim::Device &Dev, sim::BufferId In, size_t N,
               reduce::HostAccumulator &Ref) {
  for (size_t I = 0; I != N; ++I) {
    long long IV = static_cast<long long>((I * 37) % 4099) - 2000;
    if (I == N / 3) // One unique global extremum in both directions.
      IV = 5000;
    if (I == 2 * N / 3)
      IV = -5000;
    sim::Cell C;
    C.I = IV;
    C.F = static_cast<double>(IV) * 0.25;
    Dev.get(In).write(I, C);
    Ref.accumulate(C.F, C.I, static_cast<long long>(I));
  }
}

TEST_P(OpMatrix, RepresentativeVariantsAreRaceFreeAndHostExact) {
  const MatrixPoint &P = GetParam();
  TangramReduction &TR = facadeFor(P);
  const size_t N = 1 << 12;

  unsigned ArchCount = 0;
  const sim::ArchDesc *Archs = sim::getAllArchs(ArchCount);
  for (unsigned A = 0; A != ArchCount; ++A) {
    const sim::ArchDesc &Arch = Archs[A];
    bool Illegal = reduce::atomicLegality(P.Op, P.Elem, Arch.Gen) ==
                   reduce::AtomicSupport::Illegal;
    // Corners of the search space: serial-combine, global-atomic,
    // shared-atomic, and the shuffle hybrid.
    for (const char *Label : {"a", "n", "m", "p"}) {
      const VariantDescriptor *V =
          findByFigure6Label(TR.getSearchSpace(), Label);
      ASSERT_NE(V, nullptr) << Label;
      std::string Cell =
          pointName(P) + " / " + Arch.Name + " / " + V->getName();

      engine::DiagnoseRequest DR;
      DR.Kind = engine::DiagnoseKind::Race;
      DR.Desc = *V;
      DR.N = N;
      auto Report = TR.diagnose(Arch, DR);
      if (Illegal) {
        // argmax over 64-bit elements on Kepler: the OpDef lattice says
        // no atomic realization exists — synthesis must refuse.
        ASSERT_FALSE(Report.ok()) << Cell;
        EXPECT_EQ(Report.status().Code, support::StatusCode::SynthesisError)
            << Cell << ": " << Report.status().toString();
        continue;
      }
      ASSERT_TRUE(Report.ok()) << Cell << ": "
                               << Report.status().toString();
      EXPECT_TRUE(Report->Race.clean()) << Cell;

      // Functional run against the table-driven host reference: values
      // AND indices must match exactly.
      engine::ExecutionEngine &E = TR.engineFor(Arch);
      size_t Mark = E.deviceMark();
      sim::BufferId In = E.getDevice().alloc(P.Elem, N);
      reduce::HostAccumulator Ref(P.Op, P.Elem);
      fillInput(E.getDevice(), In, N, Ref);
      auto Out =
          E.run(engine::ReduceRequest{.Desc = *V, .In = In, .N = N});
      E.deviceRelease(Mark);
      ASSERT_TRUE(Out.ok()) << Cell << ": " << Out.status().toString();
      if (ir::isFloatType(P.Elem)) {
        EXPECT_EQ(Out->FloatValue, Ref.valueF()) << Cell;
      } else {
        EXPECT_EQ(Out->IntValue, Ref.valueI()) << Cell;
      }
      if (isArgReduce(P.Op)) {
        EXPECT_EQ(Out->IndexValue, Ref.index()) << Cell;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, OpMatrix, ::testing::ValuesIn(Matrix),
    [](const ::testing::TestParamInfo<MatrixPoint> &Info) {
      return pointName(Info.param);
    });

} // namespace
