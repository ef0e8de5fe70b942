// The stencil workload end to end: functional physics against an
// in-test naive reference, bitwise determinism across runs and thread
// counts, trace-driven/functional timing equality, fault-plan
// determinism and degraded-run physics, and the spec linter's
// positive/negative verdicts.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/lint.h"
#include "cellsim/local_store.h"
#include "sim/fault.h"
#include "workloads/stencil/stencil.h"

namespace cellsweep {
namespace {

stencil::StencilSpec tiny_spec() {
  stencil::StencilSpec spec;
  spec.nx = spec.ny = spec.nz = 8;
  spec.bx = spec.by = spec.bz = 4;
  spec.iterations = 2;
  spec.origin = "<test>";
  return spec;
}

/// Naive reference: the same red-black Gauss-Seidel relaxation written
/// as one triple loop, accumulating neighbors in the same (-x, +x, -y,
/// +y, -z, +z) order so results must match BITWISE, not approximately.
std::vector<double> naive_solve(const stencil::StencilSpec& spec) {
  const int nx = spec.nx, ny = spec.ny, nz = spec.nz;
  std::vector<double> u(
      static_cast<std::size_t>(nx) * ny * nz, 0.0);
  const double h2f = spec.h * spec.h * spec.source;
  auto at = [&](int i, int j, int k) -> double& {
    return u[(static_cast<std::size_t>(k) * ny + j) * nx + i];
  };
  for (int it = 0; it < spec.iterations; ++it)
    for (int color = 0; color < 2; ++color)
      for (int k = 0; k < nz; ++k)
        for (int j = 0; j < ny; ++j)
          for (int i = 0; i < nx; ++i) {
            if (((i + j + k) & 1) != color) continue;
            double sum = h2f;
            if (i > 0) sum += at(i - 1, j, k);
            if (i + 1 < nx) sum += at(i + 1, j, k);
            if (j > 0) sum += at(i, j - 1, k);
            if (j + 1 < ny) sum += at(i, j + 1, k);
            if (k > 0) sum += at(i, j, k - 1);
            if (k + 1 < nz) sum += at(i, j, k + 1);
            at(i, j, k) = sum / 6.0;
          }
  return u;
}

TEST(StencilFunctional, MatchesNaiveReferenceBitwise) {
  const stencil::StencilSpec spec = tiny_spec();
  stencil::StencilState state(spec);
  state.run();
  const std::vector<double> want = naive_solve(spec);
  ASSERT_EQ(state.field().size(), want.size());
  for (std::size_t c = 0; c < want.size(); ++c)
    ASSERT_EQ(state.field()[c], want[c]) << "cell " << c;
  EXPECT_EQ(state.updates(),
            static_cast<std::uint64_t>(spec.cells()) * spec.iterations);
  // The relaxation must actually relax: residual drops as iterations
  // accumulate.
  stencil::StencilSpec longer = spec;
  longer.iterations = 50;
  stencil::StencilState settled(longer);
  settled.run();
  EXPECT_LT(settled.residual(), state.residual());
}

TEST(StencilFunctional, BitwiseDeterministicAcrossThreads) {
  stencil::StencilSpec spec = tiny_spec();
  spec.nx = spec.ny = spec.nz = 16;
  spec.iterations = 3;
  stencil::StencilState serial(spec);
  serial.run(1);
  for (int threads : {2, 4, 7}) {
    stencil::StencilState parallel(spec);
    parallel.run(threads);
    ASSERT_EQ(parallel.field(), serial.field()) << threads << " threads";
  }
}

TEST(StencilMachine, TraceDrivenAndFunctionalTimingIdentical) {
  const stencil::StencilSpec spec = tiny_spec();
  const core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  stencil::CellStencil a(spec, cfg);
  const stencil::StencilReport trace = a.run(core::RunMode::kTraceDriven);
  stencil::CellStencil b(spec, cfg);
  const stencil::StencilReport func =
      b.run(core::RunMode::kFunctional, /*threads=*/3);
  EXPECT_EQ(trace.run.seconds, func.run.seconds);
  EXPECT_EQ(trace.run.counters.value("run_ticks"),
            func.run.counters.value("run_ticks"));
  EXPECT_EQ(trace.run.traffic_bytes, func.run.traffic_bytes);
  EXPECT_EQ(trace.updates, func.updates);
  // Machine-side update count agrees with the functional solver's.
  stencil::StencilState state(spec);
  state.run();
  EXPECT_EQ(func.updates, state.updates());
  EXPECT_EQ(func.checksum, state.checksum());
}

TEST(StencilMachine, CrossRunDeterminism) {
  const stencil::StencilSpec spec = tiny_spec();
  const core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  const stencil::StencilReport a =
      stencil::CellStencil(spec, cfg).run(core::RunMode::kTraceDriven);
  const stencil::StencilReport b =
      stencil::CellStencil(spec, cfg).run(core::RunMode::kTraceDriven);
  EXPECT_EQ(a.run.seconds, b.run.seconds);
  EXPECT_EQ(a.run.traffic_bytes, b.run.traffic_bytes);
  EXPECT_EQ(a.run.dma_commands, b.run.dma_commands);
}

TEST(StencilMachine, FaultPlanDeterministicForSameSeed) {
  const stencil::StencilSpec spec = tiny_spec();
  core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  cfg.faults = sim::parse_fault_spec("seed=42,dma=0.02,retries=4");
  const stencil::StencilReport a =
      stencil::CellStencil(spec, cfg).run(core::RunMode::kTraceDriven);
  const stencil::StencilReport b =
      stencil::CellStencil(spec, cfg).run(core::RunMode::kTraceDriven);
  const sim::CounterSet* fa = a.run.counters.find_child("faults");
  const sim::CounterSet* fb = b.run.counters.find_child("faults");
  ASSERT_NE(fa, nullptr);
  ASSERT_NE(fb, nullptr);
  EXPECT_EQ(a.run.seconds, b.run.seconds);
  EXPECT_EQ(fa->value("dma_retry_attempts"), fb->value("dma_retry_attempts"));
}

TEST(StencilMachine, DegradedSevenSpeRunKeepsPhysicsIdentical) {
  // Big enough that losing one of eight SPEs stretches the critical
  // path (the tiny spec's two waves hide a missing SPE entirely).
  stencil::StencilSpec spec = tiny_spec();
  spec.nx = spec.ny = spec.nz = 16;
  spec.bx = spec.by = spec.bz = 4;
  spec.iterations = 3;
  core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  const stencil::StencilReport healthy =
      stencil::CellStencil(spec, cfg).run(core::RunMode::kFunctional);
  cfg.faults = sim::parse_fault_spec("seed=7,spe=6:down");
  const stencil::StencilReport degraded =
      stencil::CellStencil(spec, cfg).run(core::RunMode::kFunctional);
  const sim::CounterSet* f = degraded.run.counters.find_child("faults");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->value("spes_disabled"), 1.0);
  // The fault plan degrades only the machine; the physics is bitwise
  // unchanged on the seven survivors.
  EXPECT_EQ(degraded.checksum, healthy.checksum);
  EXPECT_EQ(degraded.residual, healthy.residual);
  EXPECT_EQ(degraded.updates, healthy.updates);
  // No time travel, and the dead SPE did no work: the survivors
  // absorbed every chunk. (At this memory-bound shape the MIC, not the
  // SPE count, sets the wall time, so seconds need not grow.)
  EXPECT_GE(degraded.run.seconds, healthy.run.seconds);
  const sim::CounterSet* dead = degraded.run.counters.find_child("spe6");
  ASSERT_NE(dead, nullptr);
  EXPECT_EQ(dead->value("work_items"), 0.0);
  EXPECT_EQ(degraded.run.counters.value("chunks"),
            healthy.run.counters.value("chunks"));
}

TEST(StencilLint, AcceptsAWellFormedSpec) {
  const core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  const analysis::Diagnostics diags =
      analysis::lint_stencil(tiny_spec(), cfg);
  EXPECT_FALSE(diags.has_errors())
      << (diags.entries().empty() ? "" : diags.entries()[0].to_string());
}

TEST(StencilLint, RejectsNonDividingBlocking) {
  stencil::StencilSpec spec = tiny_spec();
  spec.bx = 5;  // does not divide nx = 8
  const core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  const analysis::Diagnostics diags = analysis::lint_stencil(spec, cfg);
  ASSERT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.entries()[0].rule, "spec");
}

TEST(StencilLint, RejectsLocalStoreOverflow) {
  stencil::StencilSpec spec;
  spec.nx = spec.ny = spec.nz = 256;
  spec.bx = spec.by = spec.bz = 128;  // one block >> 256 KB local store
  spec.origin = "<test>";
  const core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  const analysis::Diagnostics diags = analysis::lint_stencil(spec, cfg);
  ASSERT_TRUE(diags.has_errors());
  bool saw_ls = false;
  for (const analysis::Diagnostic& d : diags.entries())
    if (d.rule == "ls-budget") saw_ls = true;
  EXPECT_TRUE(saw_ls);
  // The linter and the runner agree: the same spec throws at
  // pipeline construction.
  EXPECT_THROW(stencil::CellStencil(spec, cfg).run(), cell::LocalStoreOverflow);
}

TEST(StencilLint, RejectsPpeStage) {
  // The stencil has no PPE model: lint refuses a PPE stage, and the
  // runner throws instead of streaming the SPE pipeline under it.
  const core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kPpeXlc);
  const analysis::Diagnostics diags = analysis::lint_stencil(tiny_spec(), cfg);
  ASSERT_TRUE(diags.has_errors());
  EXPECT_EQ(diags.entries()[0].rule, "stage");
  EXPECT_THROW(stencil::CellStencil(tiny_spec(), cfg), stencil::StencilError);
}

TEST(StencilLint, RejectsTagBudgetOverflow) {
  const stencil::StencilSpec spec = tiny_spec();
  core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  cfg.buffers = 17;  // 34 tags > the CBEA's 32 tag groups
  const analysis::Diagnostics diags = analysis::lint_stencil(spec, cfg);
  ASSERT_TRUE(diags.has_errors());
  bool saw_tags = false;
  for (const analysis::Diagnostic& d : diags.entries())
    if (d.rule == "tag-budget") saw_tags = true;
  EXPECT_TRUE(saw_tags);
}

TEST(StencilSpec, ParserRoundTripsAndRejectsGarbage) {
  const stencil::StencilSpec spec = stencil::parse_spec_string(
      "# comment\nnx 16 ny 8 nz 8\nbx 4 by 4 bz 4\niterations 3\nh 0.5\n");
  EXPECT_EQ(spec.nx, 16);
  EXPECT_EQ(spec.iterations, 3);
  EXPECT_EQ(spec.h, 0.5);
  EXPECT_EQ(spec.blocks(), 4 * 2 * 2);
  EXPECT_THROW(stencil::parse_spec_string("nx banana"),
               stencil::StencilError);
  EXPECT_THROW(stencil::parse_spec_string("volume 12"),
               stencil::StencilError);
  EXPECT_THROW(stencil::parse_spec_string("nx 8 bx 3"),
               stencil::StencilError);
  EXPECT_THROW(stencil::load_spec("/nonexistent/path.stencil"),
               stencil::StencilError);
}

}  // namespace
}  // namespace cellsweep
