// The host-parallel functional sweep must be bitwise identical to the
// serial one: every I-line of a diagonal writes disjoint flux cells and
// disjoint face entries, and the per-worker kernel counters fold in a
// fixed order, so no floating-point reassociation (or any other
// schedule dependence) is possible. These tests pin that property for
// both kernels, with fixups genuinely firing, plus the invariance of
// the observer stream (and hence of simulated Cell timing).
#include <gtest/gtest.h>

#include <vector>

#include "core/orchestrator.h"
#include "sweep/plan.h"
#include "sweep/problem.h"
#include "sweep/sweeper.h"

namespace cellsweep::sweep {
namespace {

template <typename Real>
struct SolveOutput {
  SolveResult result;
  LeakageTally leakage;
  double absorption = 0;
  std::vector<Real> flux;  // all moments, all cells, in layout order
};

template <typename Real>
SolveOutput<Real> run_solve(const Problem& p, SweepConfig cfg, int threads) {
  cfg.threads = threads;
  SnQuadrature quad(6);
  SweepState<Real> state(p, quad, /*l_max=*/2, kBenchmarkMoments);
  SolveOutput<Real> out;
  out.result = solve_source_iteration(state, cfg);
  out.leakage = state.leakage();
  out.absorption = state.absorption_rate();
  const Grid& g = p.grid();
  for (int n = 0; n < state.nm(); ++n)
    for (int k = 0; k < g.kt; ++k)
      for (int j = 0; j < g.jt; ++j) {
        const Real* row = state.flux().line(n, k, j);
        out.flux.insert(out.flux.end(), row, row + g.it);
      }
  return out;
}

template <typename Real>
void expect_bitwise_equal(const SolveOutput<Real>& serial,
                          const SolveOutput<Real>& parallel) {
  EXPECT_EQ(serial.result.iterations, parallel.result.iterations);
  EXPECT_EQ(serial.result.converged, parallel.result.converged);
  // Exact equality on purpose: the parallel run must be *bitwise*
  // identical, not merely close.
  EXPECT_EQ(serial.result.final_change, parallel.result.final_change);
  EXPECT_EQ(serial.result.totals.lines, parallel.result.totals.lines);
  EXPECT_EQ(serial.result.totals.chunks, parallel.result.totals.chunks);
  EXPECT_EQ(serial.result.totals.cells, parallel.result.totals.cells);
  EXPECT_EQ(serial.result.totals.fixup_cells,
            parallel.result.totals.fixup_cells);
  EXPECT_EQ(serial.leakage.west, parallel.leakage.west);
  EXPECT_EQ(serial.leakage.east, parallel.leakage.east);
  EXPECT_EQ(serial.leakage.north, parallel.leakage.north);
  EXPECT_EQ(serial.leakage.south, parallel.leakage.south);
  EXPECT_EQ(serial.leakage.bottom, parallel.leakage.bottom);
  EXPECT_EQ(serial.leakage.top, parallel.leakage.top);
  EXPECT_EQ(serial.absorption, parallel.absorption);
  ASSERT_EQ(serial.flux.size(), parallel.flux.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < serial.flux.size(); ++i)
    if (serial.flux[i] != parallel.flux[i]) ++mismatches;
  EXPECT_EQ(mismatches, 0u);
}

SweepConfig fixup_cfg(KernelKind kernel) {
  SweepConfig cfg;
  cfg.kernel = kernel;
  cfg.mk = 5;
  cfg.mmi = 3;
  cfg.max_iterations = 4;
  cfg.fixup_from_iteration = 0;  // fixups on from the first sweep
  return cfg;
}

TEST(ParallelSweep, SimdKernelBitwiseIdenticalWithFixups) {
  // The shield problem's thick absorber makes the fixup path really
  // run (asserted below), so the parallel path covers it too.
  const Problem p = Problem::shield(10);
  const auto serial = run_solve<double>(p, fixup_cfg(KernelKind::kSimd), 1);
  ASSERT_GT(serial.result.totals.fixup_cells, 0u);
  for (int threads : {2, 4, 7}) {
    const auto parallel =
        run_solve<double>(p, fixup_cfg(KernelKind::kSimd), threads);
    expect_bitwise_equal(serial, parallel);
  }
}

TEST(ParallelSweep, ScalarKernelBitwiseIdenticalWithFixups) {
  const Problem p = Problem::shield(10);
  const auto serial = run_solve<double>(p, fixup_cfg(KernelKind::kScalar), 1);
  ASSERT_GT(serial.result.totals.fixup_cells, 0u);
  const auto parallel =
      run_solve<double>(p, fixup_cfg(KernelKind::kScalar), 4);
  expect_bitwise_equal(serial, parallel);
}

TEST(ParallelSweep, SinglePrecisionBitwiseIdentical) {
  const Problem p = Problem::benchmark_cube(10);
  const auto serial = run_solve<float>(p, fixup_cfg(KernelKind::kSimd), 1);
  const auto parallel = run_solve<float>(p, fixup_cfg(KernelKind::kSimd), 4);
  expect_bitwise_equal(serial, parallel);
}

TEST(ParallelSweep, ReflectiveBoundariesBitwiseIdentical) {
  // Reflective faces use the built-in boundary handling; the parallel
  // executor only spans one diagonal, so the serial face bookkeeping
  // around it must be untouched.
  const Problem p = Problem::infinite_medium(8);
  SweepConfig cfg = fixup_cfg(KernelKind::kSimd);
  cfg.mk = 4;
  const auto serial = run_solve<double>(p, cfg, 1);
  const auto parallel = run_solve<double>(p, cfg, 4);
  expect_bitwise_equal(serial, parallel);
}

TEST(ParallelSweep, ThreadCountChangeMidStateIsSafe) {
  // The same SweepState may sweep with different thread counts; the
  // pool and per-worker stats are rebuilt on the fly.
  const Problem p = Problem::benchmark_cube(8);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  SweepConfig cfg = fixup_cfg(KernelKind::kSimd);
  cfg.mk = 4;
  state.build_source();
  const SweepRunStats serial = state.sweep(cfg, true);
  const double serial_sum = state.flux().moment_sum(0);
  cfg.threads = 3;
  const SweepRunStats par3 = state.sweep(cfg, true);
  EXPECT_EQ(state.flux().moment_sum(0), serial_sum);
  cfg.threads = 1;
  const SweepRunStats again = state.sweep(cfg, true);
  EXPECT_EQ(state.flux().moment_sum(0), serial_sum);
  EXPECT_EQ(serial.cells, par3.cells);
  EXPECT_EQ(serial.chunks, par3.chunks);
  EXPECT_EQ(again.fixup_cells, par3.fixup_cells);
}

TEST(ParallelSweep, ObserverStreamAndTimingUnaffectedByThreads) {
  // Simulated Cell time must depend only on the workload stream, never
  // on the host thread count: a functional run with threads > 1 still
  // matches the trace-driven timing exactly.
  const Problem p = Problem::benchmark_cube(10);
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(
      core::OptimizationStage::kSpeLsPoke);
  cfg.sweep.mk = 5;
  cfg.sweep.max_iterations = 2;
  cfg.sweep.fixup_from_iteration = 1;

  core::CellSweep3D trace_runner(p, cfg);
  const core::RunReport trace = trace_runner.run(core::RunMode::kTraceDriven);

  cfg.sweep.threads = 4;
  core::CellSweep3D parallel_runner(p, cfg);
  const core::RunReport func =
      parallel_runner.run(core::RunMode::kFunctional);

  EXPECT_DOUBLE_EQ(trace.seconds, func.seconds);
  EXPECT_DOUBLE_EQ(trace.traffic_bytes, func.traffic_bytes);
  EXPECT_EQ(trace.chunks, func.chunks);
  EXPECT_EQ(trace.flops, func.flops);
  EXPECT_EQ(trace.cell_solves, func.cell_solves);
}

TEST(ParallelSweep, ValidateRejectsNonPositiveThreads) {
  SweepConfig cfg;
  cfg.threads = 0;
  EXPECT_THROW(cfg.validate(10, 6), std::invalid_argument);
}

}  // namespace
}  // namespace cellsweep::sweep
