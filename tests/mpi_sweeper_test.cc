// Tests for the process-level wavefront decomposition: any px x py
// decomposition must reproduce the serial solution bit-for-bit, with
// matching global balance -- the paper's "migration path" property.
#include <gtest/gtest.h>

#include <tuple>

#include "sweep/mpi_sweeper.h"

namespace cellsweep::sweep {
namespace {

SweepConfig config(int iters = 4, int fixup_from = 99) {
  SweepConfig cfg;
  cfg.mk = 4;
  cfg.mmi = 3;
  cfg.max_iterations = iters;
  cfg.fixup_from_iteration = fixup_from;
  return cfg;
}

TEST(ExtractTile, SlicesMaterials) {
  const Problem p = Problem::shield(16);
  const Problem tile = extract_tile(p, 8, 8, 0, 8);
  EXPECT_EQ(tile.grid().it, 8);
  EXPECT_EQ(tile.grid().jt, 8);
  EXPECT_EQ(tile.grid().kt, 16);
  for (int k = 0; k < 16; ++k)
    for (int j = 0; j < 8; ++j)
      for (int i = 0; i < 8; ++i)
        EXPECT_EQ(tile.material_index(i, j, k), p.material_index(8 + i, j, k));
}

TEST(ExtractTile, RejectsOutOfRange) {
  const Problem p = Problem::benchmark_cube(8);
  EXPECT_THROW(extract_tile(p, 4, 8, 0, 8), std::invalid_argument);
  EXPECT_THROW(extract_tile(p, -1, 4, 0, 8), std::invalid_argument);
}

// (px, py) decomposition x error-mode acceleration on/off: the
// extrapolation step must see the same global change ratio as serial.
class Decompositions
    : public ::testing::TestWithParam<std::tuple<std::tuple<int, int>, bool>> {
};

TEST_P(Decompositions, BitIdenticalToSerial) {
  const auto [px, py] = std::get<0>(GetParam());
  const Problem p = Problem::benchmark_cube(12);
  SnQuadrature quad(6);
  SweepConfig cfg = config(3);
  cfg.accelerate = std::get<1>(GetParam());

  SweepState<double> serial(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(serial, cfg);

  msg::World world(px * py);
  const MpiSolveResult r =
      solve_mpi(world, p, quad, 2, cfg, px, py, kBenchmarkMoments);

  const auto& g = p.grid();
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i)
        ASSERT_EQ(r.flux0[(static_cast<std::size_t>(k) * g.jt + j) * g.it + i],
                  serial.flux().at(0, k, j, i))
            << px << "x" << py << (cfg.accelerate ? " accelerated" : "")
            << " @ " << i << "," << j << "," << k;
}

INSTANTIATE_TEST_SUITE_P(
    Grids, Decompositions,
    ::testing::Combine(
        ::testing::Values(std::tuple{1, 1}, std::tuple{2, 1}, std::tuple{1, 2},
                          std::tuple{2, 2}, std::tuple{4, 1}, std::tuple{3, 2},
                          std::tuple{4, 4}, std::tuple{6, 1}, std::tuple{1, 4},
                          std::tuple{1, 6}, std::tuple{2, 6}),
        ::testing::Bool()));

TEST(MpiSweeper, DegradedNodeSweepBitIdentical) {
  // One straggler node (slow sends: failing NIC / throttled CPU) may
  // stretch wall-clock, but the wavefront exchange is blocking matched
  // send/recv, so the physics must stay bit-identical to the serial
  // solve -- graceful degradation at the cluster level.
  const Problem p = Problem::benchmark_cube(12);
  SnQuadrature quad(6);
  const SweepConfig cfg = config(3);

  SweepState<double> serial(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(serial, cfg);

  msg::World world(6);
  world.degrade_rank(4, 200);  // 200 us on every send from rank 4
  const MpiSolveResult r =
      solve_mpi(world, p, quad, 2, cfg, 3, 2, kBenchmarkMoments);

  EXPECT_EQ(r.solve.iterations, 3);
  const auto& g = p.grid();
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i)
        ASSERT_EQ(r.flux0[(static_cast<std::size_t>(k) * g.jt + j) * g.it + i],
                  serial.flux().at(0, k, j, i));
}

TEST(MpiSweeper, GlobalBalanceMatchesSerial) {
  const Problem p = Problem::benchmark_cube(12);
  SnQuadrature quad(6);
  const SweepConfig cfg = config(4);

  SweepState<double> serial(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(serial, cfg);

  msg::World world(4);
  const MpiSolveResult r =
      solve_mpi(world, p, quad, 2, cfg, 2, 2, kBenchmarkMoments);

  EXPECT_NEAR(r.absorption, serial.absorption_rate(), 1e-12);
  EXPECT_NEAR(r.leakage.total(), serial.leakage().total(), 1e-12);
  EXPECT_NEAR(r.leakage.west, serial.leakage().west, 1e-12);
  EXPECT_NEAR(r.leakage.top, serial.leakage().top, 1e-12);
}

TEST(MpiSweeper, ConvergenceAgreesAcrossRanks) {
  const Problem p = Problem::benchmark_cube(8);
  SnQuadrature quad(6);
  SweepConfig cfg = config(200);
  cfg.epsilon = 1e-9;

  SweepState<double> serial(p, quad, 2, kBenchmarkMoments);
  const SolveResult sr = solve_source_iteration(serial, cfg);

  msg::World world(4);
  const MpiSolveResult r =
      solve_mpi(world, p, quad, 2, cfg, 2, 2, kBenchmarkMoments);
  EXPECT_TRUE(r.solve.converged);
  EXPECT_EQ(r.solve.iterations, sr.iterations);
}

TEST(MpiSweeper, FixupsWorkAcrossRanks) {
  const Problem p = Problem::shield(16);
  SnQuadrature quad(6);
  const SweepConfig cfg = config(3, /*fixup_from=*/0);

  SweepState<double> serial(p, quad, 2, kBenchmarkMoments);
  const SolveResult want = solve_source_iteration(serial, cfg);
  ASSERT_GT(want.totals.fixup_cells, 0u);

  msg::World world(4);
  const MpiSolveResult r =
      solve_mpi(world, p, quad, 2, cfg, 2, 2, kBenchmarkMoments);
  // The work totals are summed over the ranks.
  EXPECT_EQ(r.solve.totals.cells, want.totals.cells);
  EXPECT_EQ(r.solve.totals.fixup_cells, want.totals.fixup_cells);
  const auto& g = p.grid();
  double maxdiff = 0;
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i)
        maxdiff = std::max(
            maxdiff,
            std::abs(r.flux0[(static_cast<std::size_t>(k) * g.jt + j) * g.it +
                             i] -
                     serial.flux().at(0, k, j, i)));
  EXPECT_EQ(maxdiff, 0.0);
}

TEST(MpiSweeper, ValidatesDecomposition) {
  const Problem p = Problem::benchmark_cube(8);
  SnQuadrature quad(6);
  msg::World world(4);
  EXPECT_THROW(solve_mpi(world, p, quad, 2, config(), 3, 1),
               std::invalid_argument);  // 3 ranks != world size 4
}

TEST(MpiSweeper, RejectsNonDividingTiles) {
  const Problem p = Problem::benchmark_cube(9);  // 9 not divisible by 2
  SnQuadrature quad(6);
  SweepConfig cfg = config();
  cfg.mk = 3;
  msg::World world(2);
  EXPECT_THROW(solve_mpi(world, p, quad, 2, cfg, 2, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace cellsweep::sweep
