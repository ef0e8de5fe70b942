// Tests for the full sweep driver: loop-structure correctness,
// blocking invariance (MK/MMI must not change the answer), solves
// pinned to the emulated SIMD kernel's numbers, particle balance,
// convergence, symmetry.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <tuple>

#include "sweep/problem.h"
#include "sweep/quadrature.h"
#include "sweep/sweeper.h"

namespace cellsweep::sweep {
namespace {

SweepConfig config(int mk, int mmi, KernelKind kernel, int iters = 4,
                   int fixup_from = 99) {
  SweepConfig cfg;
  cfg.mk = mk;
  cfg.mmi = mmi;
  cfg.kernel = kernel;
  cfg.max_iterations = iters;
  cfg.fixup_from_iteration = fixup_from;
  return cfg;
}

// Bitwise FNV-1a checksum of every flux moment in every cell (the
// padded row tails excluded).
std::uint64_t flux_checksum(const SweepState<double>& state) {
  const Grid& g = state.problem().grid();
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int n = 0; n < state.nm(); ++n)
    for (int k = 0; k < g.kt; ++k)
      for (int j = 0; j < g.jt; ++j)
        for (int i = 0; i < g.it; ++i) {
          const double v = state.flux().at(n, k, j, i);
          std::uint64_t bits = 0;
          std::memcpy(&bits, &v, sizeof bits);
          for (int b = 0; b < 8; ++b) {
            h ^= (bits >> (8 * b)) & 0xffu;
            h *= 0x100000001b3ULL;
          }
        }
  return h;
}

// Exact results of one solve. The values below were recorded from the
// emulated SIMD bundle kernel (sweep_bundle_simd), which computed the
// flux of KernelKind::kSimd solves until the functional sweep switched
// to sweep_line_scalar, and then to sweep_chunk, for both kinds. Both
// kinds must still reproduce them bit for bit.
struct PinnedSolve {
  double absorption;
  double final_change;
  std::uint64_t checksum;
  std::uint64_t fixup_cells;
};

void expect_pinned_solve(const Problem& p, int l_max, int nm_cap,
                         SweepConfig cfg, const PinnedSolve& want) {
  SnQuadrature quad(6);
  for (const KernelKind kind : {KernelKind::kScalar, KernelKind::kSimd}) {
    SCOPED_TRACE(kind == KernelKind::kScalar ? "kScalar" : "kSimd");
    SweepState<double> state(p, quad, l_max, nm_cap);
    cfg.kernel = kind;
    const SolveResult r = solve_source_iteration(state, cfg);
    EXPECT_EQ(state.absorption_rate(), want.absorption);
    EXPECT_EQ(r.final_change, want.final_change);
    EXPECT_EQ(flux_checksum(state), want.checksum);
    EXPECT_EQ(r.totals.fixup_cells, want.fixup_cells);
  }
}

TEST(SweepConfig, Validation) {
  SweepConfig cfg;
  cfg.mk = 3;
  EXPECT_THROW(cfg.validate(10, 6), std::invalid_argument);  // 3 !| 10
  cfg.mk = 5;
  cfg.mmi = 4;
  EXPECT_THROW(cfg.validate(10, 6), std::invalid_argument);  // 4 !| 6
  cfg.mmi = 3;
  EXPECT_NO_THROW(cfg.validate(10, 6));
  cfg.max_iterations = 0;
  EXPECT_THROW(cfg.validate(10, 6), std::invalid_argument);
}

TEST(Sweeper, FluxIsPositiveWithPositiveSource) {
  const Problem p = Problem::benchmark_cube(8);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(state, config(4, 3, KernelKind::kSimd));
  const auto& g = p.grid();
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i)
        ASSERT_GT(state.flux().at(0, k, j, i), 0.0)
            << i << "," << j << "," << k;
}

TEST(Sweeper, CentralSymmetryOfTheCube) {
  // Homogeneous cube with uniform source: with the *full* moment set
  // the scalar flux is symmetric under all reflections and axis
  // exchanges. (The truncated benchmark set drops azimuthal l=2
  // moments, which breaks exact axis exchange -- checked separately.)
  const Problem p = Problem::benchmark_cube(6);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, /*nm_cap=*/0);
  solve_source_iteration(state, config(3, 3, KernelKind::kSimd));
  const auto& g = p.grid();
  const auto& f = state.flux();
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i) {
        const double v = f.at(0, k, j, i);
        EXPECT_NEAR(v, f.at(0, k, j, g.it - 1 - i), 1e-11);
        EXPECT_NEAR(v, f.at(0, k, g.jt - 1 - j, i), 1e-11);
        EXPECT_NEAR(v, f.at(0, g.kt - 1 - k, j, i), 1e-11);
        // Axis exchange holds to the precision of the 7-digit
        // tabulated quadrature constants.
        EXPECT_NEAR(v, f.at(0, i, j, k), 1e-8);
      }
}

// Blocking parameters (MK, MMI) must not change the physics at all --
// they only reorganize the wavefront. This is the key structural
// invariant of the sweep() loop nest.
using BlockingParam = std::tuple<int, int>;
class BlockingInvariance : public ::testing::TestWithParam<BlockingParam> {};

TEST_P(BlockingInvariance, FluxBitIdenticalAcrossBlocking) {
  const auto [mk, mmi] = GetParam();
  const Problem p = Problem::benchmark_cube(12);
  SnQuadrature quad(6);

  SweepState<double> ref(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(ref, config(12, 6, KernelKind::kSimd, 3));

  SweepState<double> alt(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(alt, config(mk, mmi, KernelKind::kSimd, 3));

  EXPECT_EQ(MomentField<double>::max_abs_diff_moment0(ref.flux(), alt.flux()),
            0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Blockings, BlockingInvariance,
    ::testing::Values(BlockingParam{1, 1}, BlockingParam{2, 2},
                      BlockingParam{3, 3}, BlockingParam{4, 6},
                      BlockingParam{6, 1}, BlockingParam{12, 2},
                      BlockingParam{12, 3}));

TEST(Sweeper, BothKernelKindsReproduceEmulatedSolve) {
  expect_pinned_solve(Problem::benchmark_cube(10), 2, kBenchmarkMoments,
                      config(5, 3, KernelKind::kSimd, 4, 2),
                      {2.7082514814162582, 0.012434440824939719,
                       0xf3800f3290a268e1ULL, 0});
}

TEST(Sweeper, ReflectiveSolveReproducesEmulatedSolve) {
  expect_pinned_solve(Problem::infinite_medium(4), 2, kBenchmarkMoments,
                      config(2, 3, KernelKind::kSimd, 6),
                      {7.4710640584979942, 0.11873443123910321,
                       0x0514fa77566af406ULL, 0});
}

TEST(Sweeper, ParticleBalanceAtConvergence) {
  // source = absorption + leakage, to the convergence tolerance.
  const Problem p = Problem::benchmark_cube(8);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  SweepConfig cfg = config(4, 3, KernelKind::kSimd, 200);
  cfg.epsilon = 1e-11;
  const SolveResult r = solve_source_iteration(state, cfg);
  ASSERT_TRUE(r.converged);
  const double src = p.total_external_source();
  const double sink = state.absorption_rate() + state.leakage().total();
  EXPECT_NEAR(sink / src, 1.0, 1e-8);
}

TEST(Sweeper, LeakageSymmetricOnTheCube) {
  const Problem p = Problem::benchmark_cube(8);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, /*nm_cap=*/0);
  solve_source_iteration(state, config(4, 3, KernelKind::kSimd));
  const LeakageTally& L = state.leakage();
  EXPECT_NEAR(L.west, L.east, 1e-10);
  EXPECT_NEAR(L.north, L.south, 1e-10);
  EXPECT_NEAR(L.top, L.bottom, 1e-10);
  // Cross-axis equality is limited by the 7-digit quadrature table.
  EXPECT_NEAR(L.west, L.top, 1e-7);
}

TEST(Sweeper, TruncatedMomentsKeepReflectionSymmetry) {
  // The benchmark's truncated set still preserves the reflection
  // symmetries (each kept moment is odd or even in each cosine).
  const Problem p = Problem::benchmark_cube(6);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(state, config(3, 3, KernelKind::kSimd));
  const auto& g = p.grid();
  const auto& f = state.flux();
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i) {
        const double v = f.at(0, k, j, i);
        EXPECT_NEAR(v, f.at(0, k, j, g.it - 1 - i), 1e-11);
        EXPECT_NEAR(v, f.at(0, k, g.jt - 1 - j, i), 1e-11);
        EXPECT_NEAR(v, f.at(0, g.kt - 1 - k, j, i), 1e-11);
      }
}

TEST(Sweeper, SourceIterationMonotoneGrowth) {
  // With a positive fixed source and no negative sources, the scalar
  // flux grows monotonically over source iterations.
  const Problem p = Problem::benchmark_cube(6);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  double prev_sum = 0.0;
  SweepConfig cfg = config(3, 3, KernelKind::kSimd, 1);
  for (int iter = 0; iter < 6; ++iter) {
    state.build_source();
    state.sweep(cfg, false);
    const double sum = state.flux().moment_sum(0);
    EXPECT_GT(sum, prev_sum);
    prev_sum = sum;
  }
}

TEST(Sweeper, ConvergenceDetected) {
  const Problem p = Problem::benchmark_cube(6);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  SweepConfig cfg = config(3, 3, KernelKind::kSimd, 500);
  cfg.epsilon = 1e-10;
  const SolveResult r = solve_source_iteration(state, cfg);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.final_change, 1e-10);
  EXPECT_LT(r.iterations, 500);
  // Scattering ratio 0.5: roughly one decade per 3-4 iterations.
  EXPECT_GT(r.iterations, 5);
}

TEST(Sweeper, FixupsEngageOnShieldProblem) {
  const Problem p = Problem::shield(12);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  const SolveResult r =
      solve_source_iteration(state, config(4, 3, KernelKind::kSimd, 4, 0));
  EXPECT_GT(r.totals.fixup_cells, 0u);
  // Fixups keep the scalar flux nonnegative everywhere.
  const auto& g = p.grid();
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i)
        ASSERT_GE(state.flux().at(0, k, j, i), 0.0);
  // The fixup path gives the emulated kernel's numbers too.
  expect_pinned_solve(p, 2, kBenchmarkMoments,
                      config(4, 3, KernelKind::kSimd, 4, 0),
                      {0.77107950347489884, 0.00087298790137735338,
                       0x29ab19832e7e46d7ULL, 65635});
}

TEST(Sweeper, ShieldAttenuatesFlux) {
  // Flux beyond the shield slab must be much lower than in front.
  const Problem p = Problem::shield(16);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(state, config(4, 3, KernelKind::kSimd, 8, 0));
  const int n = p.grid().it;
  const double before = state.flux().at(0, 1, 1, n / 4);
  const double after = state.flux().at(0, 1, 1, 3 * n / 4);
  EXPECT_GT(before, 100.0 * after);
}

TEST(Sweeper, DiagonalObserverSeesAllLines) {
  const Problem p = Problem::benchmark_cube(8);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  SweepConfig cfg = config(4, 3, KernelKind::kSimd, 1);
  state.build_source();
  std::uint64_t lines = 0, diagonals = 0;
  int max_nlines = 0;
  const SweepRunStats stats =
      state.sweep(cfg, false, [&](const DiagonalWork& w) {
        lines += w.nlines;
        ++diagonals;
        max_nlines = std::max(max_nlines, w.nlines);
        EXPECT_EQ(w.it, 8);
        EXPECT_FALSE(w.fixup);
      });
  // Total I-lines per sweep: octants x angles x jt x kt.
  EXPECT_EQ(lines, 8u * 6u * 8u * 8u);
  EXPECT_EQ(stats.lines, lines);
  EXPECT_LE(max_nlines, cfg.mk * cfg.mmi);
  EXPECT_GT(diagonals, 0u);
}

TEST(Sweeper, StatsCountCells) {
  const Problem p = Problem::benchmark_cube(6);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  state.build_source();
  const SweepRunStats stats =
      state.sweep(config(3, 3, KernelKind::kSimd, 1), false);
  EXPECT_EQ(stats.cells, 8u * 6u * 6u * 6u * 6u);  // octants*angles*cells
}

TEST(Sweeper, SinglePrecisionTracksDouble) {
  const Problem p = Problem::benchmark_cube(8);
  SnQuadrature quad(6);
  SweepState<double> d(p, quad, 2, kBenchmarkMoments);
  SweepState<float> f(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(d, config(4, 3, KernelKind::kSimd, 4));
  solve_source_iteration(f, config(4, 3, KernelKind::kSimd, 4));
  const auto& g = p.grid();
  for (int k = 0; k < g.kt; k += 2)
    for (int j = 0; j < g.jt; j += 3)
      for (int i = 0; i < g.it; i += 3) {
        const double dv = d.flux().at(0, k, j, i);
        const double fv = f.flux().at(0, k, j, i);
        EXPECT_NEAR(fv / dv, 1.0, 1e-4) << i << "," << j << "," << k;
      }
}

TEST(Sweeper, P3ScatteringSolves) {
  // Full l=3 anisotropy: 16 moments, kernels at their register limit.
  Grid g = Grid::cube(6);
  Material m{"aniso", 1.0, {0.5, 0.25, 0.1, 0.04}, 1.0};
  const Problem p(g, {m}, std::vector<std::uint8_t>(g.cells(), 0));
  SnQuadrature quad(6);
  EXPECT_EQ(SweepState<double>(p, quad, 3, 0).nm(), 16);
  expect_pinned_solve(p, 3, 0, config(3, 3, KernelKind::kSimd, 3),
                      {2.6619817694239574, 0.046237010587541483,
                       0x5a435a4e2ade4025ULL, 0});
}

TEST(Sweeper, FullMomentSetAlsoWorks) {
  const Problem p = Problem::benchmark_cube(6);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, /*nm_cap=*/0);
  EXPECT_EQ(state.nm(), 9);
  const SolveResult r =
      solve_source_iteration(state, config(3, 3, KernelKind::kSimd, 3));
  EXPECT_EQ(r.iterations, 3);
  EXPECT_GT(state.flux().moment_sum(0), 0.0);
}

}  // namespace
}  // namespace cellsweep::sweep
