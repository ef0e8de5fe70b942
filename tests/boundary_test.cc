// Tests for reflective boundary conditions, including the exact
// infinite-medium analytic check (phi = q / sigma_a everywhere).
#include <gtest/gtest.h>

#include "sweep/mpi_sweeper.h"
#include "sweep/problem.h"
#include "sweep/sweeper.h"

namespace cellsweep::sweep {
namespace {

TEST(OctantMirror, BitLayoutMatchesAllOctants) {
  // The reflection code relies on: iq^1 flips sx, iq^2 flips sy,
  // iq^4 flips sz in all_octants()'s ordering.
  const auto octs = all_octants();
  for (int iq = 0; iq < 8; ++iq) {
    EXPECT_EQ(octs[iq ^ 1].sx, -octs[iq].sx);
    EXPECT_EQ(octs[iq ^ 1].sy, octs[iq].sy);
    EXPECT_EQ(octs[iq ^ 1].sz, octs[iq].sz);
    EXPECT_EQ(octs[iq ^ 2].sy, -octs[iq].sy);
    EXPECT_EQ(octs[iq ^ 2].sx, octs[iq].sx);
    EXPECT_EQ(octs[iq ^ 4].sz, -octs[iq].sz);
    EXPECT_EQ(octs[iq ^ 4].sx, octs[iq].sx);
  }
}

TEST(Boundary, DefaultsAreVacuum) {
  const Problem p = Problem::benchmark_cube(4);
  for (int f = 0; f < 6; ++f)
    EXPECT_EQ(p.boundary(f), FaceBc::kVacuum);
  EXPECT_FALSE(p.any_reflective());
}

TEST(Boundary, InfiniteMediumFactory) {
  const Problem p = Problem::infinite_medium(4);
  EXPECT_TRUE(p.any_reflective());
  for (int f = 0; f < 6; ++f)
    EXPECT_EQ(p.boundary(f), FaceBc::kReflective);
}

SweepConfig refl_config(int mk, int iters, double eps = 0.0) {
  SweepConfig cfg;
  cfg.mk = mk;
  cfg.mmi = 3;
  cfg.max_iterations = iters;
  cfg.epsilon = eps;
  cfg.fixup_from_iteration = 9999;
  return cfg;
}

TEST(Boundary, InfiniteMediumExactSolution) {
  // All faces reflective + uniform medium: the discrete-ordinates
  // solution is spatially flat and equals q / sigma_a exactly.
  const double sigma_t = 1.0, sigma_s = 0.5, q = 1.0;
  const Problem p = Problem::infinite_medium(6, sigma_t, sigma_s, q);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(state, refl_config(3, 250));
  const double exact = q / (sigma_t - sigma_s);
  const auto& g = p.grid();
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i)
        ASSERT_NEAR(state.flux().at(0, k, j, i), exact, 1e-8)
            << i << "," << j << "," << k;
  // Nothing leaks through reflective faces.
  EXPECT_DOUBLE_EQ(state.leakage().total(), 0.0);
}

TEST(Boundary, InfiniteMediumExactForOtherCrossSections) {
  const double sigma_t = 2.5, sigma_s = 1.5, q = 3.0;
  const Problem p = Problem::infinite_medium(4, sigma_t, sigma_s, q);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(state, refl_config(2, 250));
  EXPECT_NEAR(state.flux().at(0, 2, 1, 3), q / (sigma_t - sigma_s), 1e-8);
}

TEST(Boundary, ReflectionInvariantUnderBlocking) {
  // MK/MMI reorganization must not change the reflected solution.
  const Problem p = Problem::infinite_medium(6);
  SnQuadrature quad(6);
  SweepState<double> a(p, quad, 2, kBenchmarkMoments);
  SweepState<double> b(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(a, refl_config(3, 10));
  SweepConfig alt = refl_config(6, 10);
  alt.mmi = 6;
  solve_source_iteration(b, alt);
  EXPECT_EQ(MomentField<double>::max_abs_diff_moment0(a.flux(), b.flux()),
            0.0);
}

TEST(Boundary, HalfReflectiveRaisesFluxOnThatSide) {
  // Reflecting only the west face: flux near that wall rises toward the
  // interior level, flux near the vacuum east wall stays depressed.
  Problem p = Problem::benchmark_cube(8);
  p.set_boundary(kFaceWest, FaceBc::kReflective);
  SnQuadrature quad(6);
  SweepState<double> refl(p, quad, 2, kBenchmarkMoments);
  solve_source_iteration(refl, refl_config(4, 30, 1e-10));

  const Problem vac = Problem::benchmark_cube(8);
  SweepState<double> ref(vac, quad, 2, kBenchmarkMoments);
  solve_source_iteration(ref, refl_config(4, 30, 1e-10));

  const int mid = 4;
  EXPECT_GT(refl.flux().at(0, mid, mid, 0), ref.flux().at(0, mid, mid, 0));
  EXPECT_NEAR(refl.flux().at(0, mid, mid, 7) / ref.flux().at(0, mid, mid, 7),
              1.0, 0.15);
  // The reflective face contributes no leakage; the others still do.
  EXPECT_DOUBLE_EQ(refl.leakage().west, 0.0);
  EXPECT_GT(refl.leakage().east, 0.0);
}

TEST(Boundary, ReflectiveRejectsExternalBoundaryIo) {
  // Reflective global faces are only supported by the serial solver;
  // solve_mpi refuses them.
  const Problem p = Problem::infinite_medium(4);
  SnQuadrature quad(6);
  msg::World world(1);
  SweepConfig cfg = refl_config(2, 2);
  EXPECT_THROW(solve_mpi(world, p, quad, 2, cfg, 1, 1, kBenchmarkMoments),
               std::logic_error);
}

TEST(Boundary, ReflectiveConservesParticles) {
  // Partially reflective box: source = absorption + leakage through the
  // remaining vacuum faces, at convergence.
  Problem p = Problem::benchmark_cube(6);
  p.set_boundary(kFaceWest, FaceBc::kReflective);
  p.set_boundary(kFaceBottom, FaceBc::kReflective);
  SnQuadrature quad(6);
  SweepState<double> state(p, quad, 2, kBenchmarkMoments);
  const SolveResult r =
      solve_source_iteration(state, refl_config(3, 400, 1e-12));
  ASSERT_TRUE(r.converged);
  const double sink = state.absorption_rate() + state.leakage().total();
  EXPECT_NEAR(sink / p.total_external_source(), 1.0, 1e-7);
}

}  // namespace
}  // namespace cellsweep::sweep
