// Tests for the Sn solve kernels: per-cell physics properties of the
// diamond-difference solve, fixup behavior, and bit-equality between
// the scalar kernel (Figure 8) and the SIMD bundle kernel (Figure 7).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "sweep/kernel.h"
#include "sweep/kernel_simd.h"
#include "util/aligned.h"
#include "util/rng.h"

namespace cellsweep::sweep {
namespace {

// ---------------------------------------------------------------------------
// solve_cell: per-cell physics
// ---------------------------------------------------------------------------

TEST(SolveCell, SatisfiesBalanceEquation) {
  // sigt*phi + sum_d (c_d/2)(out_d - in_d) = q  (diamond difference).
  const double q = 2.0, sigt = 1.5, ci = 3.0, cj = 4.0, ck = 5.0;
  const double ii = 0.7, ij = 0.3, ik = 0.9;
  const auto r = solve_cell(q, sigt, ci, cj, ck, ii, ij, ik, false);
  const double balance = sigt * r.phi + 0.5 * ci * (r.out_i - ii) +
                         0.5 * cj * (r.out_j - ij) + 0.5 * ck * (r.out_k - ik);
  EXPECT_NEAR(balance, q, 1e-12);
}

TEST(SolveCell, DiamondRelationHolds) {
  const auto r = solve_cell(1.0, 1.0, 2.0, 2.0, 2.0, 0.5, 0.25, 0.75, false);
  EXPECT_NEAR(r.out_i, 2 * r.phi - 0.5, 1e-15);
  EXPECT_NEAR(r.out_j, 2 * r.phi - 0.25, 1e-15);
  EXPECT_NEAR(r.out_k, 2 * r.phi - 0.75, 1e-15);
  EXPECT_FALSE(r.fixed);
}

TEST(SolveCell, PositiveInputsPositiveFlux) {
  util::SplitMix64 rng(11);
  for (int t = 0; t < 200; ++t) {
    const double q = rng.next_double(0.0, 10.0);
    const double sigt = rng.next_double(0.1, 10.0);
    const double c = rng.next_double(0.5, 20.0);
    const auto r = solve_cell(q, sigt, c, c, c, rng.next_double(),
                              rng.next_double(), rng.next_double(), false);
    EXPECT_GT(r.phi, 0.0);
  }
}

TEST(SolveCell, FixupZeroesNegativeOutflows) {
  // Optically thick cell, strong inflow, no source: diamond goes
  // negative; the fixup must clamp outflows at zero.
  const auto raw = solve_cell(0.0, 50.0, 4.0, 4.0, 4.0, 1.0, 1.0, 1.0, false);
  ASSERT_LT(raw.out_i, 0.0);
  const auto fixed = solve_cell(0.0, 50.0, 4.0, 4.0, 4.0, 1.0, 1.0, 1.0, true);
  EXPECT_TRUE(fixed.fixed);
  EXPECT_GE(fixed.out_i, 0.0);
  EXPECT_GE(fixed.out_j, 0.0);
  EXPECT_GE(fixed.out_k, 0.0);
  EXPECT_GE(fixed.phi, 0.0);
}

TEST(SolveCell, FixupPreservesBalanceWithZeroedFaces) {
  // With a face pinned to zero outflow, the balance still holds with
  // the half-inflow convention.
  const double q = 0.0, sigt = 50.0, c = 4.0, in = 1.0;
  const auto r = solve_cell(q, sigt, c, c, c, in, in, in, true);
  const double balance = sigt * r.phi + 0.5 * c * (r.out_i - in) +
                         0.5 * c * (r.out_j - in) + 0.5 * c * (r.out_k - in);
  EXPECT_NEAR(balance, q, 1e-12);
}

TEST(SolveCell, FixupNoOpWhenAllPositive) {
  const auto a = solve_cell(1.0, 1.0, 2.0, 2.0, 2.0, 0.1, 0.1, 0.1, false);
  const auto b = solve_cell(1.0, 1.0, 2.0, 2.0, 2.0, 0.1, 0.1, 0.1, true);
  EXPECT_EQ(a.phi, b.phi);
  EXPECT_EQ(a.out_i, b.out_i);
  EXPECT_FALSE(b.fixed);
}

TEST(SolveCell, SinglePrecisionVariantWorks) {
  const auto r =
      solve_cell<float>(1.f, 1.f, 2.f, 2.f, 2.f, 0.5f, 0.25f, 0.75f, false);
  EXPECT_GT(r.phi, 0.f);
  EXPECT_NEAR(r.out_i, 2 * r.phi - 0.5f, 1e-6);
}

// ---------------------------------------------------------------------------
// Line kernels: scalar vs SIMD bundle, parameterized over shapes
// ---------------------------------------------------------------------------

template <typename Real>
struct LineProblem {
  LineProblem(int nlines, int it, int nm, bool thick, std::uint64_t seed)
      : nlines_(nlines), it_(it), nm_(nm) {
    util::SplitMix64 rng(seed);
    const std::size_t pad = util::padded_extent<Real>(it);
    src.assign(static_cast<std::size_t>(nm) * pad, Real(0));
    for (auto& x : src) x = static_cast<Real>(rng.next_double(0.0, 2.0));
    sigt.assign(pad, Real(1));
    for (int i = 0; i < it; ++i)
      sigt[i] = static_cast<Real>(
          thick ? rng.next_double(20.0, 60.0) : rng.next_double(0.5, 2.0));
    pn_src.resize(nm);
    pn_acc.resize(nm);
    for (int n = 0; n < nm; ++n) {
      // Nonnegative coefficients keep q >= 0, so the thin-cell cases
      // genuinely exercise the no-fixup path.
      pn_src[n] = static_cast<Real>(rng.next_double(0.0, 1.0));
      pn_acc[n] = static_cast<Real>(rng.next_double(0.0, 0.2));
    }
    pn_src[0] = Real(1);
    for (int l = 0; l < nlines; ++l) {
      flux[l].assign(static_cast<std::size_t>(nm) * pad, Real(0));
      phi_j[l].assign(pad, Real(0));
      phi_k[l].assign(pad, Real(0));
      for (int i = 0; i < it; ++i) {
        phi_j[l][i] = static_cast<Real>(rng.next_double(0.0, thick ? 5.0 : 1.0));
        phi_k[l][i] = static_cast<Real>(rng.next_double(0.0, thick ? 5.0 : 1.0));
      }
      phi_i[l] = static_cast<Real>(rng.next_double(0.0, 1.0));
      ci[l] = static_cast<Real>(rng.next_double(1.0, 10.0));
      cj[l] = static_cast<Real>(rng.next_double(1.0, 10.0));
      ck[l] = static_cast<Real>(rng.next_double(1.0, 10.0));
    }
  }

  LineArgs<Real> args(int l, int dir) {
    LineArgs<Real> a;
    a.it = it_;
    a.dir = dir;
    a.sigt = sigt.data();
    a.src = src.data();
    a.flux = flux[l].data();
    a.mstride = static_cast<std::int64_t>(util::padded_extent<Real>(it_));
    a.pn_src = pn_src.data();
    a.pn_acc = pn_acc.data();
    a.nm = nm_;
    a.ci = ci[l];
    a.cj = cj[l];
    a.ck = ck[l];
    a.phi_j = phi_j[l].data();
    a.phi_k = phi_k[l].data();
    a.phi_i = &phi_i[l];
    return a;
  }

  int nlines_, it_, nm_;
  util::AlignedVector<Real> src, sigt;
  std::vector<Real> pn_src, pn_acc;
  util::AlignedVector<Real> flux[kBundleLines], phi_j[kBundleLines],
      phi_k[kBundleLines];
  Real phi_i[kBundleLines];
  Real ci[kBundleLines], cj[kBundleLines], ck[kBundleLines];
};

// (nlines, it, nm, fixup&thick, dir)
using ShapeParam = std::tuple<int, int, int, bool, int>;

// Solves the same lines with the scalar kernel, one line at a time, and
// with one SIMD bundle, then requires every output to match bit for bit:
// all flux moments, the J/K outflow rows, the I outflow and both stats.
// The functional sweep runs the scalar kernel in place of the bundle,
// so this is what keeps its flux equal to the emulated kernel's.
template <typename Real>
void expect_bundle_bit_equals_scalar(const ShapeParam& shape,
                                     std::uint64_t seed) {
  const auto [nlines, it, nm, thick, dir] = shape;
  LineProblem<Real> scalar_prob(nlines, it, nm, thick, seed);
  LineProblem<Real> simd_prob(nlines, it, nm, thick, seed);

  KernelStats s1, s2;
  for (int l = 0; l < nlines; ++l) {
    LineArgs<Real> a = scalar_prob.args(l, dir);
    sweep_line_scalar(a, thick, &s1);
  }
  std::vector<LineArgs<Real>> bundle;
  for (int l = 0; l < nlines; ++l) bundle.push_back(simd_prob.args(l, dir));
  BundleScratch<Real> scratch(it);
  sweep_bundle_simd(bundle.data(), nlines, thick, scratch, &s2);

  for (int l = 0; l < nlines; ++l) {
    for (int n = 0; n < nm; ++n)
      for (int i = 0; i < it; ++i) {
        const std::size_t idx =
            static_cast<std::size_t>(n) * util::padded_extent<Real>(it) + i;
        ASSERT_EQ(scalar_prob.flux[l][idx], simd_prob.flux[l][idx])
            << "line " << l << " moment " << n << " cell " << i;
      }
    for (int i = 0; i < it; ++i) {
      ASSERT_EQ(scalar_prob.phi_j[l][i], simd_prob.phi_j[l][i])
          << "line " << l << " cell " << i;
      ASSERT_EQ(scalar_prob.phi_k[l][i], simd_prob.phi_k[l][i])
          << "line " << l << " cell " << i;
    }
    ASSERT_EQ(scalar_prob.phi_i[l], simd_prob.phi_i[l]) << "line " << l;
  }
  EXPECT_EQ(s1.cells, s2.cells);
  EXPECT_EQ(s1.fixups_applied, s2.fixups_applied);
}

class KernelEquivalence : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(KernelEquivalence, SimdBundleBitEqualsScalarDouble) {
  expect_bundle_bit_equals_scalar<double>(GetParam(), 99);
}

// nm = 16 is the full P3 moment set, the bundle's register limit.
INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelEquivalence,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),    // nlines
                       ::testing::Values(1, 7, 50),      // it
                       ::testing::Values(1, 6, 9, 16),   // nm
                       ::testing::Bool(),                // thick/fixup
                       ::testing::Values(+1, -1)));      // direction

class KernelEquivalenceSp : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(KernelEquivalenceSp, SimdBundleBitEqualsScalarSingle) {
  expect_bundle_bit_equals_scalar<float>(GetParam(), 7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelEquivalenceSp,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),    // nlines
                       ::testing::Values(1, 5, 7, 50),   // it
                       ::testing::Values(1, 6, 9, 16),   // nm
                       ::testing::Bool(),                // thick/fixup
                       ::testing::Values(+1, -1)));      // direction

TEST(Kernel, FixupsReportedInThickCells) {
  LineProblem<double> prob(1, 20, 6, /*thick=*/true, 3);
  KernelStats stats;
  LineArgs<double> a = prob.args(0, +1);
  sweep_line_scalar(a, true, &stats);
  EXPECT_EQ(stats.cells, 20u);
  EXPECT_GT(stats.fixups_applied, 0u);
}

TEST(Kernel, NoFixupsInThinCells) {
  LineProblem<double> prob(1, 20, 6, /*thick=*/false, 3);
  KernelStats stats;
  LineArgs<double> a = prob.args(0, +1);
  sweep_line_scalar(a, true, &stats);
  EXPECT_EQ(stats.fixups_applied, 0u);
}

TEST(Kernel, BundleValidatesShape) {
  LineProblem<double> prob(2, 10, 6, false, 5);
  LineArgs<double> bundle[2] = {prob.args(0, +1), prob.args(1, -1)};
  BundleScratch<double> scratch(10);
  EXPECT_THROW(sweep_bundle_simd(bundle, 2, false, scratch, nullptr),
               std::invalid_argument);
  EXPECT_THROW(sweep_bundle_simd(bundle, 0, false, scratch, nullptr),
               std::invalid_argument);
  EXPECT_THROW(sweep_bundle_simd(bundle, 5, false, scratch, nullptr),
               std::invalid_argument);
}

TEST(Kernel, FlopAccountingFormula) {
  EXPECT_EQ(flops_per_cell_solve(6, false), 2u * 6 + 6 + 3 + 1 + 6 + 2 * 6);
  EXPECT_EQ(flops_per_cell_solve(6, true), flops_per_cell_solve(6, false) + 5);
  EXPECT_GT(flops_per_cell_solve(9, false), flops_per_cell_solve(6, false));
}

}  // namespace
}  // namespace cellsweep::sweep
