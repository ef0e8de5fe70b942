// Tests for the Sn solve kernels: per-cell physics properties of the
// diamond-difference solve, fixup behavior, and bit-equality of the
// chunk kernel and the emulated SIMD bundle kernel (Figure 7) with the
// scalar kernel (Figure 8).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
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
// Line kernels: scalar vs chunk vs SIMD bundle
// ---------------------------------------------------------------------------

/// Lines 0-1 and 2-3 take different angles, as in a chunk that
/// straddles two.
constexpr std::array<int, kBundleLines> kStraddlingAngles = {0, 0, 1, 1};

/// The inputs and outputs of up to four I-lines: each line has its own
/// source, cross-section, flux and face rows, and the angle given by
/// @p angle_of (its constants ci/cj/ck and pn_src/pn_acc).
template <typename Real>
struct LineProblem {
  LineProblem(int nlines, int it, int nm, bool thick, std::uint64_t seed,
              const std::array<int, kBundleLines>& angle_of =
                  kStraddlingAngles)
      : nlines_(nlines), it_(it), nm_(nm), angle_of_(angle_of) {
    util::SplitMix64 rng(seed);
    const std::size_t pad = util::padded_extent<Real>(it);
    for (int m = 0; m < kBundleLines; ++m) {
      // Nonnegative coefficients keep q >= 0, so the thin-cell cases
      // genuinely exercise the no-fixup path.
      pn_src[m].resize(nm);
      pn_acc[m].resize(nm);
      for (int n = 0; n < nm; ++n) {
        pn_src[m][n] = static_cast<Real>(rng.next_double(0.0, 1.0));
        pn_acc[m][n] = static_cast<Real>(rng.next_double(0.0, 0.2));
      }
      pn_src[m][0] = Real(1);
      ci[m] = static_cast<Real>(rng.next_double(1.0, 10.0));
      cj[m] = static_cast<Real>(rng.next_double(1.0, 10.0));
      ck[m] = static_cast<Real>(rng.next_double(1.0, 10.0));
    }
    const double face_max = thick ? 5.0 : 1.0;
    for (int l = 0; l < nlines; ++l) {
      src[l].assign(static_cast<std::size_t>(nm) * pad, Real(0));
      for (auto& x : src[l]) x = static_cast<Real>(rng.next_double(0.0, 2.0));
      sigt[l].assign(pad, Real(1));
      for (int i = 0; i < it; ++i)
        sigt[l][i] = static_cast<Real>(
            thick ? rng.next_double(20.0, 60.0) : rng.next_double(0.5, 2.0));
      flux[l].assign(static_cast<std::size_t>(nm) * pad, Real(0));
      for (auto& x : flux[l]) x = static_cast<Real>(rng.next_double(0.0, 1.0));
      phi_j[l].assign(pad, Real(0));
      phi_k[l].assign(pad, Real(0));
      for (int i = 0; i < it; ++i) {
        phi_j[l][i] = static_cast<Real>(rng.next_double(0.0, face_max));
        phi_k[l][i] = static_cast<Real>(rng.next_double(0.0, face_max));
      }
      phi_i[l] = static_cast<Real>(rng.next_double(0.0, 1.0));
    }
  }

  LineArgs<Real> args(int l, int dir) {
    const int m = angle_of_[l];
    LineArgs<Real> a;
    a.it = it_;
    a.dir = dir;
    a.sigt = sigt[l].data();
    a.src = src[l].data();
    a.flux = flux[l].data();
    a.mstride = static_cast<std::int64_t>(util::padded_extent<Real>(it_));
    a.pn_src = pn_src[m].data();
    a.pn_acc = pn_acc[m].data();
    a.nm = nm_;
    a.ci = ci[m];
    a.cj = cj[m];
    a.ck = ck[m];
    a.phi_j = phi_j[l].data();
    a.phi_k = phi_k[l].data();
    a.phi_i = &phi_i[l];
    return a;
  }

  std::vector<LineArgs<Real>> chunk(int dir) {
    std::vector<LineArgs<Real>> lines;
    for (int l = 0; l < nlines_; ++l) lines.push_back(args(l, dir));
    return lines;
  }

  int nlines_, it_, nm_;
  std::array<int, kBundleLines> angle_of_;
  // Per line.
  util::AlignedVector<Real> src[kBundleLines], sigt[kBundleLines],
      flux[kBundleLines], phi_j[kBundleLines], phi_k[kBundleLines];
  Real phi_i[kBundleLines] = {};
  // Per angle.
  std::vector<Real> pn_src[kBundleLines], pn_acc[kBundleLines];
  Real ci[kBundleLines] = {}, cj[kBundleLines] = {}, ck[kBundleLines] = {};
};

/// The three kernels over one LineProblem.
enum class LineKernel { kScalar, kChunk, kBundle };

template <typename Real>
KernelStats run_kernel(LineKernel kernel, LineProblem<Real>& prob, int dir,
                       bool fixup) {
  KernelStats stats;
  std::vector<LineArgs<Real>> lines = prob.chunk(dir);
  const int nlines = static_cast<int>(lines.size());
  switch (kernel) {
    case LineKernel::kScalar:
      for (const LineArgs<Real>& a : lines) sweep_line_scalar(a, fixup, &stats);
      break;
    case LineKernel::kChunk: {
      std::vector<Real> scratch(chunk_scratch_reals(prob.it_));
      sweep_chunk(lines.data(), nlines, fixup, scratch.data(), &stats);
      break;
    }
    case LineKernel::kBundle: {
      BundleScratch<Real> scratch(prob.it_);
      sweep_bundle_simd(lines.data(), nlines, fixup, scratch, &stats);
      break;
    }
  }
  return stats;
}

/// The bits of @p x, so that -0 != +0 and NaN payloads count.
template <typename Real>
auto bits(Real x) {
  if constexpr (sizeof(Real) == 8)
    return std::bit_cast<std::uint64_t>(x);
  else
    return std::bit_cast<std::uint32_t>(x);
}

/// Requires every output of @p got to match @p want bit for bit: all
/// flux moments, the J/K outflow rows, the I outflow and both stats.
template <typename Real>
void expect_bit_equal(const LineProblem<Real>& want, const KernelStats& want_s,
                      const LineProblem<Real>& got, const KernelStats& got_s) {
  const int it = want.it_;
  for (int l = 0; l < want.nlines_; ++l) {
    for (int n = 0; n < want.nm_; ++n)
      for (int i = 0; i < it; ++i) {
        const std::size_t idx =
            static_cast<std::size_t>(n) * util::padded_extent<Real>(it) + i;
        ASSERT_EQ(bits(want.flux[l][idx]), bits(got.flux[l][idx]))
            << want.flux[l][idx] << " vs " << got.flux[l][idx] << ": line "
            << l << " moment " << n << " cell " << i;
      }
    for (int i = 0; i < it; ++i) {
      ASSERT_EQ(bits(want.phi_j[l][i]), bits(got.phi_j[l][i]))
          << want.phi_j[l][i] << " vs " << got.phi_j[l][i] << ": line " << l
          << " cell " << i;
      ASSERT_EQ(bits(want.phi_k[l][i]), bits(got.phi_k[l][i]))
          << want.phi_k[l][i] << " vs " << got.phi_k[l][i] << ": line " << l
          << " cell " << i;
    }
    ASSERT_EQ(bits(want.phi_i[l]), bits(got.phi_i[l]))
        << want.phi_i[l] << " vs " << got.phi_i[l] << ": line " << l;
  }
  EXPECT_EQ(want_s.cells, got_s.cells);
  EXPECT_EQ(want_s.fixups_applied, got_s.fixups_applied);
}

// (nlines, it, nm, fixup&thick, dir)
using ShapeParam = std::tuple<int, int, int, bool, int>;

/// Solves the same lines with the scalar kernel, one line at a time,
/// and with @p kernel as one chunk, and requires bit-equal outputs.
template <typename Real>
void expect_kernel_bit_equals_scalar(LineKernel kernel,
                                     const ShapeParam& shape,
                                     std::uint64_t seed) {
  const auto [nlines, it, nm, thick, dir] = shape;
  LineProblem<Real> want(nlines, it, nm, thick, seed);
  LineProblem<Real> got(nlines, it, nm, thick, seed);
  const KernelStats ws = run_kernel(LineKernel::kScalar, want, dir, thick);
  const KernelStats gs = run_kernel(kernel, got, dir, thick);
  expect_bit_equal(want, ws, got, gs);
}

// nm = 16 is the full P3 moment set, the bundle's register limit.
const auto kShapes =
    ::testing::Combine(::testing::Values(1, 2, 3, 4),    // nlines
                       ::testing::Values(1, 7, 50),      // it
                       ::testing::Values(1, 6, 9, 16),   // nm
                       ::testing::Bool(),                // thick/fixup
                       ::testing::Values(+1, -1));       // direction

// The emulated SIMD bundle kernel.
class KernelEquivalence : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(KernelEquivalence, SimdBundleBitEqualsScalarDouble) {
  expect_kernel_bit_equals_scalar<double>(LineKernel::kBundle, GetParam(), 99);
}

INSTANTIATE_TEST_SUITE_P(Shapes, KernelEquivalence, kShapes);

class KernelEquivalenceSp : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(KernelEquivalenceSp, SimdBundleBitEqualsScalarSingle) {
  expect_kernel_bit_equals_scalar<float>(LineKernel::kBundle, GetParam(), 7);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, KernelEquivalenceSp,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),    // nlines
                       ::testing::Values(1, 5, 7, 50),   // it
                       ::testing::Values(1, 6, 9, 16),   // nm
                       ::testing::Bool(),                // thick/fixup
                       ::testing::Values(+1, -1)));      // direction

// The chunk kernel, which computes the flux of every functional solve.
class ChunkEquivalence : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(ChunkEquivalence, ChunkBitEqualsScalarDouble) {
  expect_kernel_bit_equals_scalar<double>(LineKernel::kChunk, GetParam(), 99);
}

TEST_P(ChunkEquivalence, ChunkBitEqualsScalarSingle) {
  expect_kernel_bit_equals_scalar<float>(LineKernel::kChunk, GetParam(), 7);
}

INSTANTIATE_TEST_SUITE_P(Shapes, ChunkEquivalence, kShapes);

/// One random case: shape, per-line angles, thickness, fixup and
/// direction all drawn from @p seed; the chunk and bundle kernels must
/// match the scalar kernel bit for bit.
template <typename Real>
void expect_random_case_bit_equal(std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  const int it = 1 + static_cast<int>(rng.next_below(64));
  const int nm = 1 + static_cast<int>(rng.next_below(16));
  const int nlines = 1 + static_cast<int>(rng.next_below(kBundleLines));
  std::array<int, kBundleLines> angle_of{};
  for (int& m : angle_of) m = static_cast<int>(rng.next_below(kBundleLines));
  const bool thick = rng.next_below(2) == 1;
  const bool fixup = rng.next_below(2) == 1;
  const int dir = rng.next_below(2) == 1 ? +1 : -1;
  const std::uint64_t data_seed = rng();
  SCOPED_TRACE(::testing::Message()
               << "it " << it << " nm " << nm << " nlines " << nlines
               << " thick " << thick << " fixup " << fixup << " dir " << dir);

  LineProblem<Real> want(nlines, it, nm, thick, data_seed, angle_of);
  const KernelStats ws = run_kernel(LineKernel::kScalar, want, dir, fixup);
  for (const LineKernel kernel : {LineKernel::kChunk, LineKernel::kBundle}) {
    SCOPED_TRACE(kernel == LineKernel::kChunk ? "sweep_chunk"
                                           : "sweep_bundle_simd");
    LineProblem<Real> got(nlines, it, nm, thick, data_seed, angle_of);
    const KernelStats gs = run_kernel(kernel, got, dir, fixup);
    expect_bit_equal(want, ws, got, gs);
  }
}

// Random shapes for a fixed time budget (at least kMinCases cases). The
// case seeds are a fixed sequence, so a slower build runs a prefix of
// the same cases; a failure prints its seed, which
// expect_random_case_bit_equal<Real>(seed) replays.
TEST(KernelRandom, ScalarChunkBundleBitEqual) {
  constexpr int kMinCases = 64;
  constexpr auto kBudget = std::chrono::milliseconds(400);
  const auto start = std::chrono::steady_clock::now();
  util::SplitMix64 seeds(2026);
  int cases = 0;
  while (cases < kMinCases ||
         std::chrono::steady_clock::now() - start < kBudget) {
    const std::uint64_t seed = seeds();
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    if (cases % 2 == 0)
      expect_random_case_bit_equal<double>(seed);
    else
      expect_random_case_bit_equal<float>(seed);
    ++cases;
    if (::testing::Test::HasFailure()) break;
  }
  RecordProperty("cases", cases);
}

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

TEST(Kernel, ChunkValidatesShape) {
  LineProblem<double> prob(2, 10, 6, false, 5);
  LineArgs<double> chunk[2] = {prob.args(0, +1), prob.args(1, -1)};
  std::vector<double> scratch(chunk_scratch_reals(10));
  EXPECT_THROW(sweep_chunk(chunk, 2, false, scratch.data()),
               std::invalid_argument);  // mixed directions
  EXPECT_THROW(sweep_chunk(chunk, 0, false, scratch.data()),
               std::invalid_argument);
  EXPECT_THROW(sweep_chunk(chunk, 5, false, scratch.data()),
               std::invalid_argument);
  LineProblem<double> wide(1, 10, 17, false, 5);
  const LineArgs<double> a = wide.args(0, +1);
  EXPECT_THROW(sweep_chunk(&a, 1, false, scratch.data()),
               std::invalid_argument);  // nm 17
}

TEST(Kernel, FlopAccountingFormula) {
  EXPECT_EQ(flops_per_cell_solve(6, false), 2u * 6 + 6 + 3 + 1 + 6 + 2 * 6);
  EXPECT_EQ(flops_per_cell_solve(6, true), flops_per_cell_solve(6, false) + 5);
  EXPECT_GT(flops_per_cell_solve(9, false), flops_per_cell_solve(6, false));
}

}  // namespace
}  // namespace cellsweep::sweep
