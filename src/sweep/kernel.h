// Inner Sn solve kernels: one I-line recursion per angle.
//
// This is the computational core the paper spends Section 5 optimizing
// (its Figure 8). For each cell along an I-line, with three known
// inflows (I, J, K faces), the diamond-difference balance equation
// yields the cell-center flux and three outflows:
//
//   phi  = (q + ci*phi_i + cj*phi_j + ck*phi_k) / (sigt + ci + cj + ck)
//   out_d = 2*phi - in_d                 with  c_d = 2*|mu_d| / delta_d
//
// q is assembled from the source moments (q = sum_n pn[n]*Src[n], the
// scalar form of Figure 6) and the cell flux is accumulated back into
// the flux moments (Flux[n] += w*pn[n]*phi, Figure 6 verbatim).
//
// If an outflow goes negative in an optically thick cell, the standard
// set-to-zero fixup re-solves the balance with that face's outflow
// pinned to zero ("do_fixups" in the paper's pseudo-code).
//
// Three kernels implement the same math, in three roles:
//   * sweep_line_scalar -- straight scalar code, one line at a time
//     (the paper's Figure 8: the PPE / pre-SIMD SPE code path). It is
//     the reference the other two are tested against.
//   * sweep_chunk -- a chunk's 1..4 lines together, in the three
//     phases of Figure 7 (source along i, the lines' recursions
//     interleaved, accumulation along i), in plain C++ the compiler
//     vectorizes. It computes the flux of every functional solve,
//     whichever SPE kernel the timing model prices.
//   * the SIMD bundle kernel in kernel_simd.h -- Figure 7's four
//     "logical threads" over emulated spu:: intrinsics. It runs to
//     record its instruction trace for the SPU cycle model
//     (core/kernel_timing.cc).
// All three produce bit-identical results in double and single
// precision; tests/kernel_test.cc enforces this.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>

namespace cellsweep::sweep {

/// Maximum I-lines per SPE work chunk ("chunks of four iterations",
/// paper Section 6).
inline constexpr int kBundleLines = 4;

/// Inputs/outputs of one I-line solve for one angle.
template <typename Real>
struct LineArgs {
  int it = 0;    ///< cells along the line
  int dir = +1;  ///< +1: ascending i, -1: descending (octant sx)

  const Real* sigt = nullptr;  ///< per-cell total cross section line
  const Real* src = nullptr;   ///< source moments base (+ n*mstride per moment)
  Real* flux = nullptr;        ///< flux moments base (+ n*mstride)
  std::int64_t mstride = 0;    ///< stride between moments

  const Real* pn_src = nullptr;  ///< nm entries: R_n(angle)
  const Real* pn_acc = nullptr;  ///< nm entries: w * R_n(angle)
  int nm = 1;

  Real ci = Real(0);  ///< 2|mu| / dx
  Real cj = Real(0);  ///< 2|eta| / dy
  Real ck = Real(0);  ///< 2|xi| / dz

  Real* phi_j = nullptr;  ///< J-face inflow line (in) / outflow (out)
  Real* phi_k = nullptr;  ///< K-face inflow line (in) / outflow (out)
  Real* phi_i = nullptr;  ///< I-face inflow scalar (in) / outflow (out)
};

/// Statistics a kernel reports back (used by tests and the §6 audit).
struct KernelStats {
  std::uint64_t cells = 0;
  std::uint64_t fixups_applied = 0;  ///< cells that needed >= 1 face fixed
};

/// One cell's solve (solve_cell, shared by all three kernels): the
/// cell flux and its three outflows.
template <typename Real>
struct CellSolve {
  Real phi;    ///< cell-center angular flux
  Real out_i;  ///< I outflow
  Real out_j;  ///< J outflow
  Real out_k;  ///< K outflow
  bool fixed;  ///< true if any face was fixed up
};

/// The set-to-zero fixup rounds of solve_cell, given the plain diamond
/// outflows @p oi, @p oj, @p ok (at least one negative). Out of line
/// so the plain solve stays small enough to inline into every kernel's
/// cell loop.
template <typename Real>
[[gnu::noinline]] CellSolve<Real> fixup_cell(Real q, Real sigt, Real ci,
                                             Real cj, Real ck, Real in_i,
                                             Real in_j, Real in_k, Real oi,
                                             Real oj, Real ok) {
  // Pin each newly negative outflow to zero and re-solve the balance. A
  // fixed face contributes (c/2)*in to the numerator and leaves the
  // denominator; at most three rounds since each round fixes at least
  // one additional face.
  Real phi = Real(0);
  bool fi = false, fj = false, fk = false;
  for (int round = 0; round < 3; ++round) {
    fi = fi || oi < Real(0);
    fj = fj || oj < Real(0);
    fk = fk || ok < Real(0);
    Real n2 = q;
    Real d2 = sigt;
    if (fi) n2 += Real(0.5) * ci * in_i; else { n2 += ci * in_i; d2 += ci; }
    if (fj) n2 += Real(0.5) * cj * in_j; else { n2 += cj * in_j; d2 += cj; }
    if (fk) n2 += Real(0.5) * ck * in_k; else { n2 += ck * in_k; d2 += ck; }
    phi = n2 / d2;
    oi = fi ? Real(0) : Real(2) * phi - in_i;
    oj = fj ? Real(0) : Real(2) * phi - in_j;
    ok = fk ? Real(0) : Real(2) * phi - in_k;
    if (oi >= Real(0) && oj >= Real(0) && ok >= Real(0)) break;
  }
  return {phi, oi, oj, ok, true};
}

/// Performs the diamond solve with optional set-to-zero fixup.
template <typename Real>
inline CellSolve<Real> solve_cell(Real q, Real sigt, Real ci, Real cj,
                                  Real ck, Real in_i, Real in_j, Real in_k,
                                  bool fixup) {
  const Real num = q + ci * in_i + cj * in_j + ck * in_k;
  const Real den = sigt + ci + cj + ck;
  const Real phi = num / den;
  const Real oi = Real(2) * phi - in_i;
  const Real oj = Real(2) * phi - in_j;
  const Real ok = Real(2) * phi - in_k;
  if (fixup && !(oi >= Real(0) && oj >= Real(0) && ok >= Real(0)))
    return fixup_cell(q, sigt, ci, cj, ck, in_i, in_j, in_k, oi, oj, ok);
  return {phi, oi, oj, ok, false};
}

/// Scalar I-line kernel (the paper's Figure 8 in C++).
template <typename Real>
void sweep_line_scalar(const LineArgs<Real>& a, bool fixup,
                       KernelStats* stats = nullptr) {
  Real in_i = *a.phi_i;
  const int begin = a.dir > 0 ? 0 : a.it - 1;
  const int end = a.dir > 0 ? a.it : -1;
  for (int i = begin; i != end; i += a.dir) {
    // Assemble the per-angle source from the moments (Figure 6, scalar).
    Real q = Real(0);
    for (int n = 0; n < a.nm; ++n)
      q += a.pn_src[n] * a.src[static_cast<std::int64_t>(n) * a.mstride + i];

    const CellSolve<Real> c = solve_cell(q, a.sigt[i], a.ci, a.cj, a.ck,
                                         in_i, a.phi_j[i], a.phi_k[i], fixup);
    in_i = c.out_i;
    a.phi_j[i] = c.out_j;
    a.phi_k[i] = c.out_k;

    // Accumulate flux moments (Figure 6 verbatim).
    for (int n = 0; n < a.nm; ++n)
      a.flux[static_cast<std::int64_t>(n) * a.mstride + i] +=
          a.pn_acc[n] * c.phi;

    if (stats) {
      ++stats->cells;
      if (c.fixed) ++stats->fixups_applied;
    }
  }
  *a.phi_i = in_i;
}

/// Reals of scratch sweep_chunk needs for lines of @p it cells: a q
/// row and a phi row per line.
constexpr std::size_t chunk_scratch_reals(int it) {
  return 2 * static_cast<std::size_t>(kBundleLines) * it;
}

namespace detail {

/// sweep_chunk for exactly kLines lines; returns the fixed-up cells.
template <typename Real, int kLines>
std::uint64_t sweep_chunk_lines(const LineArgs<Real>* lines, bool fixup,
                                Real* scratch) {
  const int it = lines[0].it;
  const int nm = lines[0].nm;
  Real* const q_rows = scratch;
  Real* const phi_rows = scratch + static_cast<std::size_t>(kBundleLines) * it;

  // Phase 1, source: q[i] = sum_n pn_src[n] * src_n[i] along i, each
  // element summed in sweep_line_scalar's n order.
  for (int l = 0; l < kLines; ++l) {
    const LineArgs<Real>& a = lines[l];
    Real* const q = q_rows + static_cast<std::size_t>(l) * it;
    std::fill_n(q, it, Real(0));
    for (int n = 0; n < nm; ++n) {
      const Real p = a.pn_src[n];
      const Real* const src = a.src + n * a.mstride;
      for (int i = 0; i < it; ++i) q[i] += p * src[i];
    }
  }

  // Phase 2, recursion: cell by cell in sweep direction, one step of
  // every line's I-recursion per cell, so the lines' independent
  // solve chains overlap. Each lane keeps its own angle constants and
  // I inflow (a chunk may straddle two angles).
  struct Lane {
    const Real* q;
    const Real* sigt;
    Real* phi_j;
    Real* phi_k;
    Real* phi;
    Real ci, cj, ck, in_i;
  };
  Lane lane[kLines];
  for (int l = 0; l < kLines; ++l) {
    const LineArgs<Real>& a = lines[l];
    lane[l] = Lane{q_rows + static_cast<std::size_t>(l) * it,
                   a.sigt,
                   a.phi_j,
                   a.phi_k,
                   phi_rows + static_cast<std::size_t>(l) * it,
                   a.ci,
                   a.cj,
                   a.ck,
                   *a.phi_i};
  }
  std::uint64_t fixups = 0;
  const auto solve = [&](Lane& ln, int i) {
    const CellSolve<Real> c =
        solve_cell(ln.q[i], ln.sigt[i], ln.ci, ln.cj, ln.ck, ln.in_i,
                   ln.phi_j[i], ln.phi_k[i], fixup);
    ln.in_i = c.out_i;
    ln.phi_j[i] = c.out_j;
    ln.phi_k[i] = c.out_k;
    ln.phi[i] = c.phi;
    fixups += c.fixed;
  };
  const int dir = lines[0].dir;
  for (int s = 0; s < it; ++s) {
    const int i = dir > 0 ? s : it - 1 - s;
    // Unrolled over the lanes, so each lane's state stays in registers.
    [&]<int... L>(std::integer_sequence<int, L...>) {
      (solve(lane[L], i), ...);
    }(std::make_integer_sequence<int, kLines>{});
  }
  for (int l = 0; l < kLines; ++l) *lines[l].phi_i = lane[l].in_i;

  // Phase 3, accumulate: flux_n[i] += pn_acc[n] * phi[i] along i.
  for (int l = 0; l < kLines; ++l) {
    const LineArgs<Real>& a = lines[l];
    const Real* const phi = phi_rows + static_cast<std::size_t>(l) * it;
    for (int n = 0; n < nm; ++n) {
      const Real p = a.pn_acc[n];
      Real* const flux = a.flux + n * a.mstride;
      for (int i = 0; i < it; ++i) flux[i] += p * phi[i];
    }
  }
  return fixups;
}

}  // namespace detail

/// Chunk kernel: solves 1..4 I-lines together in the three phases of
/// Figure 7, with results bit-identical to sweep_line_scalar on each
/// line. The lines must share length, direction and moment count
/// (nm <= 16, as sweep_bundle_simd) and write disjoint flux rows and
/// faces; @p scratch holds chunk_scratch_reals(it) reals.
template <typename Real>
void sweep_chunk(const LineArgs<Real>* lines, int nlines, bool fixup,
                 Real* scratch, KernelStats* stats = nullptr) {
  if (nlines < 1 || nlines > kBundleLines)
    throw std::invalid_argument("sweep_chunk: 1..4 lines per chunk");
  const LineArgs<Real>& a0 = lines[0];
  if (a0.nm > 16)
    throw std::invalid_argument("sweep_chunk: at most 16 moments");
  for (int l = 1; l < nlines; ++l)
    if (lines[l].it != a0.it || lines[l].dir != a0.dir ||
        lines[l].nm != a0.nm)
      throw std::invalid_argument("sweep_chunk: chunk lines must share shape");

  using detail::sweep_chunk_lines;
  std::uint64_t fixups = 0;
  switch (nlines) {
    case 1: fixups = sweep_chunk_lines<Real, 1>(lines, fixup, scratch); break;
    case 2: fixups = sweep_chunk_lines<Real, 2>(lines, fixup, scratch); break;
    case 3: fixups = sweep_chunk_lines<Real, 3>(lines, fixup, scratch); break;
    default: fixups = sweep_chunk_lines<Real, 4>(lines, fixup, scratch);
  }
  if (stats) {
    stats->cells += static_cast<std::uint64_t>(nlines) * a0.it;
    stats->fixups_applied += fixups;
  }
}

/// Flop accounting for one cell-angle solve, following the paper's
/// counting (madd = 2 flops, divide = 1): used by the Section 6
/// compute-bound audit.
constexpr std::uint64_t flops_per_cell_solve(int nm, bool fixup) {
  // source: nm madds; balance: 3 madds + 3 adds + 1 div + ...;
  // outflows: 3 (2*phi - in); accumulate: nm madds + 1 mul (w*phi is
  // folded into pn_acc, so just nm madds).
  const std::uint64_t base = 2ULL * nm  // source madds
                             + 6        // numerator madds
                             + 3        // denominator adds
                             + 1        // divide
                             + 6        // three outflow fms
                             + 2ULL * nm;  // accumulation madds
  // The fixup test itself costs three compares; count the occasional
  // re-solve as amortized two extra flops.
  return fixup ? base + 5 : base;
}

}  // namespace cellsweep::sweep
