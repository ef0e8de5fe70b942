// SIMDized bundle kernel: four "logical threads" of vectorization.
//
// The paper's key kernel optimization (Figures 6 -> 7, the 2.88 s ->
// 1.68 s step in Figure 5): because the I-recursion is data-dependent
// along i, the SPU's 2-way double-precision SIMD cannot vectorize a
// single line. Instead, the chunk of four I-lines an SPE receives is
// processed as four simultaneous "logical threads" (A, B, C, D):
//
//   * the independent per-cell phases -- source assembly and flux-
//     moment accumulation -- vectorize along i inside each line
//     (exactly Figure 7's FluxVA..FluxVD loops);
//   * the recursive diamond solve packs lanes *across* lines, so the
//     i-recursion advances two lines per vec_double2 chain, two chains
//     deep, which also masks the 13-cycle DP latency.
//
// Every lane performs the same arithmetic, in the same order, as the
// scalar kernel (and this library builds with -ffp-contract=off), so
// results are bit-identical to sweep_line_scalar -- enforced by
// tests/kernel_test.cc.
#pragma once

#include <array>
#include <cstdint>

#include "spu/intrinsics.h"
#include "sweep/kernel.h"
#include "util/aligned.h"

namespace cellsweep::sweep {

/// SIMD shape per precision: vec type, lanes per vector, and how many
/// vector chains cover the four logical threads.
template <typename Real>
struct SimdTraits;

template <>
struct SimdTraits<double> {
  using Vec = spu::vec_double2;
  using Mask = spu::vec_mask2;
  static constexpr int kLanes = 2;
  static constexpr int kChains = 2;  // 2 chains x 2 lanes = 4 lines
};

template <>
struct SimdTraits<float> {
  using Vec = spu::vec_float4;
  using Mask = spu::vec_mask4;
  static constexpr int kLanes = 4;
  static constexpr int kChains = 1;  // 1 chain x 4 lanes = 4 lines
};

/// Reusable scratch for one bundle (the local-store Phi / q lines).
template <typename Real>
struct BundleScratch {
  explicit BundleScratch(int max_it) {
    const std::size_t n = util::padded_extent<Real>(max_it);
    for (auto& line : q) line.assign(n, Real(0));
    for (auto& line : phi) line.assign(n, Real(0));
  }
  std::array<util::AlignedVector<Real>, kBundleLines> q;
  std::array<util::AlignedVector<Real>, kBundleLines> phi;
};

namespace detail_simd {

/// Division with the numerics of an exact divide but the instruction
/// trace of the SPU's reciprocal-estimate + Newton-Raphson sequence
/// (the SPU has no DP divide; XLC emits frest/fi + refinement).
inline spu::vec_double2 div_exact(const spu::vec_double2& num,
                                  const spu::vec_double2& den) {
  // Trace: estimate (odd-pipe shuffle-class) + 2 Newton iterations
  // (mul + nmsub + madd each is approximated as 3 DP ops) + final mul.
  spu::TraceRecorder* rec = spu::TraceRecorder::active();
  spu::vec_double2 r;
  r.v[0] = num.v[0] / den.v[0];
  r.v[1] = num.v[1] / den.v[1];
  if (rec) {
    spu::ValueId est = rec->record(spu::Op::kShuffle, den.id);
    for (int it = 0; it < 2; ++it) {
      est = rec->record(spu::Op::kMulDouble, den.id, est, spu::kNoValue, 2);
      est = rec->record(spu::Op::kFmaDouble, est, est, est, 4);
    }
    r.id = rec->record(spu::Op::kMulDouble, num.id, est, spu::kNoValue, 2);
  }
  return r;
}

inline spu::vec_float4 div_exact(const spu::vec_float4& num,
                                 const spu::vec_float4& den) {
  spu::TraceRecorder* rec = spu::TraceRecorder::active();
  spu::vec_float4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = num.v[i] / den.v[i];
  if (rec) {
    // SP: frest + fi + one Newton step + final multiply.
    spu::ValueId est = rec->record(spu::Op::kShuffle, den.id);
    est = rec->record(spu::Op::kMulSingle, den.id, est, spu::kNoValue, 4);
    est = rec->record(spu::Op::kFmaSingle, est, est, est, 8);
    r.id = rec->record(spu::Op::kMulSingle, num.id, est, spu::kNoValue, 4);
  }
  return r;
}

}  // namespace detail_simd

/// Solves a bundle of 1..4 I-lines for (possibly distinct) angles.
/// All lines must share the same length and direction; inactive chain
/// lanes (when nlines < 4) carry benign dummy values and are not
/// written back.
template <typename Real>
void sweep_bundle_simd(const LineArgs<Real>* lines, int nlines, bool fixup,
                       BundleScratch<Real>& scratch,
                       KernelStats* stats = nullptr);

// Declared here, defined in kernel_simd.cc with explicit instantiation
// for float and double.

}  // namespace cellsweep::sweep
