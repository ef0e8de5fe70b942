// Functional emulation of the SPU SIMD intrinsics used by the
// SIMDized Sweep3D kernels (paper, Figure 7).
//
// Each 128-bit vector value carries a virtual value id so that, when a
// spu::TraceRecorder is active, the recorded instruction stream has
// true dataflow dependencies -- exactly what the dual-issue pipeline
// scheduler needs to reproduce the paper's cycle counts. The numerics
// are the same with or without a recorder, but every op still stamps
// an id and looks up the recorder, which makes the emulated kernel
// about six times slower per cell-solve than the scalar one
// (bench/micro_kernels). So only trace recording and tests run it;
// functional sweeps use the scalar kernel.
//
// Only the subset of the SPU ISA that the kernels use is emulated:
// splats, mul, add, sub, madd (fused multiply-add), nmsub, compare
// greater-than, bitwise select, 16-byte loads/stores, plus explicit
// markers for fixed-point (address) arithmetic and branches so loop
// overhead shows up in the trace with the right pipe assignment.
#pragma once

#include <cstdint>
#include <cstring>

#include "spu/trace.h"

namespace cellsweep::spu {

namespace detail {
inline ValueId record(Op op, ValueId s0 = kNoValue, ValueId s1 = kNoValue,
                      ValueId s2 = kNoValue, std::uint64_t flops = 0) {
  TraceRecorder* rec = TraceRecorder::active();
  return rec ? rec->record(op, s0, s1, s2, flops) : kNoValue;
}
}  // namespace detail

// ---------------------------------------------------------------------------
// Vector types (one 128-bit SPU register each)
// ---------------------------------------------------------------------------

/// Two double-precision lanes ("vector double" on the SPU).
struct vec_double2 {
  double v[2]{0.0, 0.0};
  ValueId id = kNoValue;

  double operator[](int lane) const { return v[lane]; }
};

/// Four single-precision lanes ("vector float").
struct vec_float4 {
  float v[4]{0.f, 0.f, 0.f, 0.f};
  ValueId id = kNoValue;

  float operator[](int lane) const { return v[lane]; }
};

/// Comparison-result mask for vec_double2 (all-ones / all-zeros lanes).
struct vec_mask2 {
  std::uint64_t m[2]{0, 0};
  ValueId id = kNoValue;
};

/// Comparison-result mask for vec_float4.
struct vec_mask4 {
  std::uint32_t m[4]{0, 0, 0, 0};
  ValueId id = kNoValue;
};

// ---------------------------------------------------------------------------
// splats -- replicate a scalar across all lanes (odd-pipe shuffle)
// ---------------------------------------------------------------------------

inline vec_double2 spu_splats(double x) {
  vec_double2 r{{x, x}, detail::record(Op::kShuffle)};
  return r;
}

inline vec_float4 spu_splats(float x) {
  vec_float4 r{{x, x, x, x}, detail::record(Op::kShuffle)};
  return r;
}

// ---------------------------------------------------------------------------
// Arithmetic (even pipe). Flop counts follow the paper's convention:
// a DP madd is 4 flops (2 lanes x multiply+add), an SP madd is 8.
// ---------------------------------------------------------------------------

inline vec_double2 spu_mul(const vec_double2& a, const vec_double2& b) {
  vec_double2 r;
  r.v[0] = a.v[0] * b.v[0];
  r.v[1] = a.v[1] * b.v[1];
  r.id = detail::record(Op::kMulDouble, a.id, b.id, kNoValue, 2);
  return r;
}

inline vec_double2 spu_add(const vec_double2& a, const vec_double2& b) {
  vec_double2 r;
  r.v[0] = a.v[0] + b.v[0];
  r.v[1] = a.v[1] + b.v[1];
  r.id = detail::record(Op::kAddDouble, a.id, b.id, kNoValue, 2);
  return r;
}

inline vec_double2 spu_sub(const vec_double2& a, const vec_double2& b) {
  vec_double2 r;
  r.v[0] = a.v[0] - b.v[0];
  r.v[1] = a.v[1] - b.v[1];
  r.id = detail::record(Op::kAddDouble, a.id, b.id, kNoValue, 2);
  return r;
}

/// Fused multiply-add: a*b + c.
inline vec_double2 spu_madd(const vec_double2& a, const vec_double2& b,
                            const vec_double2& c) {
  vec_double2 r;
  r.v[0] = a.v[0] * b.v[0] + c.v[0];
  r.v[1] = a.v[1] * b.v[1] + c.v[1];
  r.id = detail::record(Op::kFmaDouble, a.id, b.id, c.id, 4);
  return r;
}

/// Negative multiply-subtract: c - a*b.
inline vec_double2 spu_nmsub(const vec_double2& a, const vec_double2& b,
                             const vec_double2& c) {
  vec_double2 r;
  r.v[0] = c.v[0] - a.v[0] * b.v[0];
  r.v[1] = c.v[1] - a.v[1] * b.v[1];
  r.id = detail::record(Op::kFmaDouble, a.id, b.id, c.id, 4);
  return r;
}

inline vec_float4 spu_mul(const vec_float4& a, const vec_float4& b) {
  vec_float4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i];
  r.id = detail::record(Op::kMulSingle, a.id, b.id, kNoValue, 4);
  return r;
}

inline vec_float4 spu_add(const vec_float4& a, const vec_float4& b) {
  vec_float4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] + b.v[i];
  r.id = detail::record(Op::kAddSingle, a.id, b.id, kNoValue, 4);
  return r;
}

inline vec_float4 spu_sub(const vec_float4& a, const vec_float4& b) {
  vec_float4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] - b.v[i];
  r.id = detail::record(Op::kAddSingle, a.id, b.id, kNoValue, 4);
  return r;
}

inline vec_float4 spu_madd(const vec_float4& a, const vec_float4& b,
                           const vec_float4& c) {
  vec_float4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = a.v[i] * b.v[i] + c.v[i];
  r.id = detail::record(Op::kFmaSingle, a.id, b.id, c.id, 8);
  return r;
}

inline vec_float4 spu_nmsub(const vec_float4& a, const vec_float4& b,
                            const vec_float4& c) {
  vec_float4 r;
  for (int i = 0; i < 4; ++i) r.v[i] = c.v[i] - a.v[i] * b.v[i];
  r.id = detail::record(Op::kFmaSingle, a.id, b.id, c.id, 8);
  return r;
}

// ---------------------------------------------------------------------------
// Compare / select (used by the negative-flux fixup path)
// ---------------------------------------------------------------------------

inline vec_mask2 spu_cmpgt(const vec_double2& a, const vec_double2& b) {
  vec_mask2 r;
  r.m[0] = a.v[0] > b.v[0] ? ~0ULL : 0ULL;
  r.m[1] = a.v[1] > b.v[1] ? ~0ULL : 0ULL;
  r.id = detail::record(Op::kCmpDouble, a.id, b.id);
  return r;
}

inline vec_mask4 spu_cmpgt(const vec_float4& a, const vec_float4& b) {
  vec_mask4 r;
  for (int i = 0; i < 4; ++i) r.m[i] = a.v[i] > b.v[i] ? ~0U : 0U;
  r.id = detail::record(Op::kCmpSingle, a.id, b.id);
  return r;
}

/// Bitwise select: lanes where the mask is set take @p b, others @p a.
inline vec_double2 spu_sel(const vec_double2& a, const vec_double2& b,
                           const vec_mask2& mask) {
  vec_double2 r;
  for (int i = 0; i < 2; ++i) {
    std::uint64_t ab, bb;
    std::memcpy(&ab, &a.v[i], 8);
    std::memcpy(&bb, &b.v[i], 8);
    const std::uint64_t rb = (ab & ~mask.m[i]) | (bb & mask.m[i]);
    std::memcpy(&r.v[i], &rb, 8);
  }
  r.id = detail::record(Op::kSelect, a.id, b.id, mask.id);
  return r;
}

inline vec_float4 spu_sel(const vec_float4& a, const vec_float4& b,
                          const vec_mask4& mask) {
  vec_float4 r;
  for (int i = 0; i < 4; ++i) {
    std::uint32_t ab, bb;
    std::memcpy(&ab, &a.v[i], 4);
    std::memcpy(&bb, &b.v[i], 4);
    const std::uint32_t rb = (ab & ~mask.m[i]) | (bb & mask.m[i]);
    std::memcpy(&r.v[i], &rb, 4);
  }
  r.id = detail::record(Op::kSelect, a.id, b.id, mask.id);
  return r;
}

/// True if any lane of the mask is set (used to take the slow fixup
/// path only when some lane produced a negative flux). On the real SPU
/// this is a gather + branch; we record it as fixed-point + branch.
inline bool any(const vec_mask2& mask) {
  detail::record(Op::kFixed, mask.id);
  return (mask.m[0] | mask.m[1]) != 0;
}

inline bool any(const vec_mask4& mask) {
  detail::record(Op::kFixed, mask.id);
  return (mask.m[0] | mask.m[1] | mask.m[2] | mask.m[3]) != 0;
}

// ---------------------------------------------------------------------------
// Loads / stores (odd pipe, 16 bytes each)
// ---------------------------------------------------------------------------

inline vec_double2 vec_load(const double* p) {
  vec_double2 r{{p[0], p[1]}, detail::record(Op::kLoad)};
  return r;
}

inline void vec_store(double* p, const vec_double2& x) {
  p[0] = x.v[0];
  p[1] = x.v[1];
  detail::record(Op::kStore, x.id);
}

inline vec_float4 vec_load(const float* p) {
  vec_float4 r{{p[0], p[1], p[2], p[3]}, detail::record(Op::kLoad)};
  return r;
}

inline void vec_store(float* p, const vec_float4& x) {
  for (int i = 0; i < 4; ++i) p[i] = x.v[i];
  detail::record(Op::kStore, x.id);
}

// ---------------------------------------------------------------------------
// Explicit loop-overhead markers. Scalar address arithmetic and loop
// branches still occupy issue slots on the real SPU; kernels call
// these so the recorded trace carries that overhead with the correct
// pipe assignment.
// ---------------------------------------------------------------------------

/// Records @p n fixed-point (even pipe) instructions.
inline void mark_fixed(int n = 1) {
  for (int i = 0; i < n; ++i) detail::record(Op::kFixed);
}

/// Records @p n even-pipe DP arithmetic slots without dataflow (used to
/// represent rarely-taken scalar cleanup such as the fixup re-solve).
inline void mark_double_op(int n = 1) {
  for (int i = 0; i < n; ++i) detail::record(Op::kFmaDouble);
}

/// Builds a vector from scalars of *different* I-lines (the transposed
/// access of the recursion phase): one shufb. The quadword loads that
/// feed the shuffles are amortized over the lanes a quadword holds;
/// kernels record them separately with mark_pack_loads().
inline vec_double2 vec_pack(double a, double b) {
  vec_double2 r{{a, b}, detail::record(Op::kShuffle)};
  return r;
}

inline vec_float4 vec_pack(float a, float b, float c, float d) {
  detail::record(Op::kShuffle);
  vec_float4 r{{a, b, c, d}, detail::record(Op::kShuffle)};
  return r;
}

/// Records the @p n quadword loads feeding a batch of vec_pack calls
/// (issued ahead of the shuffles by a scheduling compiler, so they are
/// recorded without dependencies).
inline void mark_pack_loads(int n) {
  for (int i = 0; i < n; ++i) detail::record(Op::kLoad);
}

/// Extracts one lane to scalar storage (a rotqby + store on the SPU).
inline double vec_extract(const vec_double2& v, int lane) {
  detail::record(Op::kShuffle, v.id);
  return v.v[lane];
}

inline float vec_extract(const vec_float4& v, int lane) {
  detail::record(Op::kShuffle, v.id);
  return v.v[lane];
}

/// Records a loop-closing branch. Correctly hinted branches cost one
/// odd-pipe slot; unhinted ones flush the fetch pipeline.
inline void mark_branch(bool hinted = true) {
  detail::record(hinted ? Op::kBranch : Op::kBranchMiss);
}

/// Records @p n odd-pipe store slots (scalar writebacks of unpacked
/// lanes go through stqd like everything else).
inline void mark_store(int n = 1) {
  for (int i = 0; i < n; ++i) detail::record(Op::kStore);
}

}  // namespace cellsweep::spu
