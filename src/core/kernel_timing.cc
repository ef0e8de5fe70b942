#include "core/kernel_timing.h"

#include <vector>

#include "sweep/kernel.h"
#include "sweep/kernel_simd.h"
#include "util/aligned.h"

namespace cellsweep::core {
namespace {

/// Synthetic line data for trace recording. With @p force_fixups the
/// cell is optically thick with strong inflows and no source, so every
/// outflow goes negative and the fixup path runs at full cost.
template <typename Real>
struct SyntheticLines {
  SyntheticLines(int nlines, int it, int nm, bool force_fixups) {
    const std::size_t pad = util::padded_extent<Real>(it);
    const Real sigt_v = force_fixups ? Real(50) : Real(1);
    const Real face_v = force_fixups ? Real(10) : Real(0.1);
    const Real src_v = force_fixups ? Real(0) : Real(1);

    src.assign(static_cast<std::size_t>(nm) * pad, src_v);
    flux.assign(static_cast<std::size_t>(nm) * pad * nlines, Real(0));
    sigt.assign(pad, sigt_v);
    pn_src.assign(nm, Real(0.5));
    pn_acc.assign(nm, Real(0.05));
    for (int l = 0; l < nlines; ++l) {
      phi_j[l].assign(pad, face_v);
      phi_k[l].assign(pad, face_v);
      phi_i[l] = face_v;
    }

    args.resize(nlines);
    for (int l = 0; l < nlines; ++l) {
      sweep::LineArgs<Real>& a = args[l];
      a.it = it;
      a.dir = +1;
      a.sigt = sigt.data();
      a.src = src.data();
      a.flux = flux.data() + static_cast<std::size_t>(l) * nm * pad;
      a.mstride = static_cast<std::int64_t>(pad);
      a.pn_src = pn_src.data();
      a.pn_acc = pn_acc.data();
      a.nm = nm;
      a.ci = Real(10);
      a.cj = Real(10);
      a.ck = Real(10);
      a.phi_j = phi_j[l].data();
      a.phi_k = phi_k[l].data();
      a.phi_i = &phi_i[l];
    }
  }

  util::AlignedVector<Real> src, flux, sigt;
  std::vector<Real> pn_src, pn_acc;
  util::AlignedVector<Real> phi_j[sweep::kBundleLines],
      phi_k[sweep::kBundleLines];
  Real phi_i[sweep::kBundleLines] = {};
  std::vector<sweep::LineArgs<Real>> args;
};

template <typename Real>
spu::Trace record_simd_impl(int nlines, int it, int nm, bool fixup) {
  SyntheticLines<Real> data(nlines, it, nm, /*force_fixups=*/fixup);
  sweep::BundleScratch<Real> scratch(it);
  spu::TraceRecorder rec;
  sweep::sweep_bundle_simd(data.args.data(), nlines, fixup, scratch, nullptr);
  return rec.take_trace();
}

/// Synthesizes the scalar SPE code's instruction stream for one cell.
///
/// Two architecture facts dominate scalar-on-SPU cost and are modeled
/// faithfully here:
///  * The SPU has no scalar memory access. Every scalar load is
///    lqd + rotqby (load + shuffle, dependent); every scalar store is a
///    quadword read-modify-write: lqd + shufb(insert) + stqd.
///  * Unscheduled scalar code keeps its true dependency chains: each
///    DP op waits ~13 cycles for its predecessor, and issuing any DP op
///    stalls both pipes for 7 (the partial-pipelining rule).
/// Together these explain why the initial scalar SPE port is barely
/// faster per core than the PPE (Fig. 5's 3.55 s stage).
template <typename Real>
void record_scalar_cell(spu::TraceRecorder& rec, int nm, bool fixup,
                        bool gotos_eliminated, spu::ValueId& carry_i) {
  constexpr bool kDp = sizeof(Real) == 8;
  const spu::Op fma = kDp ? spu::Op::kFmaDouble : spu::Op::kFmaSingle;
  const spu::Op add = kDp ? spu::Op::kAddDouble : spu::Op::kAddSingle;
  const spu::Op mul = kDp ? spu::Op::kMulDouble : spu::Op::kMulSingle;
  const spu::Op cmp = kDp ? spu::Op::kCmpDouble : spu::Op::kCmpSingle;

  // Scalar access helpers (see file comment).
  auto scalar_load = [&]() {
    const spu::ValueId lq = rec.record(spu::Op::kLoad);
    return rec.record(spu::Op::kShuffle, lq);  // rotqby to the slot
  };
  auto scalar_store = [&](spu::ValueId v) {
    const spu::ValueId lq = rec.record(spu::Op::kLoad);  // RMW read
    const spu::ValueId merged = rec.record(spu::Op::kShuffle, v, lq);
    rec.record(spu::Op::kStore, merged);
  };

  // Address arithmetic for the strided moment accesses.
  rec.record(spu::Op::kFixed);
  rec.record(spu::Op::kFixed);

  // q = sum_n pn[n] * src[n][i]: serial accumulate; naive code reloads
  // the pn coefficient each round.
  spu::ValueId q = spu::kNoValue;
  for (int n = 0; n < nm; ++n) {
    rec.record(spu::Op::kFixed);  // index computation n*mstride + i
    const spu::ValueId pn = scalar_load();
    const spu::ValueId sv = scalar_load();
    const spu::ValueId prod =
        rec.record(mul, pn, sv, spu::kNoValue, 1);
    q = rec.record(add, prod, q, spu::kNoValue, 1);
  }

  // Face loads and the numerator chain.
  const spu::ValueId lj = scalar_load();
  const spu::ValueId lk = scalar_load();
  const spu::ValueId lt = scalar_load();  // sigma_t
  spu::ValueId num = rec.record(fma, carry_i, q, spu::kNoValue, 2);
  num = rec.record(fma, lj, num, spu::kNoValue, 2);
  num = rec.record(fma, lk, num, spu::kNoValue, 2);
  // Denominator chain.
  spu::ValueId den = rec.record(add, lt, spu::kNoValue, spu::kNoValue, 1);
  den = rec.record(add, den, spu::kNoValue, spu::kNoValue, 1);
  den = rec.record(add, den, spu::kNoValue, spu::kNoValue, 1);

  // Divide: reciprocal estimate + Newton refinement, fully serial.
  spu::ValueId est = rec.record(spu::Op::kShuffle, den);
  const int newton = kDp ? 2 : 1;
  for (int s = 0; s < newton; ++s) {
    est = rec.record(mul, den, est, spu::kNoValue, 1);
    est = rec.record(fma, est, est, est, 2);
  }
  const spu::ValueId phi = rec.record(mul, num, est, spu::kNoValue, 1);

  // Outflows (serial on phi), then quadword-RMW face stores.
  carry_i = rec.record(fma, phi, phi, spu::kNoValue, 2);
  const spu::ValueId oj = rec.record(fma, phi, lj, spu::kNoValue, 2);
  const spu::ValueId ok = rec.record(fma, phi, lk, spu::kNoValue, 2);
  scalar_store(oj);
  scalar_store(ok);
  // Register pressure in the unscheduled code spills the I-recurrence
  // carry and the source sum around the accumulation loop.
  scalar_store(carry_i);
  scalar_store(q);
  scalar_store(phi);
  rec.record(spu::Op::kFixed);
  (void)scalar_load();
  (void)scalar_load();
  carry_i = scalar_load();

  if (fixup) {
    // Sign tests on all three outflows plus the (rarely taken) branch.
    rec.record(cmp, carry_i);
    rec.record(cmp, oj);
    rec.record(cmp, ok);
    rec.record(spu::Op::kFixed);
    rec.record(gotos_eliminated ? spu::Op::kBranch : spu::Op::kBranchMiss);
  }

  // Flux accumulation: per moment scalar load -> fma -> RMW store.
  for (int n = 0; n < nm; ++n) {
    rec.record(spu::Op::kFixed);
    const spu::ValueId pa = scalar_load();
    const spu::ValueId lf = scalar_load();
    const spu::ValueId f = rec.record(fma, pa, phi, lf, 2);
    scalar_store(f);
  }

  // Loop bookkeeping: induction update, compare and the loop branch.
  // The unoptimized port's control flow (Fortran-derived gotos) defeats
  // the branch hinter; the optimized one is a single hinted branch.
  rec.record(spu::Op::kFixed);
  rec.record(spu::Op::kFixed);
  if (gotos_eliminated) {
    rec.record(spu::Op::kBranch);
  } else {
    // Fortran-derived control flow: computed-goto ladders at the loop
    // tail and inside the flow tests -- seven unhintable branches per
    // cell, each flushing the fetch pipeline.
    for (int b = 0; b < 7; ++b) rec.record(spu::Op::kBranchMiss);
    rec.record(spu::Op::kBranch);
  }
}

template <typename Real>
spu::Trace record_scalar_impl(int nlines, int it, int nm, bool fixup,
                              bool gotos_eliminated) {
  spu::TraceRecorder rec;
  for (int l = 0; l < nlines; ++l) {
    spu::ValueId carry_i = spu::kNoValue;
    for (int i = 0; i < it; ++i)
      record_scalar_cell<Real>(rec, nm, fixup, gotos_eliminated, carry_i);
    // Per-line epilogue.
    rec.record(spu::Op::kFixed);
    rec.record(spu::Op::kBranch);
  }
  return rec.take_trace();
}

}  // namespace

spu::Trace record_simd_chunk_trace(Precision precision, int nlines, int it,
                                   int nm, bool fixup) {
  return precision == Precision::kDouble
             ? record_simd_impl<double>(nlines, it, nm, fixup)
             : record_simd_impl<float>(nlines, it, nm, fixup);
}

spu::Trace record_scalar_chunk_trace(Precision precision, int nlines, int it,
                                     int nm, bool fixup,
                                     bool gotos_eliminated) {
  return precision == Precision::kDouble
             ? record_scalar_impl<double>(nlines, it, nm, fixup,
                                          gotos_eliminated)
             : record_scalar_impl<float>(nlines, it, nm, fixup,
                                         gotos_eliminated);
}

cell::ScheduleResult KernelCostModel::schedule_simd_chunk(
    Precision precision, int nlines, int it, int nm, bool fixup,
    spu::Trace* out_trace) const {
  spu::Trace trace = record_simd_chunk_trace(precision, nlines, it, nm, fixup);
  const cell::ScheduleResult r = pipeline_.schedule(trace);
  if (out_trace) *out_trace = std::move(trace);
  return r;
}

cell::ScheduleResult KernelCostModel::schedule_scalar_chunk(
    Precision precision, int nlines, int it, int nm, bool fixup,
    bool gotos_eliminated, spu::Trace* out_trace) const {
  spu::Trace trace =
      record_scalar_chunk_trace(precision, nlines, it, nm, fixup,
                                gotos_eliminated);
  const cell::ScheduleResult r = pipeline_.schedule(trace);
  if (out_trace) *out_trace = std::move(trace);
  return r;
}

const ChunkCost& KernelCostModel::chunk_cost(sweep::KernelKind kind,
                                             Precision precision, int nlines,
                                             int it, int nm, bool fixup,
                                             bool gotos_eliminated,
                                             bool* priced) const {
  const Key key{static_cast<int>(kind), static_cast<int>(precision), nlines,
                it, nm, fixup, gotos_eliminated};
  // Pricing runs under the lock, so a shape that several threads miss
  // at once is still priced once. std::map nodes never move: the
  // returned reference outlives the lock.
  util::MutexLock lock(mu_);
  auto it_cache = cache_.find(key);
  if (priced != nullptr) *priced = it_cache == cache_.end();
  if (it_cache != cache_.end()) return it_cache->second;

  const cell::ScheduleResult sched =
      kind == sweep::KernelKind::kSimd
          ? schedule_simd_chunk(precision, nlines, it, nm, fixup)
          : schedule_scalar_chunk(precision, nlines, it, nm, fixup,
                                  gotos_eliminated);
  ChunkCost cost;
  cost.cycles = static_cast<double>(sched.cycles);
  cost.flops = sched.flops;
  cost.instructions = sched.instructions;
  cost.dual_issues = sched.dual_issues;
  cost.stats += sched;
  return cache_.emplace(key, cost).first->second;
}

}  // namespace cellsweep::core
