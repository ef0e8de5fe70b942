#include "sweep/sweeper.h"

#include <algorithm>
#include <stdexcept>

#include "sweep/plan.h"

namespace cellsweep::sweep {
namespace {

// Octant index bit layout in all_octants(): bit a flips the sweep
// direction along axis a (verified by a unit test), so the mirror
// octant across a face of axis a is iq ^ (1 << a). Face f lies on axis
// f / 2, on its positive side when f is odd; f ^ 1 is the opposite
// face.
constexpr int mirror_octant(int iq, int face) {
  return iq ^ (1 << (face / 2));
}

constexpr double LeakageTally::*kFaceTally[6] = {
    &LeakageTally::west,  &LeakageTally::east,   &LeakageTally::north,
    &LeakageTally::south, &LeakageTally::bottom, &LeakageTally::top};

}  // namespace

void SweepConfig::validate(int kt, int mm) const {
  if (mk < 1 || kt % mk != 0)
    throw std::invalid_argument("SweepConfig: MK must factor KT");
  if (mmi < 1 || mm % mmi != 0)
    throw std::invalid_argument("SweepConfig: MMI must factor the angle count");
  if (max_iterations < 1)
    throw std::invalid_argument("SweepConfig: need at least one iteration");
  if (fixup_from_iteration < 0)
    throw std::invalid_argument("SweepConfig: fixup_from_iteration >= 0");
}

template <typename Real>
SweepState<Real>::SweepState(const Problem& problem, const SnQuadrature& quad,
                             int l_max, int nm_cap)
    : problem_(&problem),
      quad_(&quad),
      moments_(quad, l_max, nm_cap),
      sigt_(problem.grid()),
      qext_(problem.grid()),
      flux_(problem.grid(), moments_.nm()),
      src_(problem.grid(), moments_.nm()) {
  const Grid& g = problem.grid();
  const int mm = quad.angles_per_octant();
  const int nm = moments_.nm();

  // Per-cell cross sections and external source, padded-row layout.
  cell_material_.resize(g.cells());
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i) {
        const Material& mat = problem.material_of(i, j, k);
        sigt_.at(k, j, i) = static_cast<Real>(mat.sigma_t);
        qext_.at(k, j, i) = static_cast<Real>(mat.q_ext);
        cell_material_[g.index(i, j, k)] = problem.material_index(i, j, k);
      }

  // Per-material source-moment coefficients (2l+1) * sigma_s,l mapped
  // onto the moment index.
  sigma_s_.resize(problem.materials().size());
  for (std::size_t m = 0; m < problem.materials().size(); ++m) {
    const auto& mat = problem.materials()[m];
    sigma_s_[m].assign(nm, Real(0));
    for (int n = 0; n < nm; ++n) {
      const int l = moments_.moment_order(n);
      if (l < static_cast<int>(mat.sigma_s.size()))
        sigma_s_[m][n] =
            static_cast<Real>((2.0 * l + 1.0) * mat.sigma_s[l]);
    }
  }

  // Kernel constants per (octant, angle).
  angle_consts_.resize(8 * static_cast<std::size_t>(mm));
  for (int iq = 0; iq < 8; ++iq) {
    const double* pn = moments_.pn(iq);
    for (int m = 0; m < mm; ++m) {
      const Ordinate& o = quad.octant_ordinates()[m];
      AngleConsts& c = angle_consts_[iq * mm + m];
      c.ci = static_cast<Real>(2.0 * o.mu / g.dx);
      c.cj = static_cast<Real>(2.0 * o.eta / g.dy);
      c.ck = static_cast<Real>(2.0 * o.xi / g.dz);
      c.pn_src.resize(nm);
      c.pn_acc.resize(nm);
      for (int n = 0; n < nm; ++n) {
        c.pn_src[n] = static_cast<Real>(pn[m * nm + n]);
        c.pn_acc[n] = static_cast<Real>(o.w * pn[m * nm + n]);
      }
    }
  }

  // Face arrays sized for the largest legal blocking (mk = kt, mmi = mm).
  const std::size_t it_pad = flux_.it_padded();
  phi_k_face_.assign(static_cast<std::size_t>(mm) * g.jt * it_pad, Real(0));
  phi_j_face_.assign(static_cast<std::size_t>(mm) * g.kt * it_pad, Real(0));
  phi_i_face_.assign(static_cast<std::size_t>(mm) * g.kt * g.jt, Real(0));

  if (problem.any_reflective()) {
    refl_i_.assign(2ull * 8 * mm * g.kt * g.jt, Real(0));
    refl_j_.assign(2ull * 8 * mm * g.kt * it_pad, Real(0));
    refl_k_.assign(2ull * 8 * mm * g.jt * it_pad, Real(0));
  }
}

template <typename Real>
void SweepState<Real>::build_source() {
  const Grid& g = problem_->grid();
  const int nm = moments_.nm();
  for (int n = 0; n < nm; ++n)
    for (int k = 0; k < g.kt; ++k)
      for (int j = 0; j < g.jt; ++j) {
        const Real* fl = flux_.line(n, k, j);
        Real* sl = src_.line(n, k, j);
        const Real* ql = qext_.line(k, j);
        const std::uint8_t* mat =
            cell_material_.data() + g.index(0, j, k);
        if (n == 0) {
          for (int i = 0; i < g.it; ++i)
            sl[i] = sigma_s_[mat[i]][0] * fl[i] + ql[i];
        } else {
          for (int i = 0; i < g.it; ++i)
            sl[i] = sigma_s_[mat[i]][n] * fl[i];
        }
      }
}

template <typename Real>
void SweepState<Real>::sweep_block(const SweepConfig& cfg, bool fixup, int iq,
                                   int ab, int kb,
                                   const DiagonalObserver& observer,
                                   SweepRunStats& stats) {
  const Grid& g = problem_->grid();
  const Octant oct = all_octants()[iq];
  const int mm = quad_->angles_per_octant();
  const int it_pad = flux_.it_padded();
  const std::int64_t mstride = flux_.moment_stride();
  const BlockCtx ctx{iq, ab, kb, cfg.mmi, cfg.mk, g.jt, g.it};

  // Block inflows, I (one scalar per line) and J (one row per (m,kk)):
  // from the upstream rank, else by the domain face's rule. The block
  // leaves through the opposite faces.
  const int face_i = oct.sx > 0 ? kFaceWest : kFaceEast;
  const int face_j = oct.sy > 0 ? kFaceNorth : kFaceSouth;
  if (!(boundary_ && boundary_->fetch_i_inflow(ctx, phi_i_face_.data())))
    domain_face(face_i, ctx, /*exit=*/false);
  if (!(boundary_ &&
        boundary_->fetch_j_inflow(ctx, phi_j_face_.data(), it_pad)))
    domain_face(face_j, ctx, /*exit=*/false);

  const int ndiags = ChunkPlan::diagonals_per_block(cfg, g.jt);

  for (int d = 0; d < ndiags; ++d) {
    const ChunkPlan plan(cfg, g.jt, d);

    // Materialize the plan's line coordinates into kernel arguments.
    // Every line writes disjoint flux rows and face entries (distinct
    // (mh, kk) pairs, hence distinct j and jj), so the chunks below may
    // run concurrently.
    diag_args_.resize(plan.nlines());
    for (int l = 0; l < plan.nlines(); ++l) {
      const LineCoord& lc = plan.lines()[l];
      const int m = ab * cfg.mmi + lc.mh;
      const int j = oct.sy > 0 ? lc.jj : g.jt - 1 - lc.jj;
      const int kl = kb * cfg.mk + lc.kk;  // logical plane along sweep
      const int k = oct.sz > 0 ? kl : g.kt - 1 - kl;
      const AngleConsts& ac = angle_consts_[iq * mm + m];

      LineArgs<Real>& a = diag_args_[l];
      a.it = g.it;
      a.dir = oct.sx;
      a.sigt = sigt_.line(k, j);
      a.src = src_.line(0, k, j);
      a.flux = flux_.line(0, k, j);
      a.mstride = mstride;
      a.pn_src = ac.pn_src.data();
      a.pn_acc = ac.pn_acc.data();
      a.nm = moments_.nm();
      a.ci = ac.ci;
      a.cj = ac.cj;
      a.ck = ac.ck;
      a.phi_j = phi_j_face_.data() +
                (static_cast<std::size_t>(lc.mh) * cfg.mk + lc.kk) * it_pad;
      a.phi_k = phi_k_face_.data() +
                (static_cast<std::size_t>(lc.mh) * g.jt + j) * it_pad;
      a.phi_i = phi_i_face_.data() +
                (static_cast<std::size_t>(lc.mh) * cfg.mk + lc.kk) * g.jt +
                lc.jj;
    }

    // Both kernel kinds solve with the chunk kernel (see KernelKind).
    const auto run_chunk = [&](int c, int worker) {
      const ChunkDesc& ch = plan.chunks()[c];
      WorkerSlot& w = workers_[worker];
      sweep_chunk(&diag_args_[ch.first_line], ch.nlines, fixup,
                  w.scratch.data(), &w.stats);
    };
    const int nchunks = static_cast<int>(plan.chunks().size());
    if (active_pool_) {
      active_pool_->parallel_for(nchunks, run_chunk);
    } else {
      for (int c = 0; c < nchunks; ++c) run_chunk(c, 0);
    }

    stats.chunks += nchunks;
    stats.lines += plan.nlines();
    if (observer) {
      observer(DiagonalWork{iq, ab, kb, d, plan.nlines(), g.it, fixup,
                            cfg.kernel});
    }
  }

  // Block outflows: to the downstream rank, else by the domain face's
  // rule.
  if (!(boundary_ && boundary_->emit_i_outflow(ctx, phi_i_face_.data())))
    domain_face(face_i ^ 1, ctx, /*exit=*/true);
  if (!(boundary_ &&
        boundary_->emit_j_outflow(ctx, phi_j_face_.data(), it_pad)))
    domain_face(face_j ^ 1, ctx, /*exit=*/true);
}

template <typename Real>
typename SweepState<Real>::FaceBlock SweepState<Real>::face_block(
    int face, const BlockCtx& ctx) {
  const int it_pad = flux_.it_padded();
  switch (face / 2) {
    case 0: return {phi_i_face_.data(), ctx.mk, ctx.jt, ctx.jt};
    case 1: return {phi_j_face_.data(), ctx.mk, ctx.it, it_pad};
    default: return {phi_k_face_.data(), ctx.jt, ctx.it, it_pad};
  }
}

template <typename Real>
void SweepState<Real>::domain_face(int face, const BlockCtx& ctx,
                                   bool exit) {
  if (problem_->boundary(face) == FaceBc::kReflective) {
    if (face / 2 == 0)
      reflect_i(face, ctx, exit);
    else
      reflect_rows(face, ctx, exit);
  } else if (exit) {
    tally_leakage(face, ctx);
  } else {
    const FaceBlock b = face_block(face, ctx);
    std::fill_n(b.data, static_cast<std::size_t>(ctx.mmi) * b.rows * b.stride,
                Real(0));
  }
}

template <typename Real>
void SweepState<Real>::tally_leakage(int face, const BlockCtx& ctx) {
  // Per angle: the rows' sum, times w * cosine * face area.
  const Grid& g = problem_->grid();
  const FaceBlock b = face_block(face, ctx);
  const int axis = face / 2;
  const double area =
      axis == 0 ? g.dy * g.dz : axis == 1 ? g.dx * g.dz : g.dx * g.dy;
  double leak = 0.0;
  for (int mh = 0; mh < ctx.mmi; ++mh) {
    const Ordinate& o =
        quad_->octant_ordinates()[ctx.ablock * ctx.mmi + mh];
    const double cosine = axis == 0 ? o.mu : axis == 1 ? o.eta : o.xi;
    double sum = 0.0;
    for (int r = 0; r < b.rows; ++r) {
      const Real* row =
          b.data + (static_cast<std::size_t>(mh) * b.rows + r) * b.stride;
      for (int e = 0; e < b.len; ++e) sum += static_cast<double>(row[e]);
    }
    leak += o.w * cosine * area * sum;
  }
  leakage_.*kFaceTally[face] += leak;
}

template <typename Real>
Real* SweepState<Real>::refl_slab(int face, int writer, int m) {
  const Grid& g = problem_->grid();
  const std::size_t it_pad = flux_.it_padded();
  const int axis = face / 2;
  util::AlignedVector<Real>& store =
      axis == 0 ? refl_i_ : axis == 1 ? refl_j_ : refl_k_;
  const std::size_t slab = axis == 0 ? static_cast<std::size_t>(g.kt) * g.jt
                           : axis == 1 ? g.kt * it_pad
                                       : g.jt * it_pad;
  return store.data() +
         ((static_cast<std::size_t>(face & 1) * 8 + writer) *
              quad_->angles_per_octant() + m) * slab;
}

template <typename Real>
void SweepState<Real>::reflect_i(int face, const BlockCtx& ctx, bool exit) {
  const Grid& g = problem_->grid();
  const Octant oct = all_octants()[ctx.octant];
  const int writer = exit ? ctx.octant : mirror_octant(ctx.octant, face);
  for (int mh = 0; mh < ctx.mmi; ++mh) {
    Real* slab = refl_slab(face, writer, ctx.ablock * ctx.mmi + mh);
    for (int kk = 0; kk < ctx.mk; ++kk) {
      const int kl = ctx.kblock * ctx.mk + kk;
      const int k = oct.sz > 0 ? kl : g.kt - 1 - kl;
      Real* line = phi_i_face_.data() +
                   (static_cast<std::size_t>(mh) * ctx.mk + kk) * g.jt;
      for (int jj = 0; jj < g.jt; ++jj) {
        const int j = oct.sy > 0 ? jj : g.jt - 1 - jj;
        Real& stored = slab[k * g.jt + j];
        if (exit)
          stored = line[jj];
        else
          line[jj] = stored;
      }
    }
  }
}

template <typename Real>
void SweepState<Real>::reflect_rows(int face, const BlockCtx& ctx,
                                    bool exit) {
  // A J-face row is a K plane along the sweep (stored by global k); a
  // K-face row is a J line (stored in place).
  const Grid& g = problem_->grid();
  const FaceBlock b = face_block(face, ctx);
  const bool k_face = face / 2 == 2;
  const bool k_down = all_octants()[ctx.octant].sz < 0;
  const int writer = exit ? ctx.octant : mirror_octant(ctx.octant, face);
  for (int mh = 0; mh < ctx.mmi; ++mh) {
    Real* slab = refl_slab(face, writer, ctx.ablock * ctx.mmi + mh);
    for (int r = 0; r < b.rows; ++r) {
      const int kl = ctx.kblock * ctx.mk + r;
      const int sr = k_face ? r : k_down ? g.kt - 1 - kl : kl;
      Real* stored = slab + static_cast<std::size_t>(sr) * b.stride;
      Real* row =
          b.data + (static_cast<std::size_t>(mh) * b.rows + r) * b.stride;
      if (exit)
        std::copy_n(row, b.stride, stored);
      else
        std::copy_n(stored, b.stride, row);
    }
  }
}

template <typename Real>
SweepRunStats SweepState<Real>::sweep(const SweepConfig& cfg, bool fixup,
                                      const DiagonalObserver& observer) {
  const Grid& g = problem_->grid();
  const int mm = quad_->angles_per_octant();
  cfg.validate(g.kt, mm);

  // Host executor: cfg.pool when it is wider than one worker, else
  // inline. One slot (kernel counters + chunk scratch) per worker.
  active_pool_ =
      cfg.pool != nullptr && cfg.pool->size() > 1 ? cfg.pool : nullptr;
  workers_.resize(active_pool_ != nullptr ? active_pool_->size() : 1);
  for (WorkerSlot& w : workers_) {
    w.stats = KernelStats{};
    w.scratch.resize(chunk_scratch_reals(g.it));
  }

  flux_.fill(Real(0));
  SweepRunStats stats;
  const int nkb = g.kt / cfg.mk;
  const int nab = mm / cfg.mmi;

  for (int iq = 0; iq < 8; ++iq) {
    const int face_k = all_octants()[iq].sz > 0 ? kFaceBottom : kFaceTop;
    for (int ab = 0; ab < nab; ++ab) {
      // K is never decomposed: both K faces are always domain faces.
      const BlockCtx ctx{iq, ab, 0, cfg.mmi, cfg.mk, g.jt, g.it};
      domain_face(face_k, ctx, /*exit=*/false);
      for (int kb = 0; kb < nkb; ++kb)
        sweep_block(cfg, fixup, iq, ab, kb, observer, stats);
      domain_face(face_k ^ 1, ctx, /*exit=*/true);
    }
  }

  // Fold the per-worker kernel counters (fixed order, so totals are
  // deterministic regardless of the parallel schedule).
  for (const WorkerSlot& w : workers_) {
    stats.cells += w.stats.cells;
    stats.fixup_cells += w.stats.fixups_applied;
  }
  return stats;
}

template <typename Real>
double SweepState<Real>::absorption_rate() const {
  const Grid& g = problem_->grid();
  double total = 0.0;
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j) {
      const Real* fl = flux_.line(0, k, j);
      for (int i = 0; i < g.it; ++i) {
        const Material& mat = problem_->material_of(i, j, k);
        total += (mat.sigma_t - mat.sigma_s[0]) *
                 static_cast<double>(fl[i]);
      }
    }
  return total * g.cell_volume();
}

template <typename Real>
SolveResult solve_source_iteration(SweepState<Real>& state,
                                   const SweepConfig& cfg,
                                   const DiagonalObserver& observer) {
  const Grid& g = state.problem().grid();
  MomentField<Real> previous(g, state.nm());
  SolveResult result;
  double prev_change = 0.0;

  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    // Snapshot for the convergence metric.
    previous = state.flux();
    state.build_source();
    state.reset_leakage();
    const bool fixup = iter >= cfg.fixup_from_iteration;
    const SweepRunStats s = state.sweep(cfg, fixup, observer);
    result.totals.lines += s.lines;
    result.totals.chunks += s.chunks;
    result.totals.cells += s.cells;
    result.totals.fixup_cells += s.fixup_cells;
    ++result.iterations;
    result.final_change = state.flux_change(previous);
    if (cfg.epsilon > 0.0 && result.final_change < cfg.epsilon) {
      result.converged = true;
      break;
    }

    // Error-mode acceleration: every third iteration (so the two
    // change norms feeding the ratio are both un-extrapolated sweeps),
    // estimate the dominant mode's spectral radius and extrapolate it
    // away. Effective when source iteration is slow (rho -> c as the
    // scattering ratio c -> 1).
    if (cfg.accelerate && iter % 3 == 2 && prev_change > 0.0) {
      const double rho = result.final_change / prev_change;
      if (rho > 0.2 && rho < 0.995) {
        const Real factor = static_cast<Real>(rho / (1.0 - rho));
        state.flux().extrapolate_from(previous, factor);
      }
    }
    prev_change = result.final_change;
  }
  return result;
}

template class SweepState<double>;
template class SweepState<float>;
template SolveResult solve_source_iteration<double>(SweepState<double>&,
                                                    const SweepConfig&,
                                                    const DiagonalObserver&);
template SolveResult solve_source_iteration<float>(SweepState<float>&,
                                                   const SweepConfig&,
                                                   const DiagonalObserver&);

}  // namespace cellsweep::sweep
