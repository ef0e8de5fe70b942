// The sweep() driver: octant loop, angle-pipelining loop, K-plane
// pipelining loop, JK-diagonal loop, I-line solves (paper, Figure 2).
//
// SweepState owns the flux/source moment fields and the wavefront face
// arrays, and walks the exact loop structure of Sweep3D's sweep()
// subroutine: blocks of MK K-planes and MMI angles are processed as
// JK-diagonals, and all I-lines on one diagonal are independent -- the
// property the Cell port's thread-level parallelization relies on
// (Section 4, level 2). Each diagonal's decomposition into chunks comes
// from the shared ChunkPlan layer (sweep/plan.h); on a SweepConfig::pool
// wider than one worker the chunks of a diagonal execute in parallel
// (every I-line writes disjoint flux cells and face entries, so the
// result is bitwise identical to the serial run).
// A DiagonalObserver hook exposes each diagonal's work list so the Cell
// orchestrator (src/core) can replay the same stream through the
// machine model. SweepState applies the domain-face rules (vacuum
// leakage, reflective mirror storage); a BoundaryIO hook only exchanges
// the block faces shared with another rank, so the MPI-level
// decomposition (src/sweep/mpi_sweeper) runs sweep() and
// solve_source_iteration unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sweep/field.h"
#include "sweep/kernel.h"
#include "sweep/problem.h"
#include "sweep/quadrature.h"
#include "util/aligned.h"
#include "util/thread_pool.h"

namespace cellsweep::sweep {

/// Which SPE chunk kernel the timing model prices
/// (DiagonalWork::kernel -> core::KernelCostModel::chunk_cost). The
/// functional sweep solves every chunk with sweep_chunk for either
/// kind: all three kernels give bit-identical flux, so the emulated
/// SIMD bundle kernel runs only where its instruction trace is
/// recorded.
enum class KernelKind : std::uint8_t {
  kScalar,  ///< Figure 8 scalar code (PPE / pre-SIMD SPE path)
  kSimd,    ///< Figure 7 four-logical-thread SIMD bundles
};

/// Blocking and iteration parameters (Sweep3D input-deck equivalents).
struct SweepConfig {
  KernelKind kernel = KernelKind::kSimd;  ///< SPE kernel the timing prices
  int mk = 10;   ///< K-planes per pipeline block (must divide kt)
  int mmi = 3;   ///< angles per pipeline block (paper: "MMI is 1 or 3")
  int max_iterations = 12;
  double epsilon = 0.0;  ///< >0: stop when max flux change < epsilon
  /// Iterations >= this index (0-based) run with negative-flux fixups,
  /// like the classic deck's last iterations.
  int fixup_from_iteration = 10;
  /// Error-mode extrapolation of source iteration: once the change
  /// ratio stabilizes, the dominant error mode (spectral radius ~= the
  /// scattering ratio) is extrapolated away. Big win on strongly
  /// scattering problems; off by default to match the classic deck.
  bool accelerate = false;
  /// Host pool the functional sweep runs a diagonal's chunks on
  /// (non-owning; the solve server shares one across its tenants,
  /// deck_runner --threads builds one). Null, or a pool of width 1,
  /// runs them inline. Purely a host-side execution knob: results are
  /// bitwise identical for any width, and simulated Cell timing never
  /// depends on it.
  util::ThreadPool* pool = nullptr;

  void validate(int kt, int mm) const;
};

/// The largest MK in [1, @p cap] that divides @p kt (1 when @p cap < 1):
/// the K blocking a deck without `mk`, the benches and the examples
/// pick.
inline int largest_mk(int kt, int cap) {
  for (int mk = cap; mk > 1; --mk)
    if (kt % mk == 0) return mk;
  return 1;
}

/// One JK-diagonal's worth of independent I-lines, as exposed to the
/// orchestrator. `nlines` I-lines of length `it` may run in parallel.
struct DiagonalWork {
  int octant = 0;
  int ablock = 0;
  int kblock = 0;
  int diagonal = 0;  ///< jkm index within the block
  int nlines = 0;
  int it = 0;
  bool fixup = false;
  KernelKind kernel = KernelKind::kSimd;  ///< SPE kernel the timing prices

  bool operator==(const DiagonalWork&) const = default;
};

/// Observer of the work stream (timing models attach here).
using DiagonalObserver = std::function<void(const DiagonalWork&)>;

/// Per-block boundary context handed to BoundaryIO.
struct BlockCtx {
  int octant;
  int ablock;
  int kblock;
  int mmi;
  int mk;
  int jt;
  int it;
};

/// Exchanges the block faces shared with a neighboring rank (Figure
/// 2's RECV/SEND). Each face call returns false when the face is a
/// domain face instead; SweepState then applies the domain rule itself,
/// exactly as in a serial run.
template <typename Real>
class BoundaryIO {
 public:
  virtual ~BoundaryIO() = default;

  /// Receives I-inflow scalars, one per line: layout [m][kk][jj].
  virtual bool fetch_i_inflow(const BlockCtx& ctx, Real* phi_i) = 0;
  /// Receives J-inflow rows: layout [m][kk] rows of it_pad reals.
  virtual bool fetch_j_inflow(const BlockCtx& ctx, Real* phi_j,
                              int row_stride) = 0;
  /// Sends I-outflows (same layout as fetch_i_inflow).
  virtual bool emit_i_outflow(const BlockCtx& ctx, const Real* phi_i) = 0;
  /// Sends J-outflows.
  virtual bool emit_j_outflow(const BlockCtx& ctx, const Real* phi_j,
                              int row_stride) = 0;
  /// Max of a per-rank convergence metric over all ranks.
  virtual double global_max(double local) { return local; }
};

/// Leakage tallies for the particle-balance audit (per global face).
struct LeakageTally {
  double west = 0, east = 0, north = 0, south = 0, bottom = 0, top = 0;
  double total() const {
    return west + east + north + south + bottom + top;
  }
};

/// Cumulative statistics of one iteration's sweeps.
struct SweepRunStats {
  std::uint64_t lines = 0;
  std::uint64_t chunks = 0;
  std::uint64_t cells = 0;
  std::uint64_t fixup_cells = 0;
};

/// Per-process sweep state over one (sub)problem.
template <typename Real>
class SweepState {
 public:
  /// @p nm_cap as in MomentTable: 0 keeps the full (l_max+1)^2 moment
  /// set; the benchmark deck uses kBenchmarkMoments.
  SweepState(const Problem& problem, const SnQuadrature& quad, int l_max,
             int nm_cap = 0);

  const Problem& problem() const noexcept { return *problem_; }
  const SnQuadrature& quadrature() const noexcept { return *quad_; }
  const MomentTable& moments() const noexcept { return moments_; }
  int nm() const noexcept { return moments_.nm(); }

  MomentField<Real>& flux() noexcept { return flux_; }
  const MomentField<Real>& flux() const noexcept { return flux_; }
  const MomentField<Real>& source() const noexcept { return src_; }

  /// Builds the source moments from the current flux estimate:
  /// Src[n] = (2 l_n + 1) (sigma_s,l * Flux[n]) + delta_n0 * q_ext.
  void build_source();

  /// Runs one full sweep (all octants/angles) of the streaming
  /// operator, accumulating a fresh flux estimate.
  SweepRunStats sweep(const SweepConfig& cfg, bool fixup,
                      const DiagonalObserver& observer = {});

  /// Installs the rank-face exchange (default none: every face is a
  /// domain face).
  void set_boundary(BoundaryIO<Real>* boundary) noexcept {
    boundary_ = boundary;
  }

  const LeakageTally& leakage() const noexcept { return leakage_; }
  void reset_leakage() noexcept { leakage_ = LeakageTally{}; }

  /// Total absorption rate with the current flux (sigma_a * phi0 * V).
  double absorption_rate() const;

  /// Max |delta flux0| between the current flux and @p previous, over
  /// every rank when a BoundaryIO is installed.
  double flux_change(const MomentField<Real>& previous) const {
    const double local =
        MomentField<Real>::max_abs_diff_moment0(flux_, previous);
    return boundary_ != nullptr ? boundary_->global_max(local) : local;
  }

 private:
  struct AngleConsts {
    Real ci, cj, ck;             // 2|mu|/dx etc.
    std::vector<Real> pn_src;    // nm: R_n(m)
    std::vector<Real> pn_acc;    // nm: w_m * R_n(m)
  };

  void sweep_block(const SweepConfig& cfg, bool fixup, int iq, int ab,
                   int kb, const DiagonalObserver& observer,
                   SweepRunStats& stats);

  // Domain-face rules, applied to every block face that is not shared
  // with another rank.
  /// The wavefront face array on @p face's axis for block @p ctx:
  /// `rows` rows of `len` reals (row stride `stride`) per angle.
  struct FaceBlock {
    Real* data;
    int rows, len, stride;
  };
  FaceBlock face_block(int face, const BlockCtx& ctx);
  /// Inflow (or, when @p exit, outflow) of block @p ctx through domain
  /// face @p face: the mirror octant's stored outflow (stored for the
  /// mirror octant) at a reflective face, zero (tallied as leakage) at
  /// a vacuum one.
  void domain_face(int face, const BlockCtx& ctx, bool exit);
  void tally_leakage(int face, const BlockCtx& ctx);
  /// Reflective store of @p face, slab of (writer octant, angle m).
  Real* refl_slab(int face, int writer, int m);
  /// Copies @p face's block to (@p exit: the octant's own slab) or from
  /// (the mirror octant's slab) the reflective store: the I-face
  /// scalars, or the J- or K-face rows.
  void reflect_i(int face, const BlockCtx& ctx, bool exit);
  void reflect_rows(int face, const BlockCtx& ctx, bool exit);

  const Problem* problem_;
  const SnQuadrature* quad_;
  MomentTable moments_;

  CellField<Real> sigt_;
  CellField<Real> qext_;
  MomentField<Real> flux_;
  MomentField<Real> src_;
  // Scattering moments per material per l (copied for cache locality).
  std::vector<std::vector<Real>> sigma_s_;
  std::vector<std::uint8_t> cell_material_;

  // Precomputed per (octant, angle) kernel constants.
  std::vector<AngleConsts> angle_consts_;  // [8 * mm]

  // Wavefront faces. phi_k persists across K-blocks within one
  // (octant, angle-block); phi_j and phi_i are per-block.
  util::AlignedVector<Real> phi_k_face_;  // [mmi_max][jt][it_pad]
  util::AlignedVector<Real> phi_j_face_;  // [mmi_max][mk_max][it_pad]
  util::AlignedVector<Real> phi_i_face_;  // [mmi_max][mk_max][jt]

  // Specular-reflection storage: boundary angular outflows per face
  // side (0 = negative face, 1 = positive), writer octant and angle.
  // A sweep entering a reflective face reads the mirror octant's
  // stored outflow (same angle index; lagged one iteration when the
  // mirror octant sweeps later in the octant order). Empty when no face
  // is reflective.
  util::AlignedVector<Real> refl_i_;  // [2][8][mm][kt*jt]
  util::AlignedVector<Real> refl_j_;  // [2][8][mm][kt][it_pad]
  util::AlignedVector<Real> refl_k_;  // [2][8][mm][jt][it_pad]

  BoundaryIO<Real>* boundary_ = nullptr;
  LeakageTally leakage_;

  // Host execution resources, set at sweep() entry: the pool this
  // sweep runs on (SweepConfig::pool when wider than one worker, else
  // null: inline) and one slot per worker, each on its own cache line:
  // the worker's KernelStats (race-free counters, summed into
  // SweepRunStats after the sweep) and its sweep_chunk scratch.
  struct alignas(util::kCacheLineBytes) WorkerSlot {
    KernelStats stats;
    util::AlignedVector<Real> scratch;  // chunk_scratch_reals(it)
  };
  util::ThreadPool* active_pool_ = nullptr;
  std::vector<WorkerSlot> workers_;
  std::vector<LineArgs<Real>> diag_args_;  // one diagonal's line args
};

/// Result of a source-iteration solve.
struct SolveResult {
  int iterations = 0;
  double final_change = 0.0;
  bool converged = false;
  SweepRunStats totals;
};

/// Drives source iterations to a fixed count or convergence.
template <typename Real>
SolveResult solve_source_iteration(SweepState<Real>& state,
                                   const SweepConfig& cfg,
                                   const DiagonalObserver& observer = {});

}  // namespace cellsweep::sweep
