#include "core/orchestrator.h"

#include <algorithm>

#include "perfmodel/processors.h"
#include "sweep/plan.h"

namespace cellsweep::core {
namespace {

/// Wavefront dependency of one diagonal's chunk c on the previous
/// diagonal: the lines of chunk c sit one diagonal step from lines
/// covered by the previous diagonal's chunks c-1..c+1; the diagonal
/// tail is gated by the upstream tail. The pipeline's UpstreamView
/// already encodes the dispatch-dependent readiness semantics
/// (completion under centralized dispatch, compute end + atomic hop
/// when distributed).
sim::Tick sweep_dependency(const UpstreamView& u, int c) {
  if (u.ready.empty()) return u.barrier;
  const int n = static_cast<int>(u.ready.size());
  sim::Tick t = u.barrier;
  for (int p = std::max(0, c - 1); p <= std::min(n - 1, c + 1); ++p)
    t = std::max(t, u.ready[p]);
  if (c + 1 >= n) t = std::max(t, u.ready[n - 1]);
  return t + u.hop;
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;

/// Folds one diagonal into a block's stream signature (FNV-1a over the
/// fields its batch depends on; no tick depends on the block's
/// position): a fast-forwarded block must be fed the stream of the
/// block it repeats.
std::uint64_t mix(std::uint64_t h, const sweep::DiagonalWork& w) {
  for (const int v : {w.diagonal, w.nlines, w.it, static_cast<int>(w.fixup),
                      static_cast<int>(w.kernel)})
    h = (h ^ static_cast<std::uint32_t>(v)) * 0x100000001b3ull;
  return h;
}

}  // namespace

LsPlacement sweep_placement(const CellSweepConfig& cfg, int it, int nm) {
  LsPlacement p;
  p.resident.emplace_back("angle-constants", 4 * 1024);
  p.buffer_bytes =
      plan_chunk(ChunkShape{sweep::kBundleLines, it, nm,
                            real_bytes_of(cfg.precision), cfg.aligned_rows})
          .ls_buffer_bytes;
  return p;
}

TimingEngine::TimingEngine(const CellSweepConfig& cfg,
                           const sweep::Grid& grid, int nm)
    : cfg_(cfg),
      grid_(grid),
      nm_(nm),
      kernels_(cfg.warm_kernels),
      pipeline_(cfg, sweep_placement(cfg, grid.it, nm)) {
  // Plan hint: price through a shared, possibly warm cost model (the
  // trace-scheduled chunk costs are the expensive part). Pure
  // memoization -- a cost is a deterministic function of (chip, chunk
  // shape), so shared and own models report byte-identical timing
  // (pinned by a test).
  if (kernels_ == nullptr) kernels_ = &own_kernels_.emplace(cfg.chip);
}

TimingEngine::~TimingEngine() = default;

void TimingEngine::on_diagonal(const sweep::DiagonalWork& w) {
  // Wavefront structure. Within one (octant, angle-block, K-block)
  // block the dependency is per-line: a chunk of this diagonal needs
  // only its neighboring chunks of the previous diagonal (the
  // sweep_dependency policy), so execution pipelines across diagonals.
  // Blocks are sequential (the paper's sweep() processes them in
  // order), so a new block opens a new pipeline block: a hard barrier
  // behind everything outstanding. A source iteration opens with block
  // (0, 0, 0).
  const bool opens_iteration =
      w.octant == 0 && w.ablock == 0 && w.kblock == 0 && w.diagonal == 0;
  const bool new_block =
      opens_iteration ||
      block_ != std::array<int, 3>{w.octant, w.ablock, w.kblock};
  if (new_block) begin_block(w, opens_iteration);
  feed(w, new_block);
}

void TimingEngine::on_block(int octant, int ablock, int kblock, bool fixup) {
  const sweep::DiagonalWork block{octant, ablock, kblock, 0,
                                  0,      grid_.it, fixup, cfg_.sweep.kernel};
  begin_block(block, octant == 0 && ablock == 0 && kblock == 0);
  if (!skipping_) {
    bool first = true;
    sweep::ChunkPlan::for_each_diagonal(
        cfg_.sweep, grid_.jt, block, [&](const sweep::DiagonalWork& w) {
          feed(w, first);
          first = false;
        });
    return;
  }
  // Fast-forwarded: the block's stream is a pure function of the fixup
  // flag here, so its length and signature close it without a walk.
  BlockStream& s = block_streams_[fixup ? 1 : 0];
  if (s.length == 0) {
    s.signature = kFnvOffset;
    sweep::ChunkPlan::for_each_diagonal(
        cfg_.sweep, grid_.jt, block, [&s](const sweep::DiagonalWork& w) {
          ++s.length;
          s.signature = mix(s.signature, w);
        });
  }
  diagonals_ = s.length;
  stream_ = s.signature;
  end_block();
}

void TimingEngine::feed(const sweep::DiagonalWork& w, bool first_batch) {
  ++diagonals_;
  stream_ = mix(stream_, w);

  // A fast-forwarded block is already priced; the drift check still
  // covers each of its diagonals.
  if (skipping_) {
    sweep::ChunkPlan::check_lines(cfg_.sweep, grid_.jt, w);
    return;
  }

  // Chunk list of this diagonal -- the same ChunkPlan the functional
  // sweeper executes (the plan constructor throws on functional/timing
  // drift) -- each chunk priced by the trace-scheduled kernel cost
  // model and sized by its DMA transfer plan, once per chunk shape.
  const sweep::ChunkPlan plan(cfg_.sweep, grid_.jt, w);
  specs_.clear();
  for (const sweep::ChunkDesc& pc : plan.chunks()) {
    specs_.push_back(priced_shape(w, pc.nlines));
    specs_.back().index = pc.index;
  }
  pipeline_.run_batch(specs_, sweep_dependency, first_batch);
}

const StreamChunkSpec& TimingEngine::priced_shape(
    const sweep::DiagonalWork& w, int nlines) {
  PricedShape& shape =
      shapes_[w.fixup ? 1 : 0][static_cast<std::size_t>(nlines - 1)];
  if (!shape.priced || shape.kernel != w.kernel || shape.it != w.it) {
    const ChunkCost& cost =
        kernels_->chunk_cost(w.kernel, cfg_.precision, nlines, w.it, nm_,
                             w.fixup, cfg_.gotos_eliminated);
    StreamChunkSpec sc;
    sc.plan = plan_chunk(ChunkShape{nlines, w.it, nm_,
                                    real_bytes_of(cfg_.precision),
                                    cfg_.aligned_rows});
    sc.kernel_cycles = cost.cycles;
    sc.kernel_name = w.fixup ? "kernel+fixup" : "kernel";
    sc.flops = cost.flops;
    sc.work_units = static_cast<std::uint64_t>(nlines) * w.it;
    sc.stats = cost.stats;
    shape = PricedShape{true, w.kernel, w.it, sc};
  }
  return shape.spec;
}

void TimingEngine::begin_block(const sweep::DiagonalWork& w,
                               bool opens_iteration) {
  end_block();
  if (opens_iteration) {
    // Source-moment rebuild at each iteration start: one streaming pass
    // over flux + source + the external source field. Bandwidth-bound;
    // the madds are fully pipelined underneath.
    const double bytes = (2.0 * nm_ + 1.0) *
                         static_cast<double>(grid_.cells()) *
                         static_cast<double>(real_bytes_of(cfg_.precision));
    pipeline_.memory_pass("source-rebuild", bytes);
  }
  block_ = {w.octant, w.ablock, w.kblock};
  skipping_ =
      pipeline_.open_block({w.fixup, static_cast<int>(w.kernel), w.it});
  skipped_ += skipping_ ? 1 : 0;
}

void TimingEngine::end_block() {
  pipeline_.close_block(diagonals_, stream_);
  skipping_ = false;
  diagonals_ = 0;
  stream_ = kFnvOffset;
}

RunReport TimingEngine::finish() {
  end_block();
  return pipeline_.finish();
}

void TimingEngine::gate(sim::Tick at) {
  // simulate_cluster gates between blocks: a skipped block must be
  // complete here, which its stream check verifies, and a recorded one
  // must not take the gate into its end state.
  end_block();
  pipeline_.gate(at);
}

CellSweep3D::CellSweep3D(const sweep::Problem& problem,
                         const CellSweepConfig& cfg, int sn_order, int l_max,
                         int nm_cap)
    : problem_(&problem), cfg_(cfg), l_max_(l_max), quad_(cfg.quadrature) {
  cfg_.sweep.kernel = cfg_.kernel;
  // Plan hint: a prebuilt quadrature of the right order (a solve
  // server keeps one per Sn order) replaces the build; the tables are a
  // pure function of the order, so results are byte-identical either
  // way.
  if (quad_ == nullptr || quad_->order() != sn_order)
    quad_ = &own_quad_.emplace(sn_order);
  cfg_.sweep.validate(problem.grid().kt, quad_->angles_per_octant());
  nm_ = sweep::MomentTable(*quad_, l_max_, nm_cap).nm();
  nm_cap_ = nm_cap;
}

RunReport CellSweep3D::run(RunMode mode) {
  return cfg_.use_spes ? run_on_spes(mode) : run_on_ppe(mode);
}

template <typename Real>
void CellSweep3D::run_functional(RunReport& report,
                                 const sweep::DiagonalObserver& obs) {
  sweep::SweepState<Real> state(*problem_, *quad_, l_max_, nm_cap_);
  report.solve = sweep::solve_source_iteration(state, cfg_.sweep, obs);
  report.absorption = state.absorption_rate();
  report.leakage = state.leakage();
}

RunReport CellSweep3D::run_on_ppe(RunMode mode) {
  RunReport r;
  // Price the iterations the solve ran, as the SPE stages do: a
  // converging solve stops before max_iterations. The PPE stages always
  // compute in double precision (the original unported code).
  CellSweepConfig priced = cfg_;
  if (mode == RunMode::kFunctional) {
    run_functional<double>(r, {});
    priced.sweep.max_iterations = r.solve->iterations;
  }
  const WorkloadTotals totals =
      audit_workload(problem_->grid(), quad_->angles_per_octant(), priced, nm_);

  const perf::ProcessorModel ppe =
      cfg_.xlc ? perf::ppe_xlc() : perf::ppe_gcc();
  r.seconds = ppe.seconds(totals.cell_solves, totals.flops);
  r.flops = totals.flops;
  r.cell_solves = totals.cell_solves;
  r.chunks = totals.chunks;
  r.traffic_bytes =
      static_cast<double>(totals.cell_solves) * ppe.bytes_per_solve;
  r.achieved_flops_per_s = static_cast<double>(r.flops) / r.seconds;
  r.grind_seconds = r.seconds / static_cast<double>(r.cell_solves);
  return r;
}

RunReport trace_driven_run(const CellSweepConfig& cfg, const sweep::Grid& grid,
                           int nm, int angles_per_octant) {
  TimingEngine engine(cfg, grid, nm);
  cfg.sweep.validate(grid.kt, angles_per_octant);
  const int nkb = grid.kt / cfg.sweep.mk;
  const int nab = angles_per_octant / cfg.sweep.mmi;
  for (int iter = 0; iter < cfg.sweep.max_iterations; ++iter) {
    const bool fixup = iter >= cfg.sweep.fixup_from_iteration;
    for (int iq = 0; iq < 8; ++iq)
      for (int ab = 0; ab < nab; ++ab)
        for (int kb = 0; kb < nkb; ++kb) engine.on_block(iq, ab, kb, fixup);
  }
  return engine.finish();
}

RunReport CellSweep3D::run_on_spes(RunMode mode) {
  if (mode == RunMode::kTraceDriven)
    return trace_driven_run(cfg_, problem_->grid(), nm_,
                            quad_->angles_per_octant());

  TimingEngine engine(cfg_, problem_->grid(), nm_);
  const sweep::DiagonalObserver obs = [&](const sweep::DiagonalWork& w) {
    engine.on_diagonal(w);
  };
  RunReport functional_part;
  if (cfg_.precision == Precision::kDouble)
    run_functional<double>(functional_part, obs);
  else
    run_functional<float>(functional_part, obs);

  RunReport r = engine.finish();
  r.solve = functional_part.solve;
  r.absorption = functional_part.absorption;
  r.leakage = functional_part.leakage;
  return r;
}

}  // namespace cellsweep::core
