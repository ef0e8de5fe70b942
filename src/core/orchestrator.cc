#include "core/orchestrator.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>

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

/// A diagonal as the block-contract errors name it.
std::string describe(const sweep::DiagonalWork& w) {
  return "(octant " + std::to_string(w.octant) + ", angle block " +
         std::to_string(w.ablock) + ", K block " + std::to_string(w.kblock) +
         ", diagonal " + std::to_string(w.diagonal) + ", " +
         std::to_string(w.nlines) + " lines of " + std::to_string(w.it) +
         ", fixup " + std::to_string(w.fixup) + ", kernel " +
         std::to_string(static_cast<int>(w.kernel)) + ")";
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
  sweep::ChunkPlan::for_each_diagonal(
      cfg_.sweep, grid_.jt, {},
      [&](const sweep::DiagonalWork& w) { block_lines_.push_back(w.nlines); });
}

TimingEngine::~TimingEngine() = default;

void TimingEngine::on_diagonal(const sweep::DiagonalWork& w) {
  // A block's diagonal 0 prices the block whole; every diagonal is
  // then held to the block walker's next one.
  if (!next_) {
    on_block(w.octant, w.ablock, w.kblock, w.fixup);
    next_ = sweep::DiagonalWork{w.octant,  w.ablock, w.kblock, 0,
                                block_lines_[0], grid_.it, w.fixup,
                                cfg_.sweep.kernel};
  }
  if (!(w == *next_))
    throw std::logic_error("TimingEngine: fed diagonal " + describe(w) +
                           " where the block walker yields " +
                           describe(*next_));
  if (++next_->diagonal < static_cast<int>(block_lines_.size()))
    next_->nlines = block_lines_[static_cast<std::size_t>(next_->diagonal)];
  else
    next_.reset();
}

void TimingEngine::on_block(int octant, int ablock, int kblock, bool fixup) {
  require_closed("on_block");
  if (octant == 0 && ablock == 0 && kblock == 0) {
    // Source-moment rebuild at each iteration start: one streaming pass
    // over flux + source + the external source field. Bandwidth-bound;
    // the madds are fully pipelined underneath.
    const double bytes = (2.0 * nm_ + 1.0) *
                         static_cast<double>(grid_.cells()) *
                         static_cast<double>(real_bytes_of(cfg_.precision));
    pipeline_.memory_pass("source-rebuild", bytes);
  }
  // Wavefront structure. Blocks are sequential (the paper's sweep()
  // processes them in order), so each opens a pipeline block: a hard
  // barrier behind everything outstanding. Within it the dependency is
  // per-line: a chunk of one diagonal needs only its neighboring chunks
  // of the previous diagonal (sweep_dependency), so execution pipelines
  // across diagonals.
  if (pipeline_.open_block({fixup})) {
    ++skipped_;  // already priced: no walk
  } else {
    for (std::size_t d = 0; d < block_lines_.size(); ++d) {
      // The diagonal's chunks, in the widths the functional sweeper
      // executes them, each priced by the trace-scheduled kernel cost
      // model and sized by its DMA transfer plan, once per chunk shape.
      specs_.clear();
      const int nlines = block_lines_[d];
      for (int c = 0; c < sweep::ChunkPlan::chunk_count(nlines); ++c) {
        specs_.push_back(
            priced_shape(fixup, sweep::ChunkPlan::chunk_width(nlines, c)));
        specs_.back().index = c;
      }
      pipeline_.run_batch(specs_, sweep_dependency, d == 0);
    }
  }
  pipeline_.close_block();
}

const StreamChunkSpec& TimingEngine::priced_shape(bool fixup, int nlines) {
  std::optional<StreamChunkSpec>& shape =
      shapes_[fixup ? 1 : 0][static_cast<std::size_t>(nlines - 1)];
  if (!shape) {
    const ChunkCost& cost =
        kernels_->chunk_cost(cfg_.sweep.kernel, cfg_.precision, nlines,
                             grid_.it, nm_, fixup, cfg_.gotos_eliminated);
    StreamChunkSpec& sc = shape.emplace();
    sc.plan = plan_chunk(ChunkShape{nlines, grid_.it, nm_,
                                    real_bytes_of(cfg_.precision),
                                    cfg_.aligned_rows});
    sc.kernel_cycles = cost.cycles;
    sc.kernel_name = fixup ? "kernel+fixup" : "kernel";
    sc.flops = cost.flops;
    sc.work_units = static_cast<std::uint64_t>(nlines) * grid_.it;
    sc.stats = cost.stats;
  }
  return *shape;
}

void TimingEngine::require_closed(const char* call) const {
  if (next_)
    throw std::logic_error(std::string("TimingEngine::") + call +
                           " inside an unfinished block: the block walker "
                           "still yields " +
                           describe(*next_));
}

RunReport TimingEngine::finish() {
  require_closed("finish");
  return pipeline_.finish();
}

void TimingEngine::gate(sim::Tick at) {
  // simulate_cluster gates between blocks, so a recorded block never
  // takes the gate into its end state.
  require_closed("gate");
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

template <typename Real>
void CellSweep3D::solve(RunReport& report) const {
  sweep::SweepState<Real> state(*problem_, *quad_, l_max_, nm_cap_);
  // A served job's cancel lands within one diagonal of the solve.
  sweep::DiagonalObserver poll;
  if (const std::atomic<bool>* cancel = cfg_.cancel)
    poll = [cancel](const sweep::DiagonalWork&) {
      if (cancel->load(std::memory_order_relaxed))
        throw RunCancelled("run cancelled during the solve");
    };
  report.solve = sweep::solve_source_iteration(state, cfg_.sweep, poll);
  report.absorption = state.absorption_rate();
  report.leakage = state.leakage();
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

RunReport CellSweep3D::run(RunMode mode) {
  // Solve, then price the iterations the solve ran: a converging solve
  // stops before max_iterations. The PPE stages always compute in
  // double precision (the original unported code).
  RunReport solved;
  CellSweepConfig priced = cfg_;
  if (mode == RunMode::kFunctional) {
    if (cfg_.use_spes && cfg_.precision == Precision::kSingle)
      solve<float>(solved);
    else
      solve<double>(solved);
    priced.sweep.max_iterations = solved.solve->iterations;
  }
  RunReport r;
  if (cfg_.use_spes) {
    r = trace_driven_run(priced, problem_->grid(), nm_,
                         quad_->angles_per_octant());
  } else {
    const WorkloadTotals totals = audit_workload(
        problem_->grid(), quad_->angles_per_octant(), priced, nm_);
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
  }
  r.solve = solved.solve;
  r.absorption = solved.absorption;
  r.leakage = solved.leakage;
  return r;
}

}  // namespace cellsweep::core
