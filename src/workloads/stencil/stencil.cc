#include "workloads/stencil/stencil.h"

#include <algorithm>
#include <cmath>

#include "util/aligned.h"
#include "util/thread_pool.h"

namespace cellsweep::stencil {
namespace {

/// Values of one parity in the index range [first, first + count).
std::uint64_t parity_count(int first, int count, int parity) {
  const std::uint64_t n = static_cast<std::uint64_t>(count);
  // Half the range, plus one when the range is odd and starts on the
  // requested parity.
  return n / 2 + ((n % 2 != 0 && (first & 1) == parity) ? 1 : 0);
}

}  // namespace

StencilState::StencilState(const StencilSpec& spec) : spec_(spec) {
  spec_.validate();
  u_.assign(static_cast<std::size_t>(spec_.cells()), 0.0);
}

void StencilState::half_sweep(int color, util::ThreadPool& pool) {
  const int nx = spec_.nx, ny = spec_.ny, nz = spec_.nz;
  const double h2f = spec_.h * spec_.h * spec_.source;
  double* u = u_.data();
  const std::size_t sx = 1;
  const std::size_t sy = static_cast<std::size_t>(nx);
  const std::size_t sz = static_cast<std::size_t>(nx) * ny;
  // Parallel over k-planes: a color update reads only opposite-color
  // cells, which this half-sweep never writes, so any plane order (and
  // any thread count) produces bitwise-identical results.
  pool.parallel_for(nz, [&](int k, int /*worker*/) {
    for (int j = 0; j < ny; ++j) {
      const int parity0 = (j + k + color) & 1;  // first i of this color
      for (int i = parity0; i < nx; i += 2) {
        const std::size_t c = i * sx + j * sy + k * sz;
        double sum = h2f;
        if (i > 0) sum += u[c - sx];
        if (i + 1 < nx) sum += u[c + sx];
        if (j > 0) sum += u[c - sy];
        if (j + 1 < ny) sum += u[c + sy];
        if (k > 0) sum += u[c - sz];
        if (k + 1 < nz) sum += u[c + sz];
        u[c] = sum / 6.0;
      }
    }
  });
  // Count the cells of this color exactly (grids with odd extents have
  // unequal color populations).
  std::uint64_t count = 0;
  for (int pz = 0; pz < 2; ++pz)
    for (int py = 0; py < 2; ++py) {
      const int px = (color + 2 - ((py + pz) & 1)) & 1;
      count += parity_count(0, nx, px) * parity_count(0, ny, py) *
               parity_count(0, nz, pz);
    }
  updates_ += count;
}

void StencilState::run(int threads) {
  util::ThreadPool pool(threads);
  run(pool);
}

void StencilState::run(util::ThreadPool& pool) {
  for (int it = 0; it < spec_.iterations; ++it) {
    half_sweep(0, pool);
    half_sweep(1, pool);
  }
}

double StencilState::checksum() const {
  double sum = 0;
  for (const double v : u_) sum += v;
  return sum;
}

double StencilState::residual() const {
  const int nx = spec_.nx, ny = spec_.ny, nz = spec_.nz;
  const double h2f = spec_.h * spec_.h * spec_.source;
  const double* u = u_.data();
  const std::size_t sx = 1;
  const std::size_t sy = static_cast<std::size_t>(nx);
  const std::size_t sz = static_cast<std::size_t>(nx) * ny;
  double worst = 0;
  for (int k = 0; k < nz; ++k)
    for (int j = 0; j < ny; ++j)
      for (int i = 0; i < nx; ++i) {
        const std::size_t c = i * sx + j * sy + k * sz;
        double sum = h2f;
        if (i > 0) sum += u[c - sx];
        if (i + 1 < nx) sum += u[c + sx];
        if (j > 0) sum += u[c - sy];
        if (j + 1 < ny) sum += u[c + sy];
        if (k > 0) sum += u[c - sz];
        if (k + 1 < nz) sum += u[c + sz];
        worst = std::max(worst, std::abs(sum - 6.0 * u[c]));
      }
  return worst;
}

std::uint64_t block_color_updates(const StencilSpec& spec, int bi, int bj,
                                  int bk, int color) {
  const int i0 = bi * spec.bx, j0 = bj * spec.by, k0 = bk * spec.bz;
  std::uint64_t count = 0;
  // Sum over the axis-parity triples whose total parity is the color.
  for (int pz = 0; pz < 2; ++pz)
    for (int py = 0; py < 2; ++py) {
      const int px = (color + 2 - ((py + pz) & 1)) & 1;
      count += parity_count(i0, spec.bx, px) * parity_count(j0, spec.by, py) *
               parity_count(k0, spec.bz, pz);
    }
  return count;
}

core::TransferPlan plan_block(const StencilSpec& spec,
                              std::size_t real_bytes, bool aligned_rows) {
  core::TransferPlan plan;
  const std::size_t raw_row = static_cast<std::size_t>(spec.bx) * real_bytes;
  // Rows are i-pencils of the block; same alignment policy as the
  // sweep (whole 128-byte lines when aligned, quadwords otherwise).
  plan.row_bytes = aligned_rows
                       ? util::round_up(raw_row, util::kCacheLineBytes)
                       : util::round_up(raw_row, 16);

  // Bulk: the u block and the f block (by*bz pencils each) -- no
  // inter-block dependency, so double buffering prefetches them across
  // color phases. Faces: the j/k neighbor planes stream as pencils
  // (bz rows per j face, by per k face); the i-face columns are packed
  // scalars and ride in the extra transfer with the block descriptor.
  plan.bulk_get_rows = 2 * spec.by * spec.bz;
  plan.face_get_rows = 2 * (spec.by + spec.bz);
  plan.extra_get_bytes = util::round_up(
      2 * static_cast<std::size_t>(spec.by) * spec.bz * real_bytes + 64, 16);

  // The u block is updated in place, so the writeback reuses its LS
  // rows; only a small completion descriptor rides extra.
  plan.put_rows = spec.by * spec.bz;
  plan.extra_put_bytes = 16;

  const std::size_t scratch_rows = 2;  // row buffers of the unrolled kernel
  plan.ls_buffer_bytes =
      (static_cast<std::size_t>(plan.get_rows()) + scratch_rows) *
          util::round_up(plan.row_bytes, util::kCacheLineBytes) +
      util::round_up(plan.extra_get_bytes, util::kCacheLineBytes);
  return plan;
}

core::LsPlacement block_placement(const core::TransferPlan& plan) {
  core::LsPlacement placement;
  placement.resident.emplace_back("stencil-constants", 1024);
  placement.buffer_bytes = plan.ls_buffer_bytes;
  return placement;
}

BlockCost block_cost(const StencilSpec& spec, int bi, int bj, int bk,
                     int color, const cell::CellSpec& chip,
                     core::Precision precision) {
  BlockCost cost;
  cost.updates = block_color_updates(spec, bi, bj, bk, color);

  // One update is a 6-add reduction, the h^2 f add and the multiply by
  // 1/6: a madd-free dependent chain the scheduler can software-
  // pipeline across updates. DP pays the partially pipelined DP unit
  // (one DP issue blocks all issue for dp_issue_block_cycles -- the
  // paper's 4-flops-per-7-cycles ceiling); SP issues back to back.
  const double per_update =
      precision == core::Precision::kDouble
          ? 4.0 * static_cast<double>(chip.dp_issue_block_cycles)
          : 4.0;
  constexpr double kKernelOverheadCycles = 200.0;  // prologue + loop setup
  cost.cycles = static_cast<double>(cost.updates) * per_update +
                kKernelOverheadCycles;
  cost.flops = cost.updates * 8;

  cell::PipelineStats& p = cost.stats;
  p.kernels = 1;
  p.cycles = static_cast<std::uint64_t>(cost.cycles);
  p.instructions = cost.updates * 12 + 48;
  p.issue_cycles = cost.updates * 6 + 24;
  p.dual_issues = cost.updates * 3;
  p.even_pipe_insts = cost.updates * 8 + 24;
  p.odd_pipe_insts = p.instructions - p.even_pipe_insts;
  const std::uint64_t stall =
      p.cycles > p.issue_cycles ? p.cycles - p.issue_cycles : 0;
  // DP stalls are issue blocking (the DP unit), SP stalls are dataflow.
  if (precision == core::Precision::kDouble) {
    p.block_stall_cycles = stall;
  } else {
    p.dep_stall_cycles = stall;
  }
  p.flops = cost.flops;
  return cost;
}

CellStencil::CellStencil(const StencilSpec& spec,
                         const core::CellSweepConfig& cfg)
    : spec_(spec), cfg_(cfg) {
  spec_.validate();
  if (!cfg_.use_spes)
    throw StencilError("the stencil runs only on the SPEs; a PPE stage "
                       "has no stencil model");
}

StencilReport CellStencil::run(core::RunMode mode, int threads,
                               util::ThreadPool* pool) {
  StencilReport rep;
  const std::size_t rb = core::real_bytes_of(cfg_.precision);

  // The pipeline throws LocalStoreOverflow when the placement does not
  // fit -- the same footprint lint_stencil checks statically.
  const core::TransferPlan tplan =
      plan_block(spec_, rb, cfg_.aligned_rows);
  core::StreamingPipeline pipeline(cfg_, block_placement(tplan));

  // Dependency policy: a block of this color phase reads the previous
  // phase's values of itself and its six face neighbors.
  const int nbx = spec_.blocks_x();
  const int nby = spec_.blocks_y();
  const int nbz = spec_.blocks_z();
  const auto deps = [nbx, nby, nbz](const core::UpstreamView& u,
                                    int c) -> sim::Tick {
    if (u.ready.empty()) return u.barrier;
    sim::Tick t = std::max(u.barrier, u.ready[static_cast<std::size_t>(c)]);
    const int i = c % nbx, j = (c / nbx) % nby, k = c / (nbx * nby);
    if (i > 0) t = std::max(t, u.ready[static_cast<std::size_t>(c - 1)]);
    if (i + 1 < nbx)
      t = std::max(t, u.ready[static_cast<std::size_t>(c + 1)]);
    if (j > 0) t = std::max(t, u.ready[static_cast<std::size_t>(c - nbx)]);
    if (j + 1 < nby)
      t = std::max(t, u.ready[static_cast<std::size_t>(c + nbx)]);
    if (k > 0)
      t = std::max(t, u.ready[static_cast<std::size_t>(c - nbx * nby)]);
    if (k + 1 < nbz)
      t = std::max(t, u.ready[static_cast<std::size_t>(c + nbx * nby)]);
    return t + u.hop;
  };

  // The two per-color batches are identical across iterations; build
  // them once. Block c streams the same bytes either phase; only the
  // priced kernel differs (the color populations of a block differ on
  // odd extents).
  std::vector<core::StreamChunkSpec> batches[2];
  for (int color = 0; color < 2; ++color) {
    batches[color].reserve(static_cast<std::size_t>(spec_.blocks()));
    for (int k = 0; k < nbz; ++k)
      for (int j = 0; j < nby; ++j)
        for (int i = 0; i < nbx; ++i) {
          const BlockCost cost =
              block_cost(spec_, i, j, k, color, cfg_.chip, cfg_.precision);
          core::StreamChunkSpec sc;
          sc.index = (k * nby + j) * nbx + i;
          sc.plan = tplan;
          sc.kernel_cycles = cost.cycles;
          sc.kernel_name = color == 0 ? "stencil-even" : "stencil-odd";
          sc.flops = cost.flops;
          sc.work_units = cost.updates;
          sc.stats = cost.stats;
          batches[color].push_back(sc);
        }
  }

  // Free-running iteration loop: the per-iteration residual-norm
  // reduction streams the whole field (u read + written) through the
  // MIC, then the two color phases chase dependencies with no hard
  // barrier (new_block stays false throughout).
  const double pass_bytes =
      2.0 * static_cast<double>(spec_.cells()) * static_cast<double>(rb);
  for (int it = 0; it < spec_.iterations; ++it) {
    pipeline.memory_pass("residual-norm", pass_bytes);
    for (int color = 0; color < 2; ++color)
      pipeline.run_batch(batches[color], deps, false);
  }
  rep.run = pipeline.finish();
  rep.updates = rep.run.cell_solves;

  if (mode == core::RunMode::kFunctional) {
    // The physics runs host-side; the machine feed above does not
    // depend on it (or on the thread count), so functional and
    // trace-driven timing are identical by construction -- and a fault
    // plan degrades only the timing, never these values.
    StencilState state(spec_);
    if (pool)
      state.run(*pool);
    else
      state.run(threads);
    rep.checksum = state.checksum();
    rep.residual = state.residual();
  }
  return rep;
}

}  // namespace cellsweep::stencil
