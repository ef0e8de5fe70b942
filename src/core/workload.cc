#include "core/workload.h"

#include <algorithm>

#include "sweep/kernel.h"
#include "sweep/plan.h"
#include "util/aligned.h"

namespace cellsweep::core {

TransferPlan plan_chunk(const ChunkShape& shape) {
  TransferPlan plan;
  const std::size_t raw_row = shape.it * shape.real_bytes;
  // Rows always round up to a legal DMA size (16-byte multiple); the
  // aligned configuration pads to whole 128-byte lines for peak rate.
  plan.row_bytes = shape.aligned_rows
                       ? util::round_up(raw_row, util::kCacheLineBytes)
                       : util::round_up(raw_row, 16);

  // Per line: bulk = nm source rows + nm flux rows + 1 sigma_t row;
  // faces = phi_j and phi_k rows. Puts: nm flux rows plus both faces.
  plan.bulk_get_rows = shape.nlines * (2 * shape.nm + 1);
  plan.face_get_rows = shape.nlines * 2;
  plan.put_rows = shape.nlines * (shape.nm + 2);

  // I-inflow scalars, angle constants and the chunk descriptor ride in
  // one small transfer each way (rounded to a quadword multiple).
  plan.extra_get_bytes = util::round_up(
      shape.nlines * shape.real_bytes + 2 * shape.nm * shape.real_bytes + 64,
      16);
  plan.extra_put_bytes =
      util::round_up(shape.nlines * shape.real_bytes + 16, 16);

  // Local store: the streamed get rows live in LS for the kernel, the
  // flux rows are updated in place (so puts reuse them), and the kernel
  // needs q + Phi scratch lines per line.
  const std::size_t scratch_rows = 2 * shape.nlines;
  plan.ls_buffer_bytes =
      (static_cast<std::size_t>(plan.get_rows()) + scratch_rows) *
          util::round_up(plan.row_bytes, util::kCacheLineBytes) +
      util::round_up(plan.extra_get_bytes, util::kCacheLineBytes);
  return plan;
}

void enumerate_sweep(const sweep::Grid& grid, int angles_per_octant,
                     const sweep::SweepConfig& cfg, bool fixup,
                     const sweep::DiagonalObserver& observer) {
  cfg.validate(grid.kt, angles_per_octant);
  const int nkb = grid.kt / cfg.mk;
  const int nab = angles_per_octant / cfg.mmi;
  for (int iq = 0; iq < 8; ++iq)
    for (int ab = 0; ab < nab; ++ab)
      for (int kb = 0; kb < nkb; ++kb)
        sweep::ChunkPlan::for_each_diagonal(
            cfg, grid.jt,
            sweep::DiagonalWork{iq, ab, kb, 0, 0, grid.it, fixup, cfg.kernel},
            observer);
}

WorkloadTotals audit_workload(const sweep::Grid& grid, int angles_per_octant,
                              const CellSweepConfig& cell_cfg, int nm) {
  WorkloadTotals totals;
  const sweep::SweepConfig& cfg = cell_cfg.sweep;
  const int iterations = cfg.max_iterations;
  if (iterations < 1) return totals;
  cfg.validate(grid.kt, angles_per_octant);
  const std::size_t real_bytes = real_bytes_of(cell_cfg.precision);

  // Every block of a run walks the same diagonals, so the totals are
  // one block per fixup flag times the blocks that carry the flag.
  // Every sum is an integer (the bytes too, exact in a double below
  // 2^53), so this equals a walk over every diagonal and chunk.
  const std::uint64_t blocks_per_sweep =
      8ull * static_cast<std::uint64_t>(angles_per_octant / cfg.mmi) *
      static_cast<std::uint64_t>(grid.kt / cfg.mk);
  const int plain = std::clamp(cfg.fixup_from_iteration, 0, iterations);
  for (const bool fixup : {false, true}) {
    const std::uint64_t blocks =
        blocks_per_sweep *
        static_cast<std::uint64_t>(fixup ? iterations - plain : plain);
    if (blocks == 0) continue;
    WorkloadTotals block;
    sweep::ChunkPlan::for_each_diagonal(
        cfg, grid.jt,
        sweep::DiagonalWork{0, 0, 0, 0, 0, grid.it, fixup, cfg.kernel},
        [&](const sweep::DiagonalWork& w) {
          const auto cells = static_cast<std::uint64_t>(w.nlines) * w.it;
          const int nchunks = sweep::ChunkPlan::chunk_count(w.nlines);
          ++block.diagonals;
          block.lines += w.nlines;
          block.cell_solves += cells;
          block.chunks += nchunks;
          block.flops += cells * sweep::flops_per_cell_solve(nm, fixup);
          for (int c = 0; c < nchunks; ++c) {
            const int n = sweep::ChunkPlan::chunk_width(w.nlines, c);
            const TransferPlan plan = plan_chunk(ChunkShape{
                n, w.it, nm, real_bytes, cell_cfg.aligned_rows});
            block.bytes += static_cast<double>(plan.total_bytes());
          }
        });
    totals.diagonals += blocks * block.diagonals;
    totals.lines += blocks * block.lines;
    totals.cell_solves += blocks * block.cell_solves;
    totals.chunks += blocks * block.chunks;
    totals.flops += blocks * block.flops;
    totals.bytes += static_cast<double>(blocks) * block.bytes;
  }
  return totals;
}

}  // namespace cellsweep::core
