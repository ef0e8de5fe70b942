// Working-set and workload accounting for the Cell orchestration.
//
// Data-streaming parallelism (the paper's level 3) means every chunk of
// four I-lines an SPE processes must be staged into the 256 KB local
// store and written back: source moments, flux moments, cross sections
// and the wavefront faces. This header computes, from first principles
// (array shapes and element sizes), the exact DMA transfer list and
// local-store footprint of a chunk -- the numbers behind the paper's
// "17.6 Gbytes transferred" audit -- and provides a standalone
// enumerator that replays the sweep loop structure without touching
// field data (a test asserts it emits the identical diagonal stream as
// the functional sweeper).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/config.h"
#include "sweep/plan.h"
#include "sweep/sweeper.h"

namespace cellsweep::core {

/// Shape of one SPE work chunk.
struct ChunkShape {
  int nlines = 4;
  int it = 50;
  int nm = 9;
  std::size_t real_bytes = 8;  ///< sizeof element (8 = DP, 4 = SP)
  bool aligned_rows = true;
};

/// DMA transfer plan of one chunk, in row granularity. Gets are split
/// into the *bulk* working set (source moments, flux moments, cross
/// sections -- no wavefront dependency, so double buffering prefetches
/// them across the diagonal barrier) and the *face* set (phi_j / phi_k
/// rows and phi_i scalars, produced by the previous diagonal).
struct TransferPlan {
  std::size_t row_bytes = 0;   ///< bytes per row transfer (padded if aligned)
  int bulk_get_rows = 0;       ///< dependency-free rows LS <- memory
  int face_get_rows = 0;       ///< wavefront face rows LS <- memory
  int put_rows = 0;            ///< rows DMA'd LS -> main memory
  std::size_t extra_get_bytes = 0;  ///< face scalars & descriptors
  std::size_t extra_put_bytes = 0;

  int get_rows() const noexcept { return bulk_get_rows + face_get_rows; }
  std::size_t bulk_get_bytes() const noexcept {
    return static_cast<std::size_t>(bulk_get_rows) * row_bytes;
  }
  std::size_t face_get_bytes() const noexcept {
    return static_cast<std::size_t>(face_get_rows) * row_bytes +
           extra_get_bytes;
  }
  std::size_t get_bytes() const noexcept {
    return bulk_get_bytes() + face_get_bytes();
  }
  std::size_t put_bytes() const noexcept {
    return static_cast<std::size_t>(put_rows) * row_bytes + extra_put_bytes;
  }
  std::size_t total_bytes() const noexcept {
    return get_bytes() + put_bytes();
  }

  /// Local-store bytes of one staging buffer for this chunk (streamed
  /// rows plus the q/Phi scratch lines the kernel needs).
  std::size_t ls_buffer_bytes = 0;
};

/// Computes the transfer plan for a chunk under the given config.
TransferPlan plan_chunk(const ChunkShape& shape);

/// Replays the sweep() loop structure -- octants, angle blocks, K-plane
/// blocks, JK-diagonals (sweep::ChunkPlan::for_each_diagonal) --
/// emitting the same DiagonalWork stream as SweepState::sweep, without
/// field data. One call covers one sweep (one iteration); the caller
/// owns the iteration loop and fixup flag. Trace-driven runs feed the
/// timing engine by block instead (TimingEngine::on_block).
void enumerate_sweep(const sweep::Grid& grid, int angles_per_octant,
                     const sweep::SweepConfig& cfg, bool fixup,
                     const sweep::DiagonalObserver& observer);

/// Totals of a whole run, used by the Section 6 bounds audit.
struct WorkloadTotals {
  std::uint64_t lines = 0;
  std::uint64_t chunks = 0;
  std::uint64_t cell_solves = 0;    ///< cell x angle solves
  std::uint64_t diagonals = 0;
  double bytes = 0.0;               ///< DMA payload bytes (both ways)
  std::uint64_t flops = 0;
};

/// Totals of cell_cfg.sweep.max_iterations sweeps of the given problem
/// shape under @p cell_cfg (fixups per the sweep config's schedule),
/// from one block per fixup flag: every block of a run has the same
/// diagonals, so the totals equal a walk over every diagonal and chunk
/// (bytes included while they stay below 2^53).
WorkloadTotals audit_workload(const sweep::Grid& grid, int angles_per_octant,
                              const CellSweepConfig& cell_cfg, int nm);

}  // namespace cellsweep::core
