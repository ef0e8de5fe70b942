// ChunkPlan: the single authority for how a JK-diagonal's independent
// I-lines decompose into executable chunks, and for which diagonals
// one pipeline block holds.
//
// The paper's level-2 insight (Section 4) is that every I-line on one
// jkm-diagonal is independent, so the Cell port farms them to the SPEs
// in chunks of four. Exactly one piece of code may decide what those
// chunks are: this layer enumerates, for one diagonal of one (octant,
// angle-block, K-block) pipeline block, the line coordinates in sweep
// order and their bundling into chunks of at most kBundleLines lines
// (remainder last). The functional sweeper
// (sweep::SweepState::sweep_block) builds a ChunkPlan per diagonal and
// executes its chunks, serially or on a host thread pool. The block
// walker for_each_diagonal is the one statement of a block's diagonal
// stream: the trace-driven enumerator and the workload audit walk it,
// and the timing engine (core::TimingEngine) checks every diagonal it
// is fed against the walker's next one and prices its chunks from
// chunk_count / chunk_width, so the functional and timing paths cannot
// drift.
#pragma once

#include <utility>
#include <vector>

#include "sweep/sweeper.h"

namespace cellsweep::sweep {

/// Coordinates of one I-line within its pipeline block: angle slot
/// mh in [0, mmi), K-plane slot kk in [0, mk), J-column jj in [0, jt),
/// with mh + kk + jj equal to the diagonal index.
struct LineCoord {
  int mh = 0;
  int kk = 0;
  int jj = 0;
};

/// One executable unit: a contiguous run of the diagonal's lines,
/// dispatched to one SPE (timing model) or one host worker (functional
/// executor).
struct ChunkDesc {
  int index = 0;       ///< position in the diagonal's chunk list
  int first_line = 0;  ///< offset into ChunkPlan::lines()
  int nlines = 0;      ///< 1..kBundleLines
};

/// Deterministic decomposition of one JK-diagonal into chunks.
class ChunkPlan {
 public:
  /// Plans diagonal @p diagonal (0-based jkm index) of one pipeline
  /// block: lines in the sweeper's visiting order (mh-major, kk-minor),
  /// bundled into chunks of at most kBundleLines.
  ChunkPlan(const SweepConfig& cfg, int jt, int diagonal);

  int nlines() const noexcept { return static_cast<int>(lines_.size()); }
  const std::vector<LineCoord>& lines() const noexcept { return lines_; }
  const std::vector<ChunkDesc>& chunks() const noexcept { return chunks_; }

  // --- bundling arithmetic (shared with the audit / cluster paths) ----

  /// Diagonals in one pipeline block. Each holds at least one line, as
  /// every d <= (mmi - 1) + (mk - 1) + (jt - 1) is a sum mh + kk + jj.
  static int diagonals_per_block(const SweepConfig& cfg, int jt) noexcept {
    return jt + cfg.mk + cfg.mmi - 2;
  }

  /// I-lines on diagonal @p diagonal of an (mmi x mk x jt) block.
  static int lines_on_diagonal(const SweepConfig& cfg, int jt,
                               int diagonal) noexcept;

  /// Chunks @p nlines lines split into (full bundles, remainder last).
  static int chunk_count(int nlines) noexcept;

  /// Width of chunk @p chunk in a plan over @p nlines lines.
  static int chunk_width(int nlines, int chunk) noexcept;

  /// The block walker: calls @p visit with each diagonal of one
  /// pipeline block in sweep order, as @p block (its octant, angle
  /// block, K block, it, fixup flag and kernel) with the diagonal's
  /// index and line count filled in -- the stream the functional
  /// sweeper emits for that block.
  template <typename Visit>
  static void for_each_diagonal(const SweepConfig& cfg, int jt,
                                DiagonalWork block, Visit&& visit) {
    const int ndiags = diagonals_per_block(cfg, jt);
    for (int d = 0; d < ndiags; ++d) {
      block.diagonal = d;
      block.nlines = lines_on_diagonal(cfg, jt, d);
      visit(std::as_const(block));
    }
  }

 private:
  std::vector<LineCoord> lines_;
  std::vector<ChunkDesc> chunks_;
};

}  // namespace cellsweep::sweep
