// Process-level wavefront decomposition (the paper's parallelism
// level 1, Figures 1-3).
//
// Grid cells are distributed over a 2-D (px x py) array of ranks; each
// rank owns a 3-D tile complete in K. Sweeps propagate as wavefronts:
// each block of MK K-planes and MMI angles triggers a RECV of I- and
// J-inflows from the upstream neighbors and a SEND of outflows
// downstream, exactly the structure of Figure 2's sweep() pseudo-code.
// Each rank runs solve_source_iteration on a SweepState with an
// MpiBoundary installed. The boundary only exchanges the faces shared
// with another rank and reduces the convergence metric; SweepState
// applies the domain-face rules as in a serial run, so the physics
// code is byte-for-byte the serial path -- the migration-path argument
// of the paper.
#pragma once

#include <vector>

#include "msg/cart_grid.h"
#include "msg/communicator.h"
#include "sweep/sweeper.h"

namespace cellsweep::sweep {

/// Extracts the sub-problem of the tile [i0, i0+ni) x [j0, j0+nj) x
/// full K from @p global. Materials are shared; cell assignment is
/// sliced.
Problem extract_tile(const Problem& global, int i0, int ni, int j0, int nj);

/// Result of a distributed solve, gathered on rank 0.
struct MpiSolveResult {
  /// Rank 0's iteration count and convergence; the work totals summed
  /// over the ranks. cells and fixup_cells equal the serial solve's;
  /// lines and chunks count each rank's own lines (a global I-line
  /// split over px ranks counts px times).
  SolveResult solve;
  LeakageTally leakage;               ///< global (reduced) leakage
  std::vector<double> flux0;          ///< global scalar flux [k][j][i]
  double absorption = 0.0;            ///< global absorption rate
};

/// Runs source iteration on @p world.size() ranks over a px x py
/// decomposition of @p global and returns rank 0's gathered result.
/// @p px * py must equal the world size, and px / py must divide
/// it / jt. Reflective faces are rejected.
MpiSolveResult solve_mpi(msg::World& world, const Problem& global,
                         const SnQuadrature& quad, int l_max,
                         const SweepConfig& cfg, int px, int py,
                         int nm_cap = 0);

}  // namespace cellsweep::sweep
