// CellSweep3D: the paper's five-level parallelization, orchestrated
// over the machine model.
//
// Level 1 (process) stays with src/sweep/mpi_sweeper. Levels 2-5 live
// here: the jkm-diagonal I-lines are farmed to the eight SPEs in
// chunks of four (thread level), using the same ChunkPlan decomposition
// (sweep/plan.h) the functional sweeper executes; each chunk's working
// set streams
// through the local store with single or double buffering (data
// streaming); the chunk kernel is the scalar or the four-logical-thread
// SIMD one (vector + pipeline levels). The TimingEngine is fed one call
// per block, walks it with the block walker
// (sweep::ChunkPlan::for_each_diagonal) and translates each diagonal
// into one core::StreamingPipeline batch: the pipeline owns the machine
// model's clocks -- dispatch-fabric grants, MFC DMA gets/puts
// (individual commands or DMA lists), SPU compute, the wave arithmetic
// and double-buffer rotation -- while this engine supplies the Sweep3D
// specifics: the chunk widths of each diagonal, the per-chunk DMA
// transfer plans and trace-scheduled kernel costs, the per-line
// wavefront dependency policy, the (octant, angle-block, K-block) block
// barriers, and the per-iteration source rebuild pass.
//
// Two run modes share one pricing path, so they time the same:
//   * kFunctional  -- the physics really runs first, then the sweeps it
//     ran are priced as below. Use for correctness and examples.
//   * kTraceDriven -- only the loop structure is replayed, one
//     TimingEngine::on_block call per block (fast; the benches use it
//     for big sweeps).
#pragma once

#include <array>
#include <optional>
#include <vector>

#include "core/config.h"
#include "core/kernel_timing.h"
#include "core/report.h"
#include "core/streaming_pipeline.h"
#include "core/workload.h"
#include "sim/trace.h"
#include "sweep/sweeper.h"

namespace cellsweep::core {

/// Local-store placement of a sweep over I-lines of @p it cells with
/// @p nm flux moments: 4 KB of resident per-angle constants plus one
/// staging buffer per rotation slot, sized for the largest chunk's
/// working set. The timing engine, lint_deck and solve server
/// admission all size the LS footprint from it.
LsPlacement sweep_placement(const CellSweepConfig& cfg, int it, int nm);

/// Timing engine: prices the sweep one whole block at a time and
/// re-hosts its work on the workload-agnostic StreamingPipeline.
///
/// The block contract: block (octant, angle block, K block) with a
/// fixup flag is the diagonal stream sweep::ChunkPlan::for_each_diagonal
/// walks for it under cfg.sweep, the grid's line length and
/// cfg.sweep.kernel. on_block, the only code that prices a block,
/// prices one whole. on_diagonal prices its block through on_block at
/// diagonal 0, throws std::logic_error at a diagonal that is not the
/// walker's next one, leaving the block unfinished, and closes the
/// block at its last. gate, on_block and finish throw std::logic_error
/// inside an unfinished block.
///
/// Block fast-forward: every block starts behind a hard barrier, and
/// since MK divides KT and MMI the angle count, every block of a run
/// with one fixup flag feeds the same diagonal stream. The engine opens
/// each block on the pipeline salted with its fixup flag (a block that
/// opens a source iteration after the source-rebuild pass) and feeds no
/// batch for a block the pipeline fast-forwards. The memo, and when it
/// replays in full, are StreamingPipeline's (open_block).
class TimingEngine {
 public:
  TimingEngine(const CellSweepConfig& cfg, const sweep::Grid& grid, int nm);
  ~TimingEngine();

  /// Holds one diagonal to the block contract above, pricing its block
  /// at diagonal 0: throws std::logic_error when @p w is not the block
  /// walker's next diagonal -- its index, line count, block, fixup
  /// flag, line length or kernel differs.
  void on_diagonal(const sweep::DiagonalWork& w);

  /// Prices block (@p octant, @p ablock, @p kblock) whole: the
  /// diagonals the block walker yields for it with @p fixup. Block
  /// (0, 0, 0) opens a source iteration. A fast-forwarded block closes
  /// without a walk.
  void on_block(int octant, int ablock, int kblock, bool fixup);

  /// Drains outstanding work and returns the completed report (timing
  /// fields only). Under CELLSWEEP_HAZARD_CHECK (and only with the
  /// pipeline-owned checker) throws analysis::HazardError when protocol
  /// violations were found.
  RunReport finish();

  /// Current completion horizon; monotone across blocks. Inside a
  /// block fed by diagonal it already reads the block's end.
  sim::Tick horizon() const noexcept { return pipeline_.horizon(); }

  /// External gate: no work fed after this call may start before
  /// @p at. Models a blocking boundary receive (the RECV of Figure 2)
  /// when this chip is one rank of a process-level decomposition.
  /// Gate between blocks: the gate lands in the next block's key.
  void gate(sim::Tick at);

  /// Blocks fast-forwarded rather than replayed so far.
  int blocks_fast_forwarded() const noexcept { return skipped_; }

 private:
  /// Throws std::logic_error naming @p call inside an unfinished block.
  void require_closed(const char* call) const;
  /// Chunk spec of one (fixup, width) shape, priced on first use.
  const StreamChunkSpec& priced_shape(bool fixup, int nlines);

  CellSweepConfig cfg_;
  sweep::Grid grid_;
  int nm_;
  /// The engine's own cost model, when cfg.warm_kernels shares none.
  std::optional<KernelCostModel> own_kernels_;
  const KernelCostModel* kernels_;  ///< cfg.warm_kernels or own_kernels_
  StreamingPipeline pipeline_;
  /// Lines on each diagonal of a block, as the block walker yields them.
  std::vector<int> block_lines_;
  /// The block walker's next diagonal of the block on_diagonal holds
  /// open; empty between blocks.
  std::optional<sweep::DiagonalWork> next_;
  std::array<std::array<std::optional<StreamChunkSpec>, sweep::kBundleLines>,
             2>
      shapes_{};
  std::vector<StreamChunkSpec> specs_;  ///< the diagonal's chunks (reused)

  int skipped_ = 0;
};

/// Times cfg.sweep.max_iterations trace-driven sweeps of @p grid on one
/// chip, every (octant, angle-block, K-block) block fed through
/// TimingEngine::on_block; returns the timing report.
/// CellSweep3D::run on the SPE stages and simulate_cluster's isolated
/// chips run it.
RunReport trace_driven_run(const CellSweepConfig& cfg, const sweep::Grid& grid,
                           int nm, int angles_per_octant);

/// End-to-end runner for one problem + configuration.
class CellSweep3D {
 public:
  /// Defaults reproduce the paper's deck: S6 quadrature, P2 scattering
  /// truncated to sweep::kBenchmarkMoments flux moments.
  CellSweep3D(const sweep::Problem& problem, const CellSweepConfig& cfg,
              int sn_order = 6, int l_max = 2,
              int nm_cap = sweep::kBenchmarkMoments);

  /// quad_ may point into the runner itself.
  CellSweep3D(const CellSweep3D&) = delete;
  CellSweep3D& operator=(const CellSweep3D&) = delete;

  /// Runs the configured stage and returns the report. kFunctional
  /// first solves the physics (polling cfg.cancel after every diagonal)
  /// and fills the solve fields, then prices the iterations it solved.
  RunReport run(RunMode mode = RunMode::kTraceDriven);

  const CellSweepConfig& config() const noexcept { return cfg_; }

 private:
  template <typename Real>
  void solve(RunReport& report) const;

  const sweep::Problem* problem_;
  CellSweepConfig cfg_;
  int l_max_;
  /// The run's quadrature, built once: cfg.quadrature when the hint has
  /// the deck's order, else own_quad_.
  std::optional<sweep::SnQuadrature> own_quad_;
  const sweep::SnQuadrature* quad_;
  int nm_ = 0;
  int nm_cap_ = 0;
};

}  // namespace cellsweep::core
