// Run-level reporting types shared by every workload client of the
// streaming pipeline (the Sweep3D orchestrator, the stencil port, the
// cluster replayer) and by the benches, metrics writer and tools.
// Split out of orchestrator.h so core::StreamingPipeline can produce a
// RunReport without depending on the Sweep3D-specific engine.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/counters.h"
#include "sim/trace.h"
#include "sweep/sweeper.h"

namespace cellsweep::core {

/// How the workload stream is produced.
enum class RunMode : std::uint8_t { kFunctional, kTraceDriven };

/// Everything a run reports; the benches print from this.
struct RunReport {
  // --- timing ---------------------------------------------------------
  double seconds = 0;           ///< simulated wall time of the run
  double compute_busy_s = 0;    ///< mean per-SPE compute busy time
  double mic_busy_s = 0;        ///< memory-port busy time
  double dispatch_busy_grants = 0;  ///< dispatched work items
  // --- workload -------------------------------------------------------
  double traffic_bytes = 0;     ///< DMA payload moved (both directions)
  std::uint64_t flops = 0;
  std::uint64_t cell_solves = 0;
  std::uint64_t chunks = 0;
  std::uint64_t dma_commands = 0;
  std::uint64_t dma_transfers = 0;
  // --- derived --------------------------------------------------------
  double achieved_flops_per_s = 0;
  double grind_seconds = 0;     ///< seconds per cell-angle solve
  double memory_bound_s = 0;    ///< Section 6 traffic bound
  double compute_bound_s = 0;   ///< Section 6 compute bound
  std::size_t ls_high_water = 0;  ///< LS bytes used per SPE
  // --- queueing (SPE stages only; empty for PPE runs) ------------------
  /// Aggregate MFC queue-occupancy histogram: [k] counts DMA commands
  /// that entered their MFC queue behind k outstanding commands.
  std::vector<std::uint64_t> mfc_queue_occupancy;
  double mic_utilization = 0;   ///< MIC port busy fraction of the run
  double eib_utilization = 0;   ///< EIB busy fraction of the run
  // --- performance counters (SPE stages only; empty for PPE runs) ------
  /// The machine's counter tree: per-SPE engine buckets (busy /
  /// dma_wait / sync_wait / idle ticks -- they exactly partition
  /// run_ticks per SPE), SPU-pipeline and MFC counters under "spe<N>",
  /// a "spe_total" hierarchical aggregate, the shared MIC / EIB /
  /// dispatch units, and -- only when a fault plan was armed -- a
  /// "faults" subtree. The one store of these numbers: the per-SPE
  /// stall view is core::spe_stalls (core/metrics.h).
  sim::CounterSet counters;
  /// Utilization-over-time series (empty unless the caller ran a
  /// sim::TimeSlicedProfiler as the trace sink and copied its profile).
  sim::Profile timeseries;
  // --- functional results (kFunctional only) ---------------------------
  std::optional<sweep::SolveResult> solve;
  double absorption = 0;
  sweep::LeakageTally leakage;
};

}  // namespace cellsweep::core
