// Configuration of the Cell port: one switch per mechanism the paper's
// optimization ladder (Figure 5) flips, plus the prospective Figure 10
// variants. Each OptimizationStage maps to a concrete CellSweepConfig;
// the simulated execution times of the ladder *emerge* from these
// mechanism switches, they are never looked up.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

#include "cellsim/spec.h"
#include "cellsim/sync.h"
#include "sim/fault.h"
#include "sweep/sweeper.h"

namespace cellsweep::sim {
class TraceSink;
}

namespace cellsweep::cell {
class MachineObserver;
}

namespace cellsweep::core {

class KernelCostModel;
class SpeAllocator;

/// Numeric precision of the kernels and DMA payloads.
enum class Precision : std::uint8_t { kDouble, kSingle };

/// The cumulative optimization stages of Figure 5 (paper Section 5),
/// plus the Figure 10 projections.
enum class OptimizationStage : std::uint8_t {
  kPpeGcc,        ///< unmodified port on the PPE, GCC (22.3 s)
  kPpeXlc,        ///< PPE only, IBM XLC (19.9 s)
  kSpeInitial,    ///< 8 SPE threads, scalar kernel (3.55 s)
  kSpeAligned,    ///< + goto elimination, 128-B row alignment (3.03 s)
  kSpeBuffered,   ///< + double buffering (2.88 s)
  kSpeSimd,       ///< + SIMD intrinsics (1.68 s)
  kSpeDmaLists,   ///< + DMA lists, memory-bank offsets (1.48 s)
  kSpeLsPoke,     ///< + direct-LS-poke sync protocol (1.33 s)
  // --- Figure 10 projections on top of kSpeLsPoke -----------------------
  kFutureBigDma,      ///< larger DMA granularity (1.2 s)
  kFutureDistributed, ///< distributed task dispatch across SPEs (0.9 s)
  kFuturePipelinedDp, ///< fully pipelined DP unit (0.85 s)
  kFutureSingle,      ///< single-precision arithmetic (0.45 s)
};

const char* stage_name(OptimizationStage s);

/// The stage a --stage name selects: ppe | initial | simd | final.
/// Throws std::invalid_argument, listing the valid names, on any other.
OptimizationStage stage_from_name(const std::string& name);

/// Bytes of one real number of @p p in kernels and DMA payloads.
inline std::size_t real_bytes_of(Precision p) {
  return p == Precision::kDouble ? 8 : 4;
}

/// The workload-agnostic machine switches of one streaming run: the
/// part of the configuration core::StreamingPipeline reads. Every
/// workload runs under a CellSweepConfig, which extends this with the
/// Sweep3D-side switches, so each setting is stored exactly once.
struct StreamConfig {
  /// 1 = synchronous staging, 2 = double buffering (clamped to >= 1).
  int buffers = 2;
  /// Batch each chunk's transfers into MFC DMA-list commands instead of
  /// individual per-row DMAs.
  bool dma_lists = true;
  /// Offset array allocations to spread rows over all 16 memory banks.
  bool bank_offsets = true;
  /// 128-byte alignment of every DMA'd row (Section 5 step 3 plus the
  /// "rows of the multi-dimensional arrays are 128-byte aligned" fix).
  bool aligned_rows = true;
  /// Bytes per DMA(-list element); the shipped implementation moved
  /// 512-byte rows, Figure 10's first projection raises this.
  std::size_t dma_granularity = 512;
  cell::SyncProtocol sync = cell::SyncProtocol::kLsPoke;
  /// Cell revision (fully pipelined DP for kFuturePipelinedDp).
  cell::CellSpec chip{};
  /// Observability hook (non-owning, may be null): the pipeline emits
  /// simulated-time spans -- kernels, DMA phases, sync waits, dispatch
  /// -- into this sink. Pure observation: enabling it changes no
  /// simulated tick (pinned by a test). A sim::TimeSlicedProfiler is
  /// one; forward_to chains it in front of another sink.
  sim::TraceSink* trace_sink = nullptr;
  /// Protocol observability hook (non-owning, may be null): the
  /// pipeline narrates machine-model actions -- LS allocations, DMA
  /// submissions with region and tag group, tag waits, kernel buffer
  /// accesses, dispatch grants/reports -- into this observer. Same
  /// contract as trace_sink: pure observation, no simulated tick ever
  /// depends on it (pinned by a test). The hazard checker
  /// (src/analysis) attaches here; setting CELLSWEEP_HAZARD_CHECK in
  /// the environment attaches a pipeline-owned checker that turns
  /// violations into hard errors at finish().
  cell::MachineObserver* hazard = nullptr;
  /// Fault injection (default: nothing can break). When any mechanism
  /// is armed the pipeline builds a sim::FaultPlan from this spec,
  /// attaches it to the MFCs, MIC and dispatch fabric, and degrades
  /// gracefully around disabled or failing SPEs. With faults.any()
  /// false every fault path is skipped and runs stay bit-identical to
  /// the fault-free build (pinned by tests and the perf baselines).
  sim::FaultSpec faults;
  /// Multi-tenant SPE partitioning (non-owning, may be null). When set,
  /// the pipeline claims SPEs from this shared allocator instead of
  /// owning all chip.num_spes: it claims up to the chip width at
  /// construction, re-balances at batch boundaries (shrinking toward
  /// the fair share under pressure, never below one SPE, regrowing
  /// when slack returns) and releases everything at finish(). Null
  /// keeps the single-tenant behavior byte-identical to the
  /// pre-allocator build (pinned by the perf baselines).
  SpeAllocator* spe_allocator = nullptr;
  /// QoS weight of this run's SPE claim (>= 1; see
  /// SpeAllocator::claim). Runs of equal weight split the chip evenly;
  /// a weight-w tenant's fair share scales with w. Affects nothing
  /// without spe_allocator.
  int claim_weight = 1;
  /// Hard cap on the SPEs this run may ever hold (0 = uncapped).
  int claim_quota = 0;
  /// Cooperative cancellation flag (non-owning, may be null). Polled
  /// after every diagonal of a functional sweep's solve and between
  /// waves -- chunk granularity, never mid-wave -- of the pipeline;
  /// when it reads true the solve or run_batch throws
  /// core::RunCancelled. Observation only
  /// until it fires: a never-set flag changes no simulated tick.
  const std::atomic<bool>* cancel = nullptr;
};

/// Mechanism switches of one configuration: the streaming-machine
/// switches of StreamConfig plus the Sweep3D-side ones.
struct CellSweepConfig : StreamConfig {
  bool use_spes = true;  ///< false: the computation stays on the PPE
  bool xlc = true;       ///< PPE compiler quality (stage 0 vs 1)
  sweep::KernelKind kernel = sweep::KernelKind::kSimd;
  /// Inner-loop gotos eliminated (unhinted branches removed).
  bool gotos_eliminated = true;
  Precision precision = Precision::kDouble;

  /// Blocking parameters forwarded to the sweep driver.
  sweep::SweepConfig sweep;

  /// Plan hints (non-owning, may be null): shared tables keyed by
  /// shape, not by deck, which a solve server keeps for all its jobs.
  ///   * quadrature: a prebuilt SnQuadrature; CellSweep3D uses it when
  ///     its order is the deck's, instead of building the tables.
  ///   * warm_kernels: a KernelCostModel for this chip (SPU trace
  ///     recording is the expensive part); the timing engine prices
  ///     every chunk through it, filling shapes it lacks, instead of
  ///     starting a model of its own.
  /// Runs with and without them produce byte-identical reports -- each
  /// entry is a deterministic function of its key (pinned by tests).
  const sweep::SnQuadrature* quadrature = nullptr;
  const KernelCostModel* warm_kernels = nullptr;

  /// The Figure 5 / Figure 10 ladder.
  static CellSweepConfig from_stage(OptimizationStage s);
};

}  // namespace cellsweep::core
