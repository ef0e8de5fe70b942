// StreamingPipeline: the workload-agnostic Cell streaming discipline.
//
// The paper's central lesson is that the hard part of Cell programming
// is not the physics but the streaming discipline: budgeting the 256 KB
// local store, rotating chunks through double-buffered DMA waves, and
// ordering dispatch so the shared FIFO resources (PPE dispatcher, MIC,
// EIB) see near-monotone request streams. That discipline is identical
// across every related Cell port (Sweep3D, lattice QCD, biomolecular
// MD), so it lives here once, extracted from the Sweep3D orchestrator.
//
// The split of responsibilities:
//   * The pipeline owns the machine (cell::CellProcessor), the wave
//     arithmetic (spes x buffers chunks per wave), grant ordering,
//     put-tag gating, double-buffer rotation, stall accounting, fault
//     injection / SPE failover, observability (trace sink, hazard
//     observer), block fast-forward and the final RunReport assembly.
//   * A workload supplies, per batch of independent chunks: the chunk
//     list with each chunk's DMA transfer plan and kernel cost
//     (StreamChunkSpec -- the chunk provider + kernel functor), a
//     dependency policy mapping a chunk index to its upstream readiness
//     (the wavefront / stencil neighbor rule), and, at construction,
//     the local-store placement (resident regions + staging-buffer
//     size -- the LS budget policy). Writebacks and completion reports
//     follow the CBEA report-after-writeback rule for every workload.
//
// Clients: core::TimingEngine re-hosts the Sweep3D wave loop on this
// pipeline with byte-identical timing, counters and traces (gated by
// the perf baselines); workloads/stencil ports a lattice-QCD-style
// even/odd red-black stencil onto it.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cellsim/cell_processor.h"
#include "cellsim/spu_pipeline.h"
#include "core/config.h"
#include "core/report.h"
#include "core/spe_allocator.h"
#include "core/workload.h"
#include "sim/counters.h"
#include "sim/fault.h"
#include "sim/trace.h"
#include "util/concurrency_check.h"

namespace cellsweep::analysis {
class Diagnostics;
class HazardChecker;
}

namespace cellsweep::core {

/// Thrown by run_batch when StreamConfig::cancel reads true at a wave
/// boundary: the run aborts cooperatively between chunks (never
/// mid-wave -- a yielded staging buffer could still be in flight). The
/// claim is released by the destructor; the partially advanced report
/// is abandoned with it.
class RunCancelled : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Local-store placement policy of one workload: named resident
/// regions (constants, tables) allocated once per SPE, then
/// StreamConfig::buffers staging buffers of @p buffer_bytes each. Each
/// workload builds it in one function (core::sweep_placement,
/// stencil::block_placement) that the runner, the linter and solve
/// server admission all call. The pipeline performs the allocations on
/// every SPE at construction and throws cell::LocalStoreOverflow when
/// the budget does not fit; the linters flag the same case statically
/// from footprint().
struct LsPlacement {
  std::vector<std::pair<std::string, std::size_t>> resident;
  std::size_t buffer_bytes = 0;

  /// Per-SPE LS bytes of the resident regions plus @p buffers staging
  /// buffers (buffers < 1 count as 1, as the pipeline runs them), each
  /// region padded as cell::LocalStore::allocate pads it. The code
  /// reserve (cell::kLsCodeReserveBytes) comes on top.
  std::size_t footprint(int buffers) const;
};

/// The MFC request the pipeline submits for one transfer class of
/// @p plan moving @p bytes_total bytes under @p cfg: one command per
/// row, or one DMA list whose elements are the configured granularity
/// clamped to [row, chip.dma_max_bytes]. A row above the cap keeps its
/// size, so cell::Mfc::validate rejects the shape instead of it being
/// silently shrunk. The linter validates exactly these requests.
cell::DmaRequest make_dma_request(const StreamConfig& cfg,
                                  const TransferPlan& plan, cell::DmaDir dir,
                                  std::size_t bytes_total);

/// One chunk of streaming work, as the workload describes it: the DMA
/// transfer plan (what must be staged and written back) plus the
/// priced kernel (the kernel functor's cost on the SPU pipeline).
struct StreamChunkSpec {
  /// Position in the batch's dependency index space; must lie in
  /// [0, batch size). The dependency policy addresses upstream chunks
  /// by this index.
  int index = 0;
  /// DMA sizes and LS footprint of this chunk (bulk vs face gets,
  /// puts, row granularity).
  TransferPlan plan;
  /// Healthy-path SPU cycles of the chunk kernel (fault plans may
  /// stretch the executed time; this value also feeds the Section 6
  /// compute bound).
  double kernel_cycles = 0;
  /// Trace span label for the kernel (must outlive the run).
  const char* kernel_name = "kernel";
  std::uint64_t flops = 0;
  /// Workload-defined solve count of this chunk (cell-angle solves for
  /// the sweep, site updates for the stencil); accumulated into
  /// RunReport::cell_solves and the grind time.
  std::uint64_t work_units = 0;
  /// Pipeline schedule of one kernel invocation, folded into the
  /// per-SPE "pipeline" counter set.
  cell::PipelineStats stats;
};

/// Upstream view handed to a dependency policy: `ready[i]` is when
/// chunk i of the *previous* batch satisfies a downstream reader
/// (completion time under centralized dispatch, where faces travel
/// through main memory; compute end under distributed dispatch, where
/// faces forward SPE-to-SPE from the upstream local store). `hop` is
/// the extra latency a dependency edge pays (one atomic operation
/// under distributed dispatch, zero when centralized); `barrier` is
/// the floor every chunk of the batch inherits.
struct UpstreamView {
  const std::vector<sim::Tick>& ready;
  sim::Tick barrier = 0;
  sim::Tick hop = 0;
};

/// Maps a chunk index to the time its upstream dependencies are
/// satisfied. Must return at least view.barrier; with an empty
/// view.ready (first batch after a block barrier) it should return
/// view.barrier. Pure: called multiple times per chunk.
using DependencyPolicy = std::function<sim::Tick(const UpstreamView&, int)>;

/// The workload-agnostic streaming engine (see file comment).
class StreamingPipeline {
 public:
  /// Builds the machine, attaches observability and faults, and
  /// performs the LS placement on every SPE. Throws
  /// cell::LocalStoreOverflow when the placement exceeds the local
  /// store and sim::FaultError when the fault plan disables every SPE.
  /// With cfg.spe_allocator set, additionally claims SPEs from the
  /// shared allocator (blocking until at least one is free);
  /// the allocator's width must match cfg.chip.num_spes
  /// (std::invalid_argument otherwise).
  StreamingPipeline(const StreamConfig& cfg, const LsPlacement& placement);
  /// Releases any SPE claim still held (finish() already released it on
  /// the normal path).
  ~StreamingPipeline();

  /// Streams one batch of independent chunks through the machine.
  /// @p new_block opens a new pipeline block: all outstanding work
  /// becomes a hard barrier and the upstream history resets (the sweep
  /// uses it at (octant, angle-block, K-block) boundaries; a free-
  /// running stencil never does after the first batch).
  ///
  /// QoS inside the batch: at each wave boundary the pipeline (a)
  /// throws RunCancelled when StreamConfig::cancel reads true, and (b)
  /// yields SPEs at chunk granularity when a strictly higher-weight
  /// claim is blocked (SpeAllocator::priority_pressure) -- the
  /// not-yet-started chunks are reassigned to the surviving claim and
  /// the wave narrows. Without a cancel flag or a higher-weight waiter
  /// both checks are pure observation and the batch is byte-identical
  /// to the pre-QoS arithmetic.
  void run_batch(const std::vector<StreamChunkSpec>& specs,
                 const DependencyPolicy& deps, bool new_block);

  /// Accounts one whole-field streaming pass through main memory at
  /// the current horizon (the sweep's per-iteration source-moment
  /// rebuild, the stencil's per-iteration residual reduction). The
  /// pass serializes: no later work starts before it drains.
  void memory_pass(const char* name, double bytes);

  /// Drains outstanding work and assembles the machine-side report
  /// (timing, stall partition, counter tree, fault summary). Under
  /// CELLSWEEP_HAZARD_CHECK (engine-owned checker only) throws
  /// analysis::HazardError when protocol violations were found.
  RunReport finish();

  /// Current completion horizon; monotone across batches.
  sim::Tick horizon() const noexcept { return p_.next_barrier; }

  /// External gate: no work fed after this call may start before
  /// @p at. Models a blocking boundary receive (the RECV of Figure 2)
  /// when this chip is one rank of a process-level decomposition. Gate
  /// between blocks (after close_block): the gate then lands in the
  /// next block's key, not in an open block's recorded effect.
  void gate(sim::Tick at) {
    applied_.reset();
    p_.next_barrier = std::max(p_.next_barrier, at);
    p_.reports_horizon = std::max(p_.reports_horizon, at);
  }

  // --- Block fast-forward ---------------------------------------------
  //
  // A workload whose blocks start behind a hard barrier (the first
  // batch of each block opens a new block) can have each block priced
  // once: the model is translation-invariant in time, so a later block
  // that starts from the same canonical state lands every clock at the
  // same offset from its base and grows every counter by the same
  // delta. A block that is fast-forwarded gets that effect applied in
  // place and no batch; the report is byte-identical to a full replay.

  /// Opens a block at the current horizon, keyed by @p salt (whatever
  /// of the workload the pipeline cannot see, e.g. the sweep's fixup
  /// flag; the same number of values on every call) plus the machine's
  /// canonical state.
  /// Returns true when an earlier block with the same key was applied:
  /// the caller then feeds no batch until close_block(). Otherwise the
  /// block is recorded for later ones and the caller streams it. Always
  /// false, and nothing recorded, when fast-forward would hide something
  /// that watches or perturbs single chunks: a trace sink (a profiler
  /// is one), a hazard observer (CELLSWEEP_HAZARD_CHECK included), an
  /// enabled fault plan, an SPE allocator or a cancel flag; or when a
  /// published floating-point counter is not an exact integer.
  ///
  /// Successor links: when the block just closed was recorded as, or
  /// fast-forwarded from, memo entry i, and no batch, memory pass, gate
  /// or finish() came since, the key depends on i and the salt alone
  /// (fast_forward overwrites every clock the key reads). So each entry
  /// keeps the entry the next block's key matched, and a block that
  /// follows i with that entry's salt applies it without building the
  /// key.
  bool open_block(std::initializer_list<std::int64_t> salt);

  /// Closes the open block (no-op when none is): stores a recorded
  /// block in the memo. The caller guarantees that a fast-forwarded
  /// block stands for the same work as the block it repeats (the sweep's
  /// TimingEngine checks every diagonal against its block walker).
  void close_block();

 private:
  struct SpeClock {
    sim::Tick request_at = 0;   ///< ready to ask for the next chunk
    sim::Tick compute_free = 0; ///< SPU free for the next kernel
    sim::Tick put_done = 0;     ///< last writeback completed
    /// Chunks ever assigned to this SPE; chunk k streams through LS
    /// buffer k % buffers (the double-buffer rotation).
    std::uint64_t served = 0;
    // Stall accounting (ticks; observation only, never read back into
    // the clocks above).
    sim::Tick dma_wait = 0;
    sim::Tick sync_wait = 0;
    /// Per-kernel pipeline schedules folded over the run (the Section
    /// 5.1 counters, published into the "spe<N>/pipeline" counter set).
    cell::PipelineStats pipe;
  };

  /// The pipeline's own clocks and counters (each SpeClock and each
  /// machine unit keeps its own).
  struct Progress {
    sim::Tick barrier = 0;          ///< hard barrier (block boundary)
    sim::Tick next_barrier = 0;     ///< completion horizon of all work
    sim::Tick reports_horizon = 0;  ///< when the PPE has seen all reports
    int rr_spe = 0;                 ///< cyclic SPE assignment cursor
    /// Global chunk sequence: the token binding a chunk's grant, DMAs,
    /// kernel and report together for the protocol checker.
    std::uint64_t token_seq = 0;
    std::uint64_t flops = 0;
    std::uint64_t work_units = 0;
    std::uint64_t chunks = 0;
    double compute_cycles = 0;  ///< healthy-path kernel cycles, all SPEs
  };

  /// Every mutable clock and counter of the pipeline and its machine
  /// (observability, fault and allocator state excluded: fast-forward
  /// never runs with them armed). The upstream history is left out and
  /// fast_forward leaves the barrier alone: the first batch of the next
  /// block overwrites both.
  struct Snapshot {
    Progress progress;
    std::vector<SpeClock> spes;
    std::vector<cell::Spe::State> spe_units;
    std::vector<cell::Mfc::State> mfcs;
    cell::Mic::State mic;
    sim::BandwidthResource::State eib;
    cell::DispatchFabric::State dispatch;
  };
  /// One priced block: its key, the snapshots at its base and end, and
  /// its successor link: the entry whose key the next block matched
  /// when nothing ran between the two (see open_block).
  struct Block {
    std::vector<std::int64_t> key;
    Snapshot start;
    Snapshot end;
    std::optional<std::size_t> next;
  };

  /// One chunk of the batch being streamed: its spec, SPE, staging
  /// buffer and clocks.
  struct Chunk {
    const StreamChunkSpec* spec;
    int spe;
    int buf;
    std::uint64_t token;
    /// Failover delay this chunk pays before dispatch: the PPE watchdog
    /// time spent declaring its original SPE dead and re-dispatching.
    sim::Tick extra = 0;
    sim::Tick grant = 0;
    sim::Tick get_done = 0;
    sim::Tick get_issue_done = 0;
    sim::Tick compute_end = 0;
    sim::Tick completion = 0;
    std::size_t staged_bytes = 0;  ///< LS bytes the kernel consumes
  };

  /// Next live SPE in cyclic order. Detects SPEs that reach their
  /// fail-after-chunks threshold: the victim is declared dead, its
  /// chunk is re-dispatched to the next survivor, and @p extra
  /// accumulates the PPE watchdog detection delay the re-dispatched
  /// chunk pays. Throws sim::FaultError when no SPE is left.
  int pick_spe(sim::Tick& extra);
  /// Splits the SPU wait [base, max(dma_ready, sync_ready)) between the
  /// DMA-wait and sync-wait buckets of @p spe and emits wait spans.
  void account_wait(int spe_index, sim::Tick base, sim::Tick dma_ready,
                    sim::Tick sync_ready);
  /// Emits issue/queue/transfer spans for one DMA command.
  void trace_dma(int spe_index, const char* name, sim::Tick submitted,
                 const cell::DmaCompletion& c, bool to_memory);
  /// Submits one DMA of chunk @p c at @p from: @p bytes of its
  /// transfer plan in direction @p dir, through main memory or, when
  /// not @p to_memory, SPE to SPE. A get lands after the chunk's
  /// earlier gets in its staging buffer (c.staged_bytes grows by its
  /// payload); the put writes the buffer back. Traces the command as
  /// @p name and reports it to the hazard observer.
  cell::DmaCompletion submit_dma(Chunk& c, const char* name, cell::DmaDir dir,
                                 std::size_t bytes, sim::Tick from,
                                 bool to_memory);
  /// Batch-boundary claim adjustment (allocator tenants only): under
  /// pressure yields down to min(spes_needed, fair share), with slack
  /// regrows toward spes_needed.
  void rebalance(std::size_t batch_chunks);
  /// SPEs @p chunks chunks can feed: ceil(chunks / buffers), clamped to
  /// [1, chip width].
  int spes_needed(std::size_t chunks) const;
  /// Rebuilds claimed_ from claim_ and folds its size into the smallest
  /// and largest claim the run held.
  void claim_changed();
  /// Chunks per wave: `buffers` per live SPE we hold (at least one).
  std::size_t wave_width() const;

  /// Canonicalizes the machine at the current horizon, the base of the
  /// next block, and appends the state's key relative to that base to
  /// @p key. Canonical means: MFC slots sorted; slots and tag groups
  /// raised to their SPE's floor min(request_at, base); the EIB raised
  /// to the lowest floor; the dispatch servers raised to the base. No
  /// later command, tag wait, grant or report on a unit starts before
  /// its floor, so a raised value changes no tick and no counter --
  /// given that the next batch opens a new block, so no grant precedes
  /// the base.
  void canonical_key(std::vector<std::int64_t>& key);
  Snapshot snapshot() const;
  /// True when the published floating-point counters (MFC, MIC and EIB
  /// bytes, compute cycles) hold exact integers below 2^53, so adding a
  /// recorded delta equals adding its increments one by one.
  bool exact_counters() const;
  /// Applies @p block, recorded from its base to its end, in place:
  /// clocks move to the current base plus their recorded offset;
  /// counters add their recorded delta, MIC bank counts rotated to the
  /// current bank cursor. Returns false, changing nothing, unless every
  /// published floating-point counter is exact before and after.
  bool fast_forward(const Block& block);
  /// Fast-forwards memo entry @p i and opens it as the skipped block;
  /// false when fast_forward refuses.
  bool skip_as(std::size_t i);

  /// A pipeline is confined to its tenant thread: the simulated clocks
  /// are plain fields, and only claim_ transitions (which go through
  /// the allocator's lock) are ever visible across threads. The guard
  /// turns an accidental cross-thread run_batch/finish into a
  /// deterministic report instead of a silent data race.
  util::ThreadConfined confined_;

  StreamConfig cfg_;
  cell::CellProcessor machine_;

  std::vector<SpeClock> spes_;
  Progress p_;
  /// The batch being streamed (kept to reuse its storage).
  std::vector<Chunk> batch_;
  /// Readiness of each chunk of the previous batch in the current
  /// block, indexed by StreamChunkSpec::index: completion time (faces
  /// through memory) and compute end (faces forwarded SPE-to-SPE).
  std::vector<sim::Tick> prev_completion_;
  std::vector<sim::Tick> prev_compute_end_;
  std::size_t ls_high_water_ = 0;
  /// LS offset of each chunk staging buffer (identical on every SPE;
  /// the hazard annotations use them to name DMA targets).
  std::vector<std::size_t> buffer_offsets_;

  // Protocol observability (null observer: every emit is one branch).
  cell::MachineObserver* observer_ = nullptr;
  /// CELLSWEEP_HAZARD_CHECK strict mode: pipeline-owned checker + sink
  /// (finish() turns its errors into analysis::HazardError).
  std::unique_ptr<analysis::Diagnostics> owned_diags_;
  std::unique_ptr<analysis::HazardChecker> owned_checker_;

  // Observability (null sink: tracks stay empty, every emit is one
  // branch).
  sim::TraceSink* sink_ = nullptr;
  int ppe_track_ = 0;
  int eib_track_ = 0;
  int mic_track_ = 0;
  std::vector<int> spe_tracks_;

  // Fault injection and graceful degradation (inert when the plan is
  // disabled: alive_ stays all-true and pick_spe reduces to the plain
  // cyclic cursor).
  sim::FaultPlan fault_plan_;
  std::vector<char> alive_;   ///< one flag per SPE
  std::vector<char> failed_;  ///< died mid-sweep (subset of !alive_)
  int spes_disabled_ = 0;
  int spes_failed_ = 0;
  std::uint64_t redispatched_chunks_ = 0;
  sim::Tick failover_ticks_ = 0;

  // Multi-tenant SPE partitioning (inert without cfg.spe_allocator:
  // claimed_ stays all-true and pick_spe / the wave width see every
  // SPE, byte-identical to the single-tenant build).
  SpeAllocator::Claim claim_;
  std::vector<char> claimed_;  ///< one flag per SPE: ours right now
  /// Smallest and largest claim the run ever held.
  int min_claimed_ = std::numeric_limits<int>::max();
  int max_claimed_ = 0;
  std::uint64_t rebalance_shrinks_ = 0;
  std::uint64_t rebalance_expands_ = 0;
  /// Chunk-granularity yields to a higher-weight waiter (mid-batch, at
  /// wave boundaries), as opposed to the batch-boundary rebalances.
  std::uint64_t preempt_yields_ = 0;

  // Block fast-forward: the priced blocks, the key buffer (reused), the
  // block being recorded or the memo entry being repeated, and the
  // entry whose end state the machine is in (the last block closed was
  // recorded as or skipped from it, and nothing ran since).
  std::vector<Block> memo_;
  std::vector<std::int64_t> key_;
  std::optional<Block> recording_;
  std::optional<std::size_t> skipping_;
  std::optional<std::size_t> applied_;
};

}  // namespace cellsweep::core
