// Memory Flow Controller (per-SPE DMA engine) model.
//
// The MFC accepts DMA commands from its SPU through the channel
// interface, queues up to 16 of them, and executes transfers between
// the local store and anything on the EIB. The command rules modeled
// here are the CBEA rules the paper quotes in Section 2:
//   * naturally aligned transfers of 1/2/4/8 bytes, or multiples of
//     16 bytes up to 16 KB;
//   * DMA-list commands batching up to 2048 transfers under a single
//     command (the Fig. 5 "DMA lists" optimization);
//   * peak efficiency requires 128-byte aligned addresses and sizes
//     that are even multiples of 128 bytes.
//
// Timing: the SPU pays a channel-issue cost per command; the command
// then waits for a queue slot, pays a memory-side startup overhead, and
// streams its payload through the EIB and the MIC (whichever finishes
// later bounds completion).
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "cellsim/memory.h"
#include "cellsim/spec.h"
#include "sim/time.h"

namespace cellsweep::sim {
class CounterSet;
class FaultPlan;
}

namespace cellsweep::cell {

/// Thrown for commands that violate the CBEA DMA rules.
class DmaError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// Direction of a transfer relative to the local store.
enum class DmaDir : std::uint8_t { kGet, kPut };

/// Tag groups per MFC (CBEA: a 5-bit tag identifies the group a
/// command joins; tag-status waits resolve per group).
inline constexpr unsigned kMfcTagGroups = 32;

/// One DMA request as the orchestrator sees it: @p total_bytes of
/// payload moved in elements of (at most) @p element_bytes. With
/// as_list=true this is a single DMA-list command; with as_list=false
/// it accounts a batch of *individual* commands of the same shape (the
/// pre-"DMA lists" implementation that issues one command per 512-byte
/// row). A trailing partial element carries the remainder, so the
/// payload equals total_bytes exactly.
struct DmaRequest {
  DmaDir dir = DmaDir::kGet;
  std::size_t total_bytes = 0;    ///< payload moved by the whole request
  std::size_t element_bytes = 0;  ///< size of one transfer element
  std::size_t alignment = 128;    ///< address alignment of the transfers
  bool as_list = true;            ///< list command vs individual commands
  int banks_touched = 16;         ///< bank spread of the payload addresses
  /// LS-to-LS transfer (SPE to SPE over the EIB): never touches the
  /// MIC, sustains the EIB's much higher rate. Used by the distributed
  /// variant to forward wavefront faces directly between SPEs.
  bool ls_to_ls = false;
  /// Tag group this command joins (0..31). Commands sharing a tag
  /// complete as a group under wait_tag() -- the CBEA discipline the
  /// double-buffer protocol relies on.
  unsigned tag = 0;
  /// Local-store region identity: the LS byte range this command reads
  /// (put) or writes (get). Pure annotation consumed by the hazard
  /// checker; ls_bytes == 0 means unannotated (timing is unaffected
  /// either way).
  std::size_t ls_offset = 0;
  std::size_t ls_bytes = 0;

  /// Transfer elements in this request, including a trailing partial
  /// one. Returns std::size_t: a multi-GB request in quadword elements
  /// exceeds INT_MAX elements, which the old int return truncated.
  std::size_t elements() const {
    if (element_bytes == 0) return 1;
    return (total_bytes + element_bytes - 1) / element_bytes;
  }
};

/// Completion report for a submitted command.
struct DmaCompletion {
  sim::Tick issue_done;  ///< when the SPU may continue (command queued)
  sim::Tick done;        ///< when the payload transfer completes
  /// When the command left the MFC queue and its payload started
  /// moving; issue_done..start is queue back-pressure wait. Observation
  /// only (the trace layer splits issue/queue/transfer phases on it).
  sim::Tick start = 0;
  /// Transient failures this command suffered before succeeding (0 on
  /// the healthy path). Each failed attempt re-streamed the payload and
  /// paid detection + exponential backoff; `done` is the successful
  /// attempt's completion. Observation only.
  int retries = 0;
};

/// Per-SPE DMA engine.
class Mfc {
 public:
  Mfc(const CellSpec& spec, Eib* eib, Mic* mic, std::string name);

  /// Validates @p req against the CBEA rules; throws DmaError with a
  /// description if illegal. Called by submit(); exposed for tests.
  void validate(const DmaRequest& req) const;

  /// Submits a command at @p now. Handles queue-full back-pressure:
  /// if 16 commands are outstanding the SPU blocks until a slot frees.
  /// With a fault plan attached, the command may fail transiently:
  /// each failed attempt streams its payload, is detected via the tag
  /// status fail bit, waits an exponential backoff and resubmits (the
  /// completion reports the retry count).
  DmaCompletion submit(sim::Tick now, const DmaRequest& req);

  /// Arms fault injection for this MFC (@p unit is the decision-hash
  /// coordinate, the SPE index). Pass nullptr to disarm. The plan must
  /// outlive the MFC; a disabled plan is equivalent to nullptr.
  void attach_faults(const sim::FaultPlan* plan, int unit) noexcept {
    faults_ = plan;
    fault_unit_ = unit;
  }

  /// Blocks until all outstanding commands complete ("tag wait").
  sim::Tick wait_all(sim::Tick now) const;

  /// Blocks until every command submitted under @p tag has completed
  /// (MFC tag-status wait for one group). Returns @p now when the
  /// group is already drained (or never used).
  sim::Tick wait_tag(sim::Tick now, unsigned tag) const;

  /// Transfer efficiency for a single transfer of @p bytes with
  /// @p alignment: fraction of peak DRAM burst utilization. 128-byte
  /// aligned, >=128-byte transfers run at 1.0.
  double transfer_efficiency(std::size_t bytes, std::size_t alignment) const;

  /// Burst efficiency of a whole request: full elements at their own
  /// rate plus the trailing partial element (total_bytes %
  /// element_bytes) at *its* real size -- a 16-byte tail does not ride
  /// at a 512-byte element's efficiency.
  double request_efficiency(const DmaRequest& req) const;

  /// Every mutable clock and counter of the healthy-path MFC, as one
  /// plain struct: the timing engine's block fast-forward captures
  /// and restores whole unit states (core::StreamingPipeline::Snapshot).
  /// Fault-injection state stays outside: fast-forward never runs with
  /// a fault plan armed.
  struct State {
    /// Completion times of outstanding commands (the first
    /// queue_depth() entries are live).
    std::array<sim::Tick, 32> slots{};
    /// Latest completion time per tag group (monotone: a group's wait
    /// must cover every command ever submitted under it).
    std::array<sim::Tick, kMfcTagGroups> tag_done{};
    std::uint64_t commands = 0;
    std::uint64_t transfers = 0;
    double bytes = 0.0;
    std::array<std::uint64_t, 32> occupancy_hist{};
    // Command-mix and stall counters (observation only; the tag-wait
    // ones are bumped from the const wait entry points, which never
    // change timing state).
    std::uint64_t get_commands = 0;
    std::uint64_t put_commands = 0;
    std::uint64_t list_commands = 0;
    std::uint64_t ls_to_ls_commands = 0;
    std::uint64_t queue_full_commands = 0;
    sim::Tick queue_full_ticks = 0;
    std::uint64_t tag_waits = 0;
    sim::Tick tag_wait_ticks = 0;
  };
  const State& state() const noexcept { return s_; }
  void restore(const State& s) noexcept { s_ = s; }

  std::uint64_t commands() const noexcept { return s_.commands; }
  std::uint64_t transfers() const noexcept { return s_.transfers; }
  double bytes_requested() const noexcept { return s_.bytes; }
  const std::string& name() const noexcept { return name_; }

  // Fault/resilience counters (all zero unless a plan is armed).
  std::uint64_t retried_commands() const noexcept { return retried_commands_; }
  std::uint64_t retry_attempts() const noexcept { return retry_attempts_; }
  sim::Tick retry_backoff_ticks() const noexcept { return retry_backoff_; }
  std::uint64_t tag_timeouts() const noexcept { return tag_timeouts_; }
  sim::Tick tag_timeout_ticks() const noexcept { return tag_timeout_ticks_; }

  /// Publishes this MFC's counters (commands by type, bytes moved,
  /// queue-full back-pressure, tag waits) into @p out. Snapshot only;
  /// never feeds back into timing.
  void publish_counters(sim::CounterSet& out) const;

  /// Queue occupancy histogram: occupancy_histogram()[k] counts
  /// commands that found k earlier commands still outstanding when they
  /// entered the queue (k ranges 0..depth-1; a full queue blocks until
  /// a slot frees, so depth-1 is the maximum observable).
  const std::array<std::uint64_t, 32>& occupancy_histogram() const noexcept {
    return s_.occupancy_hist;
  }
  int queue_depth() const noexcept { return depth_; }

  void reset() noexcept;

 private:
  CellSpec spec_;
  Eib* eib_;
  Mic* mic_;
  std::string name_;
  int depth_;
  /// Mutable: the const wait entry points bump its tag-wait counters.
  mutable State s_;
  /// request_efficiency() per request shape. A run issues a handful of
  /// shapes (chunk widths x bulk, face and put), so each is priced once
  /// and read back from this direct-mapped table; an entry is a pure
  /// function of the shape, so the table is not part of State.
  struct EfficiencyMemo {
    std::size_t total_bytes = 0;  ///< 0 never matches: validate() rejects it
    std::size_t element_bytes = 0;
    std::size_t alignment = 0;
    double efficiency = 1.0;
  };
  static constexpr int kEffMemoBits = 4;
  std::array<EfficiencyMemo, 1u << kEffMemoBits> eff_memo_{};
  double memo_efficiency(const DmaRequest& req);
  // Fault injection (inert unless attach_faults() armed a plan). The
  // sequence counters are the decision-hash coordinates: one per DMA
  // command submitted, one per tag wait served, so the schedule is a
  // pure function of submission order.
  const sim::FaultPlan* faults_ = nullptr;
  int fault_unit_ = 0;
  std::uint64_t fault_seq_ = 0;
  mutable std::uint64_t tag_fault_seq_ = 0;
  std::uint64_t retried_commands_ = 0;
  std::uint64_t retry_attempts_ = 0;
  sim::Tick retry_backoff_ = 0;
  mutable std::uint64_t tag_timeouts_ = 0;
  mutable sim::Tick tag_timeout_ticks_ = 0;
};

}  // namespace cellsweep::cell
