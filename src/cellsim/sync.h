// PPE <-> SPE synchronization protocols.
//
// The paper walks through three ways of handing work to SPEs and
// learning when it finishes, and two of its optimization steps hinge on
// the difference:
//   * kMailbox -- the baseline: the PPE writes each SPE's inbound
//     mailbox over MMIO and polls outbound mailboxes. Every message is
//     a serialized uncached bus round trip through the PPE.
//   * kLsPoke -- the Section 5 optimization ("a combination of DMAs and
//     direct local store memory poking"): the PPE writes a control word
//     straight into the SPE's memory-mapped local store and SPEs post
//     completions by DMA into main memory. Cheaper per message, still
//     centralized on the PPE (Fig. 5, 1.48 -> 1.33 s).
//   * kAtomicDistributed -- the Fig. 10 projection: SPEs self-schedule
//     by atomic fetch-and-add on a shared work counter using the MFC
//     atomic unit; the PPE leaves the critical path entirely.
//
// Centralized protocols share one server (the PPE); the distributed
// protocol shares the reservation line of the work counter, which
// bounces between SPE atomic units but costs far less per grant.
#pragma once

#include <cstdint>
#include <string>

#include "cellsim/spec.h"
#include "sim/resource.h"
#include "sim/time.h"
#include "util/concurrency_check.h"

namespace cellsweep::sim {
class CounterSet;
class FaultPlan;
}

namespace cellsweep::cell {

/// Work-dispatch protocol selector (see file comment).
enum class SyncProtocol : std::uint8_t {
  kMailbox,
  kLsPoke,
  kAtomicDistributed,
};

/// Returns a printable protocol name.
const char* sync_protocol_name(SyncProtocol p);

/// Models the cost of granting one work item to an SPE and of the SPE
/// reporting back, under each protocol.
class DispatchFabric {
 public:
  explicit DispatchFabric(const CellSpec& spec);

  /// An SPE asks for (or is handed) the next work item at @p now.
  /// Returns the time at which the SPE holds the item's descriptor.
  sim::Tick acquire_work(sim::Tick now, SyncProtocol protocol);

  /// The SPE signals completion of an item at @p now; returns when the
  /// scheduler (PPE or the shared counter) has absorbed it.
  sim::Tick report_done(sim::Tick now, SyncProtocol protocol);

  std::uint64_t grants() const noexcept { return grants_; }
  std::uint64_t reports() const noexcept { return reports_; }

  /// Every mutable clock and counter of the healthy-path fabric, as
  /// one plain struct (see Mfc::State; fault state stays outside).
  struct State {
    sim::LatencyServer::State mailbox;
    sim::LatencyServer::State poke;
    sim::LatencyServer::State atomic;
    std::uint64_t grants = 0;
    std::uint64_t reports = 0;
  };
  State state() const noexcept;
  void restore(const State& s) noexcept;

  /// Arms message-drop injection: centralized dispatch messages
  /// (mailbox writes, LS pokes) may be dropped and resent after a
  /// timeout. Pass nullptr to disarm; a disabled plan is equivalent.
  /// The distributed atomic protocol has no message to lose.
  void attach_faults(const sim::FaultPlan* plan) noexcept { faults_ = plan; }

  // Fault counters (zero unless a plan is armed).
  std::uint64_t dropped_messages() const noexcept { return dropped_messages_; }
  sim::Tick drop_wait_ticks() const noexcept { return drop_wait_ticks_; }

  /// Publishes dispatch counters (grants, reports, per-server request
  /// counts) into @p out. Snapshot only.
  void publish_counters(sim::CounterSet& out) const;

  void reset() noexcept;

 private:
  /// Simulated time is advanced by exactly one tenant thread; the
  /// latency-server queues are plain fields with no lock. The guard
  /// makes a cross-thread acquire/report a deterministic report
  /// instead of corrupted simulated clocks.
  util::ThreadConfined confined_;

  CellSpec spec_;
  sim::LatencyServer ppe_mailbox_;
  sim::LatencyServer ppe_poke_;
  sim::LatencyServer atomic_unit_;
  std::uint64_t grants_ = 0;
  std::uint64_t reports_ = 0;
  // Fault injection (inert unless armed); fault_seq_ numbers every
  // centralized message sent, making drop decisions a pure function of
  // message order.
  const sim::FaultPlan* faults_ = nullptr;
  std::uint64_t fault_seq_ = 0;
  std::uint64_t dropped_messages_ = 0;
  sim::Tick drop_wait_ticks_ = 0;

  /// Runs one centralized message through @p server, retrying dropped
  /// sends after the resend timeout when a fault plan is armed.
  sim::Tick send_message(sim::LatencyServer& server, sim::Tick now,
                         sim::Tick latency, sim::Tick occupancy);
};

}  // namespace cellsweep::cell
