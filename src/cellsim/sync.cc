#include "cellsim/sync.h"

#include "sim/counters.h"
#include "sim/fault.h"

namespace cellsweep::cell {

const char* sync_protocol_name(SyncProtocol p) {
  switch (p) {
    case SyncProtocol::kMailbox:           return "mailbox";
    case SyncProtocol::kLsPoke:            return "ls-poke";
    case SyncProtocol::kAtomicDistributed: return "atomic-distributed";
  }
  return "?";
}

DispatchFabric::DispatchFabric(const CellSpec& spec)
    : spec_(spec),
      // MMIO mailbox writes serialize on the PPE: occupancy is the
      // message cost plus the PPE's per-chunk dispatch work (descriptor
      // construction, completion polling).
      ppe_mailbox_("ppe-mailbox", spec.mailbox_latency,
                   spec.mailbox_latency + spec.ppe_dispatch_overhead),
      ppe_poke_("ppe-ls-poke", spec.ls_poke_latency,
                spec.ls_poke_latency + spec.ppe_dispatch_overhead),
      // The atomic unit pipeline overlaps better: the reservation line
      // bounce costs the full latency but the unit frees up after half.
      atomic_unit_("atomic-unit", spec.atomic_op_latency,
                   spec.atomic_op_latency / 2) {}

sim::Tick DispatchFabric::send_message(sim::LatencyServer& server,
                                       sim::Tick now, sim::Tick latency,
                                       sim::Tick occupancy) {
  // Dropped sends: the message occupies the dispatcher (the PPE did the
  // work), never lands, and is resent once the resend timer fires. The
  // drop count per message is a pure function of the message sequence
  // number, so the schedule survives reordering of *other* decisions.
  if (faults_ != nullptr && faults_->enabled()) {
    const int drops = faults_->dispatch_drops(fault_seq_++);
    for (int d = 0; d < drops; ++d) {
      const sim::Tick sent = server.submit_with(now, latency, occupancy);
      const sim::Tick resend = sent + spec_.mailbox_drop_timeout;
      ++dropped_messages_;
      drop_wait_ticks_ += resend - now;
      now = resend;
    }
  }
  return server.submit_with(now, latency, occupancy);
}

sim::Tick DispatchFabric::acquire_work(sim::Tick now, SyncProtocol protocol) {
  confined_.check("DispatchFabric::acquire_work");
  ++grants_;
  switch (protocol) {
    case SyncProtocol::kMailbox:
      return send_message(ppe_mailbox_, now, spec_.mailbox_latency,
                          spec_.mailbox_latency + spec_.ppe_dispatch_overhead);
    case SyncProtocol::kLsPoke:
      return send_message(ppe_poke_, now, spec_.ls_poke_latency,
                          spec_.ls_poke_latency + spec_.ppe_dispatch_overhead);
    case SyncProtocol::kAtomicDistributed:
      // The atomic unit retries getllar/putllc internally; there is no
      // PPE message to drop.
      return atomic_unit_.submit(now);
  }
  return now;
}

sim::Tick DispatchFabric::report_done(sim::Tick now, SyncProtocol protocol) {
  confined_.check("DispatchFabric::report_done");
  ++reports_;
  // Completion polling is much cheaper than a grant: the PPE reads one
  // status word (and interleaves the polls with its dispatch work), so
  // the report only occupies the dispatcher for the raw message cost,
  // not the full per-chunk descriptor-construction overhead.
  switch (protocol) {
    case SyncProtocol::kMailbox:
      // PPE polls the outbound mailbox: a serialized MMIO access.
      return send_message(ppe_mailbox_, now, spec_.mailbox_latency,
                          spec_.mailbox_latency);
    case SyncProtocol::kLsPoke:
      // SPE DMAs a completion flag into cached main memory; the PPE
      // notices it from its own cache at poke-level cost.
      return send_message(ppe_poke_, now, spec_.ls_poke_latency,
                          spec_.ls_poke_latency);
    case SyncProtocol::kAtomicDistributed:
      // Nothing to report: the counter grant *is* the schedule. A local
      // store fence is all the SPE pays.
      return now + spec_.cycles(8);
  }
  return now;
}

DispatchFabric::State DispatchFabric::state() const noexcept {
  return State{ppe_mailbox_.state(), ppe_poke_.state(), atomic_unit_.state(),
               grants_, reports_};
}

void DispatchFabric::restore(const State& s) noexcept {
  ppe_mailbox_.restore(s.mailbox);
  ppe_poke_.restore(s.poke);
  atomic_unit_.restore(s.atomic);
  grants_ = s.grants;
  reports_ = s.reports;
}

void DispatchFabric::publish_counters(sim::CounterSet& out) const {
  out.set("grants", static_cast<double>(grants_));
  out.set("reports", static_cast<double>(reports_));
  out.set("mailbox_requests", static_cast<double>(ppe_mailbox_.requests()));
  out.set("ls_poke_requests", static_cast<double>(ppe_poke_.requests()));
  out.set("atomic_requests", static_cast<double>(atomic_unit_.requests()));
  if (faults_ != nullptr && faults_->enabled()) {
    out.set("dropped_messages", static_cast<double>(dropped_messages_));
    out.set("drop_wait_ticks", static_cast<double>(drop_wait_ticks_));
  }
}

void DispatchFabric::reset() noexcept {
  // A reset fabric may legitimately be re-driven by a different tenant
  // thread; confinement restarts with the new first caller.
  confined_.reset();
  ppe_mailbox_.reset();
  ppe_poke_.reset();
  atomic_unit_.reset();
  grants_ = 0;
  reports_ = 0;
  fault_seq_ = 0;
  dropped_messages_ = 0;
  drop_wait_ticks_ = 0;
}

}  // namespace cellsweep::cell
