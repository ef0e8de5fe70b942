#include "cellsim/memory.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sim/counters.h"
#include "sim/fault.h"

namespace cellsweep::cell {

Mic::Mic(const CellSpec& spec) : spec_(spec) {
  if (spec_.mic_bytes_per_s <= 0.0)
    throw std::invalid_argument("Mic: rate must be positive");
  // A request striped over k of n banks can use at most k/n of the
  // aggregate DRAM bandwidth, but command interleaving recovers part of
  // the loss; empirically the penalty is roughly the square root of the
  // naive ratio. Floor at the spec's minimum efficiency.
  for (std::size_t k = 0; k < bank_eff_.size(); ++k) {
    const double naive = static_cast<double>(std::max<std::size_t>(k, 1)) /
                         static_cast<double>(spec_.memory_banks);
    bank_eff_[k] = std::max(std::sqrt(naive), spec_.dma_min_efficiency);
  }
}

double Mic::bank_efficiency(int banks_touched) const {
  if (banks_touched >= spec_.memory_banks) return 1.0;
  const int k = std::clamp(banks_touched, 0, kMaxBanks);
  return bank_eff_[static_cast<std::size_t>(k)];
}

sim::Tick Mic::submit(sim::Tick now, double bytes, sim::Tick overhead,
                      double efficiency, std::uint64_t elements,
                      int banks_touched, bool is_write) {
  if (efficiency <= 0.0 || efficiency > 1.0)
    throw std::invalid_argument("Mic::submit: efficiency out of (0,1]");
  if (elements < 1) elements = 1;
  // banks_touched <= 0 means "streams over all banks": no penalty, the
  // exact behavior all pre-counter call sites had.
  const int banks = banks_touched < 1 ? spec_.memory_banks : banks_touched;
  double eff = efficiency * bank_efficiency(banks);
  // Reduced efficiency means the payload occupies the port longer, as
  // if it carried bytes/efficiency of traffic, and each element pays
  // one burst-turnaround gap; the logical byte count is still recorded
  // for the Section 6 traffic audit.
  const double inflated =
      bytes / eff + static_cast<double>(elements) * spec_.dram_gap_bytes;
  s_.logical_bytes += bytes;

  // Counters (observation only). Elements are attributed round-robin
  // over the touched banks from a rotating cursor -- the deterministic
  // stand-in for the address interleaving the model abstracts away.
  // The touched banks are the two contiguous ranges [cursor, total)
  // and [0, wrap), walked without a modulo per bank.
  (is_write ? s_.writes : s_.reads) += 1;
  auto& per_bank = is_write ? s_.bank_writes : s_.bank_reads;
  const int total_banks = spec_.memory_banks;
  const std::uint64_t each = elements / static_cast<std::uint64_t>(banks);
  const std::uint64_t rem = elements % static_cast<std::uint64_t>(banks);
  const int head = std::min(banks, total_banks - s_.bank_cursor);
  for (int b = 0; b < banks; ++b) {
    const int bank = b < head ? s_.bank_cursor + b : b - head;
    per_bank[static_cast<std::size_t>(bank)] +=
        each + (static_cast<std::uint64_t>(b) < rem ? 1 : 0);
  }
  s_.bank_cursor = (s_.bank_cursor + static_cast<int>(rem % total_banks)) %
                   total_banks;
  if (eff < efficiency)
    s_.conflict += sim::ticks_for_bytes(bytes / eff - bytes / efficiency,
                                        spec_.mic_bytes_per_s);

  // A throttled request hits a bank mid-refresh (or a degraded bank)
  // and streams at a fraction of its normal efficiency. The decision is
  // pure in the port-request sequence number; the extra occupancy is
  // attributed to throttle_ticks, separate from bank conflicts.
  double occupancy = inflated;
  if (faults_ != nullptr && faults_->enabled() &&
      faults_->mic_throttle(fault_seq_++)) {
    const double throttled_eff = eff * faults_->mic_throttle_factor();
    occupancy = bytes / throttled_eff +
                static_cast<double>(elements) * spec_.dram_gap_bytes;
    ++throttled_requests_;
    throttle_ +=
        sim::ticks_for_bytes(occupancy - inflated, spec_.mic_bytes_per_s);
  }

  return s_.port.submit(spec_.mic_bytes_per_s, now, occupancy, overhead);
}

void Mic::publish_counters(sim::CounterSet& out) const {
  out.set("reads", static_cast<double>(s_.reads));
  out.set("writes", static_cast<double>(s_.writes));
  out.set("logical_bytes", s_.logical_bytes);
  out.set("requests", static_cast<double>(s_.port.requests));
  out.set("busy_ticks", static_cast<double>(s_.port.busy));
  out.set("queue_wait_ticks", static_cast<double>(s_.port.wait));
  out.set("bank_conflict_ticks", static_cast<double>(s_.conflict));
  if (faults_ != nullptr && faults_->enabled()) {
    out.set("throttled_requests", static_cast<double>(throttled_requests_));
    out.set("throttle_ticks", static_cast<double>(throttle_));
  }
  // child() returns a reference into out's children vector, which the
  // next child() call may reallocate: finish each subtree before
  // creating the next one.
  sim::CounterSet& rd = out.child("bank_reads");
  for (int b = 0; b < spec_.memory_banks; ++b) {
    char name[16];
    std::snprintf(name, sizeof name, "bank%02d", b);
    rd.set(name,
           static_cast<double>(s_.bank_reads[static_cast<std::size_t>(b)]));
  }
  sim::CounterSet& wr = out.child("bank_writes");
  for (int b = 0; b < spec_.memory_banks; ++b) {
    char name[16];
    std::snprintf(name, sizeof name, "bank%02d", b);
    wr.set(name,
           static_cast<double>(s_.bank_writes[static_cast<std::size_t>(b)]));
  }
}

void Eib::publish_counters(sim::CounterSet& out) const {
  out.set("grants", static_cast<double>(ring_.requests()));
  out.set("bytes_moved", ring_.bytes_moved());
  out.set("busy_ticks", static_cast<double>(ring_.busy_ticks()));
  out.set("contention_stall_ticks", static_cast<double>(ring_.wait_ticks()));
}

}  // namespace cellsweep::cell
