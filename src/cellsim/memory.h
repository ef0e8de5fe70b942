// Main-memory (MIC) and interconnect (EIB) models.
//
// The MIC provides 25.6 GB/s of peak bandwidth shared by all eight
// SPEs, the PPE and I/O -- the paper shows this is Sweep3D's ultimate
// bound (Section 6: 17.6 GB moved => >= 0.7 s). Main memory is spread
// over 16 interleaved banks; transfers that concentrate on few banks
// lose burst efficiency, which is why the port "adds offsets to the
// array allocation to more fairly spread the memory accesses across the
// 16 main memory banks" (Section 5). The EIB moves 204.8 GB/s
// aggregate; it only binds for LS-to-LS traffic patterns.
#pragma once

#include <array>
#include <cstdint>

#include "cellsim/spec.h"
#include "sim/resource.h"
#include "sim/time.h"

namespace cellsweep::sim {
class CounterSet;
class FaultPlan;
}

namespace cellsweep::cell {

/// Memory Interface Controller: FIFO bandwidth server plus the bank
/// interleaving efficiency model.
class Mic {
 public:
  explicit Mic(const CellSpec& spec);

  /// Effective streaming efficiency for a request whose addresses fall
  /// on @p banks_touched of the @p memory_banks banks with roughly even
  /// load. Touching all banks streams at peak; hammering one bank is
  /// limited by per-bank bandwidth.
  double bank_efficiency(int banks_touched) const;

  /// Submits a transfer of @p bytes that starts no earlier than @p now,
  /// pays @p overhead of fixed startup, and streams with transfer
  /// efficiency @p efficiency in (0,1]. @p elements transfer elements
  /// each charge one DRAM burst-turnaround gap of port occupancy
  /// (64-bit: a multi-GB request in quadword elements overflows int).
  /// @p banks_touched (1..memory_banks) applies the bank-interleaving
  /// penalty on top of @p efficiency; <= 0 means the access streams
  /// over all banks (no penalty -- the pre-counter behavior). @p
  /// is_write selects the read vs write per-bank accounting (counters
  /// only; timing is direction-blind). Returns the completion time.
  sim::Tick submit(sim::Tick now, double bytes, sim::Tick overhead,
                   double efficiency, std::uint64_t elements = 1,
                   int banks_touched = 0, bool is_write = false);

  /// Most banks the per-bank counters can attribute.
  static constexpr int kMaxBanks = 32;

  /// Every mutable clock and counter of the healthy-path MIC, as one
  /// plain struct (see Mfc::State; fault state stays outside).
  struct State {
    /// The FIFO port serving every request at the spec's peak rate.
    sim::BandwidthResource::State port;
    double logical_bytes = 0.0;
    // Counters (observation only).
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /// Port ticks lost to bank-interleaving inefficiency (the extra
    /// occupancy of bytes/(eff*bank_eff) over bytes/eff).
    sim::Tick conflict = 0;
    int bank_cursor = 0;  ///< rotating start bank for element attribution
    std::array<std::uint64_t, kMaxBanks> bank_reads{};
    std::array<std::uint64_t, kMaxBanks> bank_writes{};
  };
  const State& state() const noexcept { return s_; }
  void restore(const State& s) noexcept { s_ = s; }

  /// Logical payload bytes (the Section 6 "17.6 Gbytes" audit counts
  /// these, not the efficiency-inflated port occupancy).
  double bytes_moved() const noexcept { return s_.logical_bytes; }
  std::uint64_t requests() const noexcept { return s_.port.requests; }
  sim::Tick busy_ticks() const noexcept { return s_.port.busy; }

  /// Arms bank-throttle injection: a throttled request (DRAM refresh,
  /// a degraded bank) streams at a fraction of its normal efficiency.
  /// Pass nullptr to disarm; a disabled plan is equivalent.
  void attach_faults(const sim::FaultPlan* plan) noexcept { faults_ = plan; }

  // Fault counters (zero unless a plan is armed).
  std::uint64_t throttled_requests() const noexcept {
    return throttled_requests_;
  }
  sim::Tick throttle_ticks() const noexcept { return throttle_; }

  /// Publishes MIC counters (reads/writes per bank, bank-conflict
  /// ticks, port busy/wait) into @p out. Snapshot only.
  void publish_counters(sim::CounterSet& out) const;

  void reset() noexcept {
    restore(State{});
    fault_seq_ = 0;
    throttled_requests_ = 0;
    throttle_ = 0;
  }

 private:
  CellSpec spec_;
  /// bank_efficiency() below full interleaving, indexed by banks
  /// touched (0 counts as 1); built once, read by every DMA command.
  std::array<double, kMaxBanks + 1> bank_eff_{};
  State s_;
  // Fault injection (inert unless armed); fault_seq_ numbers every port
  // request so throttle decisions are pure in request order.
  const sim::FaultPlan* faults_ = nullptr;
  std::uint64_t fault_seq_ = 0;
  std::uint64_t throttled_requests_ = 0;
  sim::Tick throttle_ = 0;
};

/// Element Interconnect Bus: aggregate bandwidth server. Every DMA
/// payload crosses it; completion of a main-memory DMA is the later of
/// the EIB and MIC finish times.
class Eib {
 public:
  explicit Eib(const CellSpec& spec)
      : ring_("EIB", spec.eib_bytes_per_s) {}

  sim::Tick submit(sim::Tick now, double bytes) {
    return ring_.submit(now, bytes);
  }

  /// Every mutable clock and counter of the ring (see Mfc::State).
  const sim::BandwidthResource::State& state() const noexcept {
    return ring_.state();
  }
  void restore(const sim::BandwidthResource::State& s) noexcept {
    ring_.restore(s);
  }

  double bytes_moved() const noexcept { return ring_.bytes_moved(); }
  sim::Tick busy_ticks() const noexcept { return ring_.busy_ticks(); }
  std::uint64_t grants() const noexcept { return ring_.requests(); }

  /// Publishes EIB counters (ring grants, bytes, contention stalls)
  /// into @p out. Snapshot only.
  void publish_counters(sim::CounterSet& out) const;

 private:
  sim::BandwidthResource ring_;
};

}  // namespace cellsweep::cell
