// Shared-resource models of the machine's simulated clocks.
//
// Two kinds cover everything the Cell model needs:
//   * BandwidthResource -- a store-and-forward link serving requests
//     FIFO at a fixed byte rate (the MIC's 25.6 GB/s port, one EIB
//     ring). Completion time of a request is when the link finishes
//     draining it, so concurrent requesters naturally contend.
//   * LatencyServer -- a fixed-latency, fixed-occupancy server
//     (mailbox write, atomic-unit op): each request holds the server
//     for `occupancy` and completes `latency` after it started service.
//
// Both accumulate busy-time so benches can report utilization.
#pragma once

#include <cstdint>
#include <string>

#include "sim/time.h"

namespace cellsweep::sim {

/// FIFO bandwidth-shared link. Not itself event-driven: callers ask
/// "when would a transfer of N bytes submitted at time T complete?" and
/// the resource serializes requests in submission order. This is exact
/// for FIFO service and keeps the event count low (one completion event
/// per transfer instead of per-packet flits).
class BandwidthResource {
 public:
  BandwidthResource(std::string name, double bytes_per_second);

  /// Reserves the link for @p bytes starting no earlier than @p now.
  /// Returns the completion time. An optional fixed @p overhead is
  /// charged before the payload starts moving (per-request setup cost).
  Tick submit(Tick now, double bytes, Tick overhead = 0);

  /// Every mutable clock and counter of the link, as one plain struct:
  /// the timing engine's block fast-forward captures and restores
  /// whole unit states (core::StreamingPipeline::Snapshot).
  struct State {
    Tick free_at = 0;  ///< when the link next becomes free
    Tick busy = 0;
    Tick wait = 0;
    double bytes = 0.0;
    std::uint64_t requests = 0;

    /// submit() on this state for a link of @p bytes_per_second, so a
    /// unit can keep its link inside its own State (cell::Mic does).
    Tick submit(double bytes_per_second, Tick now, double payload,
                Tick overhead);
  };
  const State& state() const noexcept { return s_; }
  void restore(const State& s) noexcept { s_ = s; }

  /// Time at which the link next becomes free.
  Tick free_at() const noexcept { return s_.free_at; }

  /// Total busy ticks accumulated across all requests.
  Tick busy_ticks() const noexcept { return s_.busy; }

  /// Total ticks requests spent waiting for the link to free up before
  /// their service started (FIFO contention). Observation only.
  Tick wait_ticks() const noexcept { return s_.wait; }

  /// Total payload bytes moved.
  double bytes_moved() const noexcept { return s_.bytes; }

  std::uint64_t requests() const noexcept { return s_.requests; }

  double rate() const noexcept { return rate_; }
  const std::string& name() const noexcept { return name_; }

  /// Utilization over [0, horizon].
  double utilization(Tick horizon) const noexcept {
    return horizon == 0
               ? 0.0
               : static_cast<double>(s_.busy) / static_cast<double>(horizon);
  }

  void reset() noexcept { s_ = State{}; }

 private:
  std::string name_;
  double rate_;
  State s_;
};

/// Fixed-latency single server (e.g. the PPE-side mailbox MMIO path).
class LatencyServer {
 public:
  LatencyServer(std::string name, Tick latency, Tick occupancy);

  /// Submits a request at @p now; returns its completion time.
  Tick submit(Tick now);

  /// Submits a request with explicit latency/occupancy (e.g. a cheap
  /// status poll sharing the server with expensive dispatch work).
  Tick submit_with(Tick now, Tick latency, Tick occupancy);

  /// Every mutable clock and counter of the server (see
  /// BandwidthResource::State).
  struct State {
    Tick free_at = 0;
    std::uint64_t requests = 0;
  };
  const State& state() const noexcept { return s_; }
  void restore(const State& s) noexcept { s_ = s; }

  Tick free_at() const noexcept { return s_.free_at; }
  std::uint64_t requests() const noexcept { return s_.requests; }
  Tick latency() const noexcept { return latency_; }
  const std::string& name() const noexcept { return name_; }

  void reset() noexcept { s_ = State{}; }

 private:
  std::string name_;
  Tick latency_;    // start-of-service to completion
  Tick occupancy_;  // how long the server stays busy per request
  State s_;
};

}  // namespace cellsweep::sim
