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

  /// Time at which the link next becomes free.
  Tick free_at() const noexcept { return free_at_; }

  /// Total busy ticks accumulated across all requests.
  Tick busy_ticks() const noexcept { return busy_; }

  /// Total ticks requests spent waiting for the link to free up before
  /// their service started (FIFO contention). Observation only.
  Tick wait_ticks() const noexcept { return wait_; }

  /// Total payload bytes moved.
  double bytes_moved() const noexcept { return bytes_; }

  std::uint64_t requests() const noexcept { return requests_; }

  double rate() const noexcept { return rate_; }
  const std::string& name() const noexcept { return name_; }

  /// Utilization over [0, horizon].
  double utilization(Tick horizon) const noexcept {
    return horizon == 0
               ? 0.0
               : static_cast<double>(busy_) / static_cast<double>(horizon);
  }

  void reset() noexcept;

 private:
  std::string name_;
  double rate_;
  Tick free_at_ = 0;
  Tick busy_ = 0;
  Tick wait_ = 0;
  double bytes_ = 0.0;
  std::uint64_t requests_ = 0;
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

  Tick free_at() const noexcept { return free_at_; }
  std::uint64_t requests() const noexcept { return requests_; }
  Tick latency() const noexcept { return latency_; }
  const std::string& name() const noexcept { return name_; }

  void reset() noexcept;

 private:
  std::string name_;
  Tick latency_;    // start-of-service to completion
  Tick occupancy_;  // how long the server stays busy per request
  Tick free_at_ = 0;
  std::uint64_t requests_ = 0;
};

}  // namespace cellsweep::sim
