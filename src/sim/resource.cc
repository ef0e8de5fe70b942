#include "sim/resource.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cellsweep::sim {

BandwidthResource::BandwidthResource(std::string name, double bytes_per_second)
    : name_(std::move(name)), rate_(bytes_per_second) {
  if (rate_ <= 0.0)
    throw std::invalid_argument("BandwidthResource: rate must be positive");
}

Tick BandwidthResource::submit(Tick now, double bytes, Tick overhead) {
  return s_.submit(rate_, now, bytes, overhead);
}

Tick BandwidthResource::State::submit(double bytes_per_second, Tick now,
                                      double payload, Tick overhead) {
  if (payload < 0.0)
    throw std::invalid_argument("BandwidthResource: negative byte count");
  const Tick start = std::max(now, free_at);
  const Tick service = overhead + ticks_for_bytes(payload, bytes_per_second);
  free_at = start + service;
  busy += service;
  wait += start - now;
  bytes += payload;
  ++requests;
  return free_at;
}

LatencyServer::LatencyServer(std::string name, Tick latency, Tick occupancy)
    : name_(std::move(name)), latency_(latency), occupancy_(occupancy) {}

Tick LatencyServer::submit(Tick now) {
  return submit_with(now, latency_, occupancy_);
}

Tick LatencyServer::submit_with(Tick now, Tick latency, Tick occupancy) {
  const Tick start = std::max(now, s_.free_at);
  s_.free_at = start + occupancy;
  ++s_.requests;
  return start + latency;
}

}  // namespace cellsweep::sim
