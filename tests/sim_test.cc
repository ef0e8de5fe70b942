// Unit tests for the simulated-time core: time conversion and the
// shared-resource models.
#include <gtest/gtest.h>

#include "sim/resource.h"
#include "sim/time.h"

namespace cellsweep::sim {
namespace {

TEST(Time, SecondsRoundTrip) {
  EXPECT_EQ(ticks_from_seconds(1.0), kTicksPerSecond);
  EXPECT_DOUBLE_EQ(seconds_from_ticks(ticks_from_seconds(1.33)), 1.33);
}

TEST(Time, CellCycleIsExact) {
  // One 3.2 GHz cycle = 312,500 fs exactly: integer cycle arithmetic.
  EXPECT_EQ(ticks_per_cycle(3.2e9), 312500u);
  EXPECT_EQ(ticks_from_cycles(7, 3.2e9), 7u * 312500u);
}

TEST(Time, BytesOverLink) {
  // 25.6 GB/s moving 25.6 GB takes one second.
  EXPECT_EQ(ticks_for_bytes(25.6e9, 25.6e9), kTicksPerSecond);
}

TEST(BandwidthResource, SingleTransfer) {
  BandwidthResource link("l", 1e9);  // 1 GB/s
  const Tick done = link.submit(0, 1e6);  // 1 MB
  EXPECT_EQ(done, ticks_from_seconds(1e-3));
  EXPECT_DOUBLE_EQ(link.bytes_moved(), 1e6);
  EXPECT_EQ(link.requests(), 1u);
}

TEST(BandwidthResource, FifoContention) {
  BandwidthResource link("l", 1e9);
  const Tick d1 = link.submit(0, 1e6);
  // Submitted while busy: queues behind the first transfer.
  const Tick d2 = link.submit(0, 1e6);
  EXPECT_EQ(d2, 2 * d1);
}

TEST(BandwidthResource, IdleGapNotCharged) {
  BandwidthResource link("l", 1e9);
  link.submit(0, 1e6);
  const Tick later = ticks_from_seconds(1.0);
  const Tick done = link.submit(later, 1e6);
  EXPECT_EQ(done, later + ticks_from_seconds(1e-3));
  // Busy time counts service only, not the idle gap.
  EXPECT_EQ(link.busy_ticks(), 2 * ticks_from_seconds(1e-3));
}

TEST(BandwidthResource, OverheadAddsToService) {
  BandwidthResource link("l", 1e9);
  const Tick done = link.submit(0, 1e6, /*overhead=*/500);
  EXPECT_EQ(done, ticks_from_seconds(1e-3) + 500);
}

TEST(BandwidthResource, Utilization) {
  BandwidthResource link("l", 1e9);
  link.submit(0, 1e6);
  EXPECT_NEAR(link.utilization(ticks_from_seconds(2e-3)), 0.5, 1e-12);
}

TEST(BandwidthResource, RejectsBadArgs) {
  EXPECT_THROW(BandwidthResource("x", 0.0), std::invalid_argument);
  BandwidthResource link("l", 1e9);
  EXPECT_THROW(link.submit(0, -1.0), std::invalid_argument);
}

TEST(BandwidthResource, ResetClearsState) {
  BandwidthResource link("l", 1e9);
  link.submit(0, 1e6);
  link.reset();
  EXPECT_EQ(link.busy_ticks(), 0u);
  EXPECT_EQ(link.requests(), 0u);
  EXPECT_EQ(link.free_at(), 0u);
}

TEST(LatencyServer, LatencyAndOccupancyDiffer) {
  LatencyServer srv("s", /*latency=*/100, /*occupancy=*/10);
  EXPECT_EQ(srv.submit(0), 100u);
  // Second request starts after the 10-tick occupancy, not the 100.
  EXPECT_EQ(srv.submit(0), 110u);
}

TEST(LatencyServer, SubmitWithOverride) {
  LatencyServer srv("s", 100, 100);
  EXPECT_EQ(srv.submit_with(0, 5, 50), 5u);
  EXPECT_EQ(srv.submit_with(0, 5, 50), 55u);  // queued behind occupancy
}

TEST(LatencyServer, BurstSerializes) {
  LatencyServer srv("s", 100, 100);
  Tick last = 0;
  for (int i = 0; i < 8; ++i) last = srv.submit(0);
  EXPECT_EQ(last, 800u);
  EXPECT_EQ(srv.requests(), 8u);
}

}  // namespace
}  // namespace cellsweep::sim
