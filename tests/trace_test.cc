// Tests for the observability layer: the Chrome trace writer, the
// zero-perturbation guarantee of instrumented runs, per-SPE stall
// accounting and the metrics JSON emitter.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/orchestrator.h"
#include "sim/trace.h"

namespace cellsweep {
namespace {

// Minimal structural JSON check: braces/brackets balance outside string
// literals and the document is a single object. Not a full parser, but
// it catches truncated output, stray commas-into-EOF and unescaped
// quotes -- the failure modes a streaming writer actually has.
bool json_balanced(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool seen_any = false;
  for (char c : s) {
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; seen_any = true; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
    if (seen_any && depth == 0 && c != '}' && c != ']' &&
        !std::isspace(static_cast<unsigned char>(c)))
      return false;  // trailing junk after the root closes
  }
  return seen_any && depth == 0 && !in_string;
}

core::RunReport run_cube(int cube, sim::TraceSink* sink,
                         core::OptimizationStage stage =
                             core::OptimizationStage::kSpeLsPoke) {
  const sweep::Problem p = sweep::Problem::benchmark_cube(cube);
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(stage);
  cfg.sweep.max_iterations = 2;
  cfg.sweep.fixup_from_iteration = 1;
  cfg.sweep.mk = std::min(cfg.sweep.mk, cube);
  while (cube % cfg.sweep.mk != 0) --cfg.sweep.mk;
  cfg.trace_sink = sink;
  core::CellSweep3D runner(p, cfg);
  return runner.run(core::RunMode::kTraceDriven);
}

TEST(ChromeTraceWriter, CollectsTracksAndEvents) {
  sim::ChromeTraceWriter w;
  const int a = w.track("SPE0");
  const int b = w.track("EIB");
  EXPECT_NE(a, b);
  EXPECT_EQ(w.track_count(), 2);
  w.span(a, "kernel", "compute", 1'000'000'000, 3'000'000'000);
  w.instant(b, "block-barrier", "sync", 2'000'000'000);
  w.counter(b, "traffic-gb", 2'000'000'000, 1.5);
  EXPECT_EQ(w.event_count(), 3u);

  std::ostringstream os;
  w.write(os);
  const std::string out = os.str();
  EXPECT_TRUE(json_balanced(out)) << out;
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"SPE0\""), std::string::npos);
  EXPECT_NE(out.find("\"kernel\""), std::string::npos);
  // 1 Gtick = 1 simulated microsecond; the span is [1 us, 3 us).
  EXPECT_NE(out.find("\"ts\": 1.000"), std::string::npos);
  EXPECT_NE(out.find("\"dur\": 2.000"), std::string::npos);
}

TEST(ChromeTraceWriter, EscapesTrackNames) {
  sim::ChromeTraceWriter w;
  w.track("weird \"name\"\nwith\tcontrols");
  std::ostringstream os;
  w.write(os);
  EXPECT_TRUE(json_balanced(os.str())) << os.str();
}

TEST(JsonEscape, HandlesSpecials) {
  EXPECT_EQ(sim::json_escape("plain"), "plain");
  EXPECT_EQ(sim::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(sim::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(sim::json_escape("a\nb"), "a\\nb");
}

TEST(Trace, SinkDoesNotPerturbSimulatedTime) {
  // The central contract: tracing is observation only. The same deck
  // replayed with the sink attached must produce bit-identical timing.
  const core::RunReport plain = run_cube(12, nullptr);
  sim::ChromeTraceWriter w;
  const core::RunReport traced = run_cube(12, &w);

  EXPECT_EQ(plain.seconds, traced.seconds);
  EXPECT_EQ(plain.traffic_bytes, traced.traffic_bytes);
  EXPECT_EQ(plain.dma_commands, traced.dma_commands);
  EXPECT_EQ(plain.dma_transfers, traced.dma_transfers);
  EXPECT_EQ(plain.chunks, traced.chunks);
  EXPECT_EQ(plain.flops, traced.flops);
  EXPECT_GT(w.event_count(), 0u);

  std::ostringstream os;
  w.write(os);
  const std::string out = os.str();
  EXPECT_TRUE(json_balanced(out));
  for (const char* needle :
       {"\"traceEvents\"", "\"SPE0\"", "\"PPE\"", "\"EIB\"", "\"MIC\"",
        "\"kernel", "\"dma-get", "\"dma-put\"", "thread_name"})
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
}

TEST(Trace, StallBucketsPartitionTheRun) {
  const core::RunReport r = run_cube(12, nullptr);
  const std::vector<core::SpeStalls> stalls = core::spe_stalls(r);
  ASSERT_EQ(stalls.size(), 8u);
  for (std::size_t s = 0; s < stalls.size(); ++s) {
    const core::SpeStalls& st = stalls[s];
    EXPECT_GE(st.busy_s, 0.0) << s;
    EXPECT_GE(st.dma_wait_s, 0.0) << s;
    EXPECT_GE(st.sync_wait_s, 0.0) << s;
    EXPECT_GE(st.idle_s, 0.0) << s;
    const double total =
        st.busy_s + st.dma_wait_s + st.sync_wait_s + st.idle_s;
    EXPECT_NEAR(total, r.seconds, 1e-9 * std::max(1.0, r.seconds)) << s;
  }
  EXPECT_GE(r.mic_utilization, 0.0);
  EXPECT_LE(r.mic_utilization, 1.0);
  EXPECT_GE(r.eib_utilization, 0.0);
  EXPECT_LE(r.eib_utilization, 1.0);
}

TEST(Trace, OccupancyHistogramCountsEveryCommand) {
  const core::RunReport r = run_cube(12, nullptr);
  ASSERT_FALSE(r.mfc_queue_occupancy.empty());
  std::uint64_t counted = 0;
  for (std::uint64_t c : r.mfc_queue_occupancy) counted += c;
  EXPECT_EQ(counted, r.dma_commands);
}

TEST(Trace, PpeRunsHaveNoSpeStalls) {
  const core::RunReport r =
      run_cube(12, nullptr, core::OptimizationStage::kPpeXlc);
  EXPECT_TRUE(core::spe_stalls(r).empty());
}

TEST(Metrics, JsonIsWellFormed) {
  const core::RunReport r = run_cube(12, nullptr);
  std::ostringstream os;
  core::write_metrics_json(os, r);
  const std::string out = os.str();
  EXPECT_TRUE(json_balanced(out)) << out;
  for (const char* needle :
       {"\"seconds\"", "\"utilization\"", "\"queue_occupancy_histogram\"",
        "\"spe_stalls\"", "\"dma_wait_s\""})
    EXPECT_NE(out.find(needle), std::string::npos) << needle;
}

TEST(Metrics, EmptyStatsSerializeAsNull) {
  // PPE runs have no per-SPE samples; the empty RunningStats moments are
  // NaN and must serialize as JSON null, never as "nan".
  const core::RunReport r =
      run_cube(12, nullptr, core::OptimizationStage::kPpeXlc);
  std::ostringstream os;
  core::write_metrics_json(os, r);
  const std::string out = os.str();
  EXPECT_TRUE(json_balanced(out));
  EXPECT_NE(out.find("null"), std::string::npos);
  EXPECT_EQ(out.find("nan"), std::string::npos);
  EXPECT_EQ(out.find("inf"), std::string::npos);
}

}  // namespace
}  // namespace cellsweep
