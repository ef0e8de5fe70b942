// Tests for the hardware-counter model: CounterSet semantics, the
// time-sliced profiler's binning and fold, the zero-perturbation
// contract (profiler attached => bit-identical timing), the exact
// per-SPE time partition, cross-run / cross-thread determinism and the
// metrics-JSON v2 surfacing.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/orchestrator.h"
#include "sim/counters.h"
#include "util/json.h"
#include "util/thread_pool.h"

namespace cellsweep {
namespace {

// ---------------------------------------------------------------------
// CounterSet

TEST(CounterSet, SetAddValueHas) {
  sim::CounterSet c("unit");
  EXPECT_EQ(c.name(), "unit");
  EXPECT_TRUE(c.empty());
  EXPECT_FALSE(c.has("x"));
  EXPECT_EQ(c.value("x"), 0.0);

  c.set("x", 3.0);
  EXPECT_TRUE(c.has("x"));
  EXPECT_EQ(c.value("x"), 3.0);
  c.add("x", 2.0);
  EXPECT_EQ(c.value("x"), 5.0);
  c.add("y", 7.0);  // created at zero, then incremented
  EXPECT_EQ(c.value("y"), 7.0);
  EXPECT_FALSE(c.empty());
}

TEST(CounterSet, InsertionOrderPreserved) {
  sim::CounterSet c("unit");
  c.set("b", 1);
  c.set("a", 2);
  c.set("c", 3);
  c.set("a", 4);  // update does not reorder
  std::vector<std::string> names;
  for (const auto& [k, v] : c.values()) names.push_back(k);
  EXPECT_EQ(names, (std::vector<std::string>{"b", "a", "c"}));
  EXPECT_EQ(c.value("a"), 4.0);

  c.child("z");
  c.child("m");
  c.child("z");  // existing child, no duplicate
  ASSERT_EQ(c.children().size(), 2u);
  EXPECT_EQ(c.children()[0].name(), "z");
  EXPECT_EQ(c.children()[1].name(), "m");
  EXPECT_NE(c.find_child("m"), nullptr);
  EXPECT_EQ(c.find_child("missing"), nullptr);
}

TEST(CounterSet, MergeIsRecursiveAddition) {
  sim::CounterSet a("total");
  a.set("n", 1);
  a.child("sub").set("k", 10);

  sim::CounterSet b("spe1");
  b.set("n", 2);
  b.set("m", 5);
  b.child("sub").set("k", 30);
  b.child("other").set("q", 1);

  a.merge(b);
  EXPECT_EQ(a.value("n"), 3.0);
  EXPECT_EQ(a.value("m"), 5.0);
  EXPECT_EQ(a.find_child("sub")->value("k"), 40.0);
  ASSERT_NE(a.find_child("other"), nullptr);
  EXPECT_EQ(a.find_child("other")->value("q"), 1.0);
  // Merging preserves the destination's name.
  EXPECT_EQ(a.name(), "total");
}

// ---------------------------------------------------------------------
// TimeSlicedProfiler

/// Recording sink: captures everything forwarded to it.
struct RecordingSink final : sim::TraceSink {
  struct Span {
    int track;
    std::string name, category;
    sim::Tick start, end;
  };
  struct Counter {
    int track;
    std::string name;
    sim::Tick at;
    double value;
  };
  std::vector<std::string> tracks;
  std::vector<Span> spans;
  std::vector<Counter> counters;

  int track(const std::string& name) override {
    tracks.push_back(name);
    return static_cast<int>(tracks.size()) - 1;
  }
  void span(int t, const char* name, const char* category, sim::Tick start,
            sim::Tick end) override {
    spans.push_back({t, name, category, start, end});
  }
  void instant(int, const char*, const char*, sim::Tick) override {}
  void counter(int t, const char* name, sim::Tick at, double value) override {
    counters.push_back({t, name, at, value});
  }
};

TEST(TimeSlicedProfiler, BinsSpansAcrossWindows) {
  sim::TimeSlicedProfiler prof(/*max_windows=*/8, /*initial_window=*/100);
  const int t = prof.track("SPE0");
  // Crosses two window boundaries: 50 in [0,100), 100 in [100,200),
  // 50 in [200,300).
  prof.span(t, "chunk", "compute", 50, 250);
  const sim::Profile p = prof.profile();
  EXPECT_EQ(p.window_ticks, 100);
  EXPECT_EQ(p.end_ticks, 250);
  ASSERT_EQ(p.series.size(), 1u);
  EXPECT_EQ(p.series[0].track, "SPE0");
  EXPECT_EQ(p.series[0].category, "compute");
  ASSERT_EQ(p.series[0].busy_ticks.size(), 3u);
  EXPECT_EQ(p.series[0].busy_ticks[0], 50.0);
  EXPECT_EQ(p.series[0].busy_ticks[1], 100.0);
  EXPECT_EQ(p.series[0].busy_ticks[2], 50.0);
}

TEST(TimeSlicedProfiler, FoldDoublesWindowAndPreservesTotals) {
  sim::TimeSlicedProfiler prof(/*max_windows=*/4, /*initial_window=*/100);
  const int t = prof.track("SPE0");
  prof.span(t, "a", "compute", 0, 100);
  prof.span(t, "b", "compute", 350, 400);  // 4 windows: still fits
  EXPECT_EQ(prof.window_ticks(), 100);
  prof.span(t, "c", "compute", 450, 500);  // needs window 5: folds
  EXPECT_GT(prof.window_ticks(), 100);

  const sim::Profile p = prof.profile();
  EXPECT_LE(p.window_count(), 4u);
  ASSERT_EQ(p.series.size(), 1u);
  double total = 0;
  for (double b : p.series[0].busy_ticks) total += b;
  EXPECT_EQ(total, 200.0);  // 100 + 50 + 50: folding is exact
}

TEST(TimeSlicedProfiler, SeparatesTracksAndCategories) {
  sim::TimeSlicedProfiler prof(8, 100);
  const int a = prof.track("SPE0");
  const int b = prof.track("SPE1");
  prof.span(a, "x", "compute", 0, 10);
  prof.span(a, "y", "dma", 10, 30);
  prof.span(b, "z", "compute", 0, 40);
  const sim::Profile p = prof.profile();
  ASSERT_EQ(p.series.size(), 3u);
  double by_cat_compute = 0, by_cat_dma = 0;
  for (const auto& s : p.series) {
    double total = 0;
    for (double v : s.busy_ticks) total += v;
    (s.category == "dma" ? by_cat_dma : by_cat_compute) += total;
  }
  EXPECT_EQ(by_cat_compute, 50.0);
  EXPECT_EQ(by_cat_dma, 20.0);
}

TEST(TimeSlicedProfiler, ForwardsEventsDownstream) {
  RecordingSink rec;
  sim::TimeSlicedProfiler prof(8, 100);
  prof.forward_to(&rec);
  const int t = prof.track("SPE0");
  prof.span(t, "chunk", "compute", 0, 50);
  ASSERT_EQ(rec.tracks.size(), 1u);
  EXPECT_EQ(rec.tracks[0], "SPE0");
  ASSERT_EQ(rec.spans.size(), 1u);
  EXPECT_EQ(rec.spans[0].name, "chunk");
  EXPECT_EQ(rec.spans[0].start, 0);
  EXPECT_EQ(rec.spans[0].end, 50);
}

TEST(TimeSlicedProfiler, EmitCounterEventsReplaysBusyPercent) {
  RecordingSink rec;
  sim::TimeSlicedProfiler prof(8, 100);
  const int t = prof.track("SPE0");
  prof.span(t, "chunk", "compute", 0, 50);  // 50% of window 0
  prof.emit_counter_events(rec);
  ASSERT_FALSE(rec.counters.empty());
  EXPECT_EQ(rec.counters[0].value, 50.0);
}

// ---------------------------------------------------------------------
// Engine integration

core::RunReport run_counters(int cube, sim::TimeSlicedProfiler* prof,
                             core::RunMode mode = core::RunMode::kTraceDriven,
                             int threads = 1) {
  const sweep::Problem p = sweep::Problem::benchmark_cube(cube);
  core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  cfg.sweep.max_iterations = 2;
  cfg.sweep.fixup_from_iteration = 1;
  cfg.sweep.mk = std::min(cfg.sweep.mk, cube);
  while (cube % cfg.sweep.mk != 0) --cfg.sweep.mk;
  util::ThreadPool pool(threads);
  cfg.sweep.pool = &pool;
  cfg.trace_sink = prof;
  core::CellSweep3D runner(p, cfg);
  core::RunReport r = runner.run(mode);
  if (prof) r.timeseries = prof->profile();
  return r;
}

std::string counters_str(const sim::CounterSet& c) {
  std::ostringstream os;
  core::write_counters_json(os, c);
  return os.str();
}

std::string metrics_str(const core::RunReport& r) {
  std::ostringstream os;
  core::write_metrics_json(os, r);
  return os.str();
}

TEST(Counters, ProfilerAttachedIsZeroPerturbation) {
  // The acceptance criterion: attaching the profiler must not move a
  // single simulated tick.
  const core::RunReport plain = run_counters(16, nullptr);
  sim::TimeSlicedProfiler prof(64);
  const core::RunReport profiled = run_counters(16, &prof);
  EXPECT_EQ(plain.seconds, profiled.seconds);  // bit-identical
  EXPECT_EQ(plain.traffic_bytes, profiled.traffic_bytes);
  EXPECT_EQ(plain.chunks, profiled.chunks);
  EXPECT_EQ(plain.dma_commands, profiled.dma_commands);
  EXPECT_EQ(counters_str(plain.counters), counters_str(profiled.counters));
  EXPECT_TRUE(plain.timeseries.empty());
  EXPECT_FALSE(profiled.timeseries.empty());
  EXPECT_GT(profiled.timeseries.window_count(), 0u);
}

TEST(Counters, PerSpeTicksPartitionRunTimeExactly) {
  const core::RunReport r = run_counters(16, nullptr);
  const double run_ticks = r.counters.value("run_ticks");
  ASSERT_GT(run_ticks, 0.0);
  int spes = 0;
  for (const sim::CounterSet& c : r.counters.children()) {
    if (c.name().rfind("spe", 0) != 0 || c.name() == "spe_total") continue;
    ++spes;
    // Tick counts are integers below 2^53: the partition is exact, not
    // approximate.
    EXPECT_EQ(c.value("busy_ticks") + c.value("dma_wait_ticks") +
                  c.value("sync_wait_ticks") + c.value("idle_ticks"),
              run_ticks)
        << c.name();
  }
  EXPECT_EQ(spes, 8);
}

TEST(Counters, AggregatesMatchReportTotals) {
  const core::RunReport r = run_counters(16, nullptr);
  const sim::CounterSet* total = r.counters.find_child("spe_total");
  ASSERT_NE(total, nullptr);
  const sim::CounterSet* pipe = total->find_child("pipeline");
  ASSERT_NE(pipe, nullptr);
  EXPECT_EQ(pipe->value("flops"), static_cast<double>(r.flops));
  const sim::CounterSet* mfc = total->find_child("mfc");
  ASSERT_NE(mfc, nullptr);
  EXPECT_EQ(mfc->value("commands"), static_cast<double>(r.dma_commands));
  EXPECT_EQ(r.counters.value("flops"), static_cast<double>(r.flops));
  EXPECT_EQ(r.counters.value("chunks"), static_cast<double>(r.chunks));
}

TEST(Counters, DeterministicAcrossRunsAndThreads) {
  // Same deck, same config => byte-identical metrics JSON (counters and
  // timeseries included), across repeated runs and host thread counts.
  sim::TimeSlicedProfiler p1(64), p2(64), p4(64);
  const std::string a =
      metrics_str(run_counters(10, &p1, core::RunMode::kFunctional, 1));
  const std::string b =
      metrics_str(run_counters(10, &p2, core::RunMode::kFunctional, 1));
  const std::string c =
      metrics_str(run_counters(10, &p4, core::RunMode::kFunctional, 4));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(Counters, MetricsJsonCarriesCounterTreeAndTimeseries) {
  sim::TimeSlicedProfiler prof(64);
  const core::RunReport r = run_counters(10, &prof);
  const util::JsonValue doc = util::parse_json(metrics_str(r));
  ASSERT_TRUE(doc.is_object());
  ASSERT_FALSE(doc.object_v.empty());
  // Schema is the first key, so readers can dispatch without scanning.
  EXPECT_EQ(doc.object_v.front().first, "schema");
  EXPECT_EQ(doc.string_or("schema", ""), core::kMetricsSchema);

  const util::JsonValue* counters = doc.find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_TRUE(counters->is_object());
  EXPECT_EQ(counters->string_or("name", ""), "machine");
  const util::JsonValue* children = counters->find("children");
  ASSERT_NE(children, nullptr);
  EXPECT_TRUE(children->is_array());
  // spe_total + 8 SPEs + mic + eib + dispatch.
  EXPECT_EQ(children->array_v.size(), 12u);

  const util::JsonValue* ts = doc.find("timeseries");
  ASSERT_NE(ts, nullptr);
  ASSERT_TRUE(ts->is_object());
  const util::JsonValue* wt = ts->find("window_ticks");
  ASSERT_NE(wt, nullptr);
  EXPECT_GT(wt->number_v, 0.0);
  const util::JsonValue* series = ts->find("series");
  ASSERT_NE(series, nullptr);
  ASSERT_TRUE(series->is_array());
  ASSERT_FALSE(series->array_v.empty());
  // Every series has one busy_ticks entry per window.
  const auto windows = static_cast<std::size_t>(
      (ts->find("end_ticks")->number_v + wt->number_v - 1) / wt->number_v);
  for (const util::JsonValue& s : series->array_v) {
    const util::JsonValue* bt = s.find("busy_ticks");
    ASSERT_NE(bt, nullptr);
    EXPECT_EQ(bt->array_v.size(), windows);
  }
}

}  // namespace
}  // namespace cellsweep
