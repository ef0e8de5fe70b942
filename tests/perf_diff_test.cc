// Tests for the perf-regression harness: the JSON reader it is built
// on, and the diff contract (threshold semantics, schema / scenario /
// fingerprint gates, null handling, missing-run detection).
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "analysis/perf_diff.h"
#include "util/json.h"

namespace cellsweep {
namespace {

using analysis::DiffStatus;
using analysis::PerfDiffOptions;
using analysis::PerfDiffResult;
using util::JsonValue;

// ---------------------------------------------------------------------
// JSON reader

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(util::parse_json("null").is_null());
  EXPECT_TRUE(util::parse_json("true").bool_v);
  EXPECT_FALSE(util::parse_json("false").bool_v);
  EXPECT_EQ(util::parse_json("42").number_v, 42.0);
  EXPECT_EQ(util::parse_json("-1.5e3").number_v, -1500.0);
  EXPECT_EQ(util::parse_json("\"hi\"").string_v, "hi");
}

TEST(Json, RoundTripsPreciseDoubles) {
  // The emitters print %.17g; the reader must recover the exact bits.
  const double v = 0.1234567890123456789;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  EXPECT_EQ(util::parse_json(buf).number_v, v);
}

TEST(Json, ParsesNestedStructure) {
  const JsonValue doc = util::parse_json(
      R"({"a": [1, 2, {"b": null}], "c": {"d": "e"}, "f": true})");
  ASSERT_TRUE(doc.is_object());
  const JsonValue* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array_v.size(), 3u);
  EXPECT_EQ(a->array_v[1].number_v, 2.0);
  EXPECT_TRUE(a->array_v[2].find("b")->is_null());
  EXPECT_EQ(doc.find("c")->string_or("d", ""), "e");
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(Json, PreservesKeyOrderAndDecodesEscapes) {
  const JsonValue doc =
      util::parse_json(R"({"z": 1, "a": 2, "s": "x\n\t\"é"})");
  ASSERT_EQ(doc.object_v.size(), 3u);
  EXPECT_EQ(doc.object_v[0].first, "z");
  EXPECT_EQ(doc.object_v[1].first, "a");
  EXPECT_EQ(doc.find("s")->string_v, "x\n\t\"\xc3\xa9");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(util::parse_json(""), util::JsonError);
  EXPECT_THROW(util::parse_json("{"), util::JsonError);
  EXPECT_THROW(util::parse_json("{\"a\" 1}"), util::JsonError);
  EXPECT_THROW(util::parse_json("[1,]"), util::JsonError);
  EXPECT_THROW(util::parse_json("\"unterminated"), util::JsonError);
  EXPECT_THROW(util::parse_json("nul"), util::JsonError);
  EXPECT_THROW(util::parse_json("1 2"), util::JsonError);  // trailing junk
  EXPECT_THROW(util::parse_json("NaN"), util::JsonError);
}

// ---------------------------------------------------------------------
// diff_bench

/// A minimal BENCH document with one run and the given metric values
/// (raw JSON fragments, so tests can inject null).
std::string bench_doc(const std::string& seconds,
                      const std::string& grind = "1.0",
                      const std::string& schema = "cellsweep-bench-v2",
                      const std::string& cube = "20") {
  return std::string("{\"schema\": \"") + schema +
         "\", \"scenario\": \"fig5\", \"fingerprint\": {\"cube\": " + cube +
         ", \"iterations\": 12}, \"runs\": [{\"name\": \"stage\", "
         "\"metrics\": {\"seconds\": " +
         seconds + ", \"grind_seconds\": " + grind + "}}]}";
}

PerfDiffResult diff(const std::string& cur, const std::string& base,
                    const PerfDiffOptions& opt = {}) {
  return analysis::diff_bench(util::parse_json(cur), util::parse_json(base),
                              opt);
}

const analysis::DiffRow* row_for(const PerfDiffResult& r,
                                 const std::string& metric) {
  for (const auto& row : r.rows)
    if (row.metric == metric) return &row;
  return nullptr;
}

TEST(PerfDiff, WithinThresholdPasses) {
  // +20% on a 25% threshold: ok, not a regression.
  const PerfDiffResult r = diff(bench_doc("1.2"), bench_doc("1.0"));
  EXPECT_TRUE(r.ok());
  const analysis::DiffRow* s = row_for(r, "seconds");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->status, DiffStatus::kOk);
  EXPECT_DOUBLE_EQ(s->ratio, 1.2);
}

TEST(PerfDiff, AboveThresholdRegresses) {
  const PerfDiffResult r = diff(bench_doc("1.5"), bench_doc("1.0"));
  EXPECT_TRUE(r.moved());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(row_for(r, "seconds")->status, DiffStatus::kMoved);
  // grind_seconds is unchanged: only the bad metric flags.
  EXPECT_EQ(row_for(r, "grind_seconds")->status, DiffStatus::kOk);
}

TEST(PerfDiff, DropPastThresholdFails) {
  // Two-sided rule: a metric that falls below 1 - threshold fails as
  // surely as one that rises past 1 + threshold. The simulator is
  // deterministic, so either way the model changed.
  const PerfDiffResult r = diff(bench_doc("0.1"), bench_doc("1.0"));
  EXPECT_TRUE(r.moved());
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(row_for(r, "seconds")->status, DiffStatus::kMoved);
  EXPECT_EQ(row_for(r, "grind_seconds")->status, DiffStatus::kOk);
}

TEST(PerfDiff, BothBoundsAreInside) {
  // -20% on a 25% threshold passes, and so do both bounds themselves.
  for (const char* cur : {"0.8", "0.75", "1.25"}) {
    const PerfDiffResult r = diff(bench_doc(cur), bench_doc("1.0"));
    EXPECT_TRUE(r.ok()) << cur;
    EXPECT_EQ(row_for(r, "seconds")->status, DiffStatus::kOk) << cur;
  }
}

TEST(PerfDiff, ZeroThresholdFailsAnyChange) {
  // The cluster gate runs at --threshold 0: a model error that moved
  // grid1x1 from 8.92755312 to 8.92755099 s must fail, as must the
  // reverse; equal values pass.
  PerfDiffOptions opt;
  opt.default_threshold = 0;
  EXPECT_TRUE(
      diff(bench_doc("8.92755099"), bench_doc("8.92755312"), opt).moved());
  EXPECT_TRUE(
      diff(bench_doc("8.92755312"), bench_doc("8.92755099"), opt).moved());
  EXPECT_TRUE(
      diff(bench_doc("8.92755312"), bench_doc("8.92755312"), opt).ok());
}

TEST(PerfDiff, HigherIsBetterMetricThatDropsFails) {
  // The latency-vs-load gate compares capacity_jobs_per_s, which is
  // higher-is-better: a capacity 40% lower must fail, as must one 40%
  // higher; 10% lower passes.
  const auto doc = [](const std::string& capacity) {
    return "{\"schema\": \"cellsweep-bench-v2\", \"scenario\": "
           "\"latency_load\", \"fingerprint\": {\"cube\": 20}, \"runs\": "
           "[{\"name\": \"curve\", \"metrics\": {\"capacity_jobs_per_s\": " +
           capacity + "}}]}";
  };
  PerfDiffOptions opt;
  opt.metric_thresholds.emplace_back("capacity_jobs_per_s", 0.25);
  const PerfDiffResult drop = diff(doc("60"), doc("100"), opt);
  EXPECT_FALSE(drop.ok());
  EXPECT_EQ(row_for(drop, "capacity_jobs_per_s")->status, DiffStatus::kMoved);
  EXPECT_FALSE(diff(doc("140"), doc("100"), opt).ok());
  EXPECT_TRUE(diff(doc("90"), doc("100"), opt).ok());
}

TEST(PerfDiff, CustomThresholdOverridesDefault) {
  PerfDiffOptions opt;
  opt.metric_thresholds.emplace_back("seconds", 0.10);
  const PerfDiffResult r = diff(bench_doc("1.2"), bench_doc("1.0"), opt);
  EXPECT_TRUE(r.moved());  // +20% > 10%
  EXPECT_EQ(row_for(r, "seconds")->threshold, 0.10);
  // grind_seconds keeps the default.
  EXPECT_EQ(row_for(r, "grind_seconds")->threshold, 0.25);
}

TEST(PerfDiff, SchemaMismatchIsHardError) {
  const PerfDiffResult r =
      diff(bench_doc("1.0"), bench_doc("1.0", "1.0", "cellsweep-bench-v0"));
  EXPECT_FALSE(r.errors.empty());
  EXPECT_FALSE(r.ok());
  // One-pass contract: the gate failure is reported AND the metric
  // comparison still runs, so one CI log shows the whole picture.
  EXPECT_FALSE(r.rows.empty());
}

TEST(PerfDiff, FingerprintMismatchIsHardError) {
  const PerfDiffResult r = diff(
      bench_doc("1.0"), bench_doc("1.0", "1.0", "cellsweep-bench-v2", "50"));
  EXPECT_FALSE(r.errors.empty());
  EXPECT_FALSE(r.rows.empty());  // comparison still ran (one pass)

  PerfDiffOptions opt;
  opt.check_fingerprint = false;
  const PerfDiffResult relaxed = diff(
      bench_doc("1.0"), bench_doc("1.0", "1.0", "cellsweep-bench-v2", "50"),
      opt);
  EXPECT_TRUE(relaxed.ok());
}

TEST(PerfDiff, ReportsEverySimultaneousRegression) {
  // Two metrics regress at once: both rows must flag in a single pass.
  // The old behavior (first failure wins) made CI a fix-one-rerun-
  // find-the-next loop.
  const PerfDiffResult r = diff(bench_doc("2.0", "3.0"), bench_doc("1.0"));
  EXPECT_TRUE(r.moved());
  EXPECT_EQ(row_for(r, "seconds")->status, DiffStatus::kMoved);
  EXPECT_EQ(row_for(r, "grind_seconds")->status, DiffStatus::kMoved);
}

TEST(PerfDiff, ReportsAllGateFailuresAndRegressionsTogether) {
  // Schema AND scenario AND fingerprint mismatch AND a regressed
  // metric: every gate failure is collected and the rows still show
  // the regression.
  const std::string cur =
      "{\"schema\": \"cellsweep-bench-v1\", \"scenario\": \"other\", "
      "\"fingerprint\": {\"cube\": 50, \"iterations\": 12}, \"runs\": ["
      "{\"name\": \"stage\", \"metrics\": {\"seconds\": 9.0, "
      "\"grind_seconds\": 1.0}}]}";
  const PerfDiffResult r = diff(cur, bench_doc("1.0"));
  EXPECT_GE(r.errors.size(), 3u);  // schema + scenario + fingerprint
  EXPECT_EQ(row_for(r, "seconds")->status, DiffStatus::kMoved);
  EXPECT_EQ(row_for(r, "grind_seconds")->status, DiffStatus::kOk);
}

TEST(PerfDiff, NullAndAbsentMetricsAreSkipped) {
  // grind null on one side: skipped, not failed -- even at a huge
  // seconds regression threshold margin on the other metric.
  const PerfDiffResult r = diff(bench_doc("1.0", "null"), bench_doc("1.0"));
  EXPECT_TRUE(r.ok());
  const analysis::DiffRow* g = row_for(r, "grind_seconds");
  ASSERT_NE(g, nullptr);
  EXPECT_EQ(g->status, DiffStatus::kSkipped);
  EXPECT_FALSE(g->note.empty());
}

TEST(PerfDiff, NonPositiveBaselineIsSkipped) {
  const PerfDiffResult r = diff(bench_doc("1.0"), bench_doc("0"));
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(row_for(r, "seconds")->status, DiffStatus::kSkipped);
}

TEST(PerfDiff, RunMissingFromCurrentIsError) {
  // Dropping a baseline run from the bench must not silently pass: a
  // deleted benchmark hides exactly the regression it used to catch.
  const std::string cur =
      "{\"schema\": \"cellsweep-bench-v2\", \"scenario\": \"fig5\", "
      "\"fingerprint\": {\"cube\": 20, \"iterations\": 12}, \"runs\": []}";
  const PerfDiffResult r = diff(cur, bench_doc("1.0"));
  EXPECT_FALSE(r.errors.empty());
  EXPECT_FALSE(r.ok());
}

TEST(PerfDiff, ExtraRunInCurrentIsIgnored) {
  // New benches may land before their baseline is regenerated.
  const std::string cur =
      "{\"schema\": \"cellsweep-bench-v2\", \"scenario\": \"fig5\", "
      "\"fingerprint\": {\"cube\": 20, \"iterations\": 12}, \"runs\": ["
      "{\"name\": \"stage\", \"metrics\": {\"seconds\": 1.0, "
      "\"grind_seconds\": 1.0}}, "
      "{\"name\": \"new_stage\", \"metrics\": {\"seconds\": 9.0}}]}";
  const PerfDiffResult r = diff(cur, bench_doc("1.0"));
  EXPECT_TRUE(r.ok());
}

}  // namespace
}  // namespace cellsweep
