#include "analysis/perf_diff.h"

#include <cmath>

#include "util/json.h"

namespace cellsweep::analysis {
namespace {

using util::JsonValue;

/// Structural equality; member order is ignored so a rewritten baseline
/// with reordered fingerprint keys still matches.
bool json_equal(const JsonValue& a, const JsonValue& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case JsonValue::Kind::kNull: return true;
    case JsonValue::Kind::kBool: return a.bool_v == b.bool_v;
    case JsonValue::Kind::kNumber: return a.number_v == b.number_v;
    case JsonValue::Kind::kString: return a.string_v == b.string_v;
    case JsonValue::Kind::kArray: {
      if (a.array_v.size() != b.array_v.size()) return false;
      for (std::size_t i = 0; i < a.array_v.size(); ++i)
        if (!json_equal(a.array_v[i], b.array_v[i])) return false;
      return true;
    }
    case JsonValue::Kind::kObject: {
      if (a.object_v.size() != b.object_v.size()) return false;
      for (const auto& [k, v] : a.object_v) {
        const JsonValue* o = b.find(k);
        if (o == nullptr || !json_equal(v, *o)) return false;
      }
      return true;
    }
  }
  return false;
}

/// The runs array as (name -> metrics object) pairs, document order.
std::vector<std::pair<std::string, const JsonValue*>> runs_of(
    const JsonValue& doc, const char* which,
    std::vector<std::string>& errors) {
  std::vector<std::pair<std::string, const JsonValue*>> out;
  const JsonValue* runs = doc.find("runs");
  if (runs == nullptr || !runs->is_array()) {
    errors.push_back(std::string(which) + ": no \"runs\" array");
    return out;
  }
  for (const JsonValue& r : runs->array_v) {
    const JsonValue* name = r.find("name");
    const JsonValue* metrics = r.find("metrics");
    if (name == nullptr || !name->is_string() || metrics == nullptr ||
        !metrics->is_object()) {
      errors.push_back(std::string(which) +
                       ": run without string \"name\" + object \"metrics\"");
      continue;
    }
    out.emplace_back(name->string_v, metrics);
  }
  return out;
}

}  // namespace

const char* diff_status_name(DiffStatus s) {
  switch (s) {
    case DiffStatus::kOk: return "ok";
    case DiffStatus::kMoved: return "MOVED";
    case DiffStatus::kSkipped: return "skipped";
  }
  return "?";
}

bool PerfDiffResult::moved() const {
  for (const DiffRow& r : rows)
    if (r.status == DiffStatus::kMoved) return true;
  return false;
}

PerfDiffResult diff_bench(const util::JsonValue& current,
                          const util::JsonValue& baseline,
                          const PerfDiffOptions& opt) {
  PerfDiffResult res;

  // Gate 1: schema versions. Both sides must carry the version this
  // differ implements; anything else means the layout changed under us.
  const std::string cur_schema = current.string_or("schema", "<missing>");
  const std::string base_schema = baseline.string_or("schema", "<missing>");
  if (cur_schema != kBenchSchema)
    res.errors.push_back("current: schema \"" + cur_schema +
                         "\" != expected \"" + kBenchSchema + "\"");
  if (base_schema != kBenchSchema)
    res.errors.push_back("baseline: schema \"" + base_schema +
                         "\" != expected \"" + kBenchSchema + "\"");

  // Gate 2: same scenario.
  const std::string cur_sc = current.string_or("scenario", "<missing>");
  const std::string base_sc = baseline.string_or("scenario", "<missing>");
  if (cur_sc != base_sc)
    res.errors.push_back("scenario mismatch: current \"" + cur_sc +
                         "\" vs baseline \"" + base_sc + "\"");

  // Gate 3: same experiment fingerprint.
  if (opt.check_fingerprint) {
    const JsonValue* cf = current.find("fingerprint");
    const JsonValue* bf = baseline.find("fingerprint");
    if (cf == nullptr || bf == nullptr) {
      res.errors.push_back("missing \"fingerprint\" object");
    } else if (!json_equal(*cf, *bf)) {
      res.errors.push_back(
          "fingerprint mismatch: the two files measure different "
          "experiments; regenerate the baseline");
    }
  }

  // No early return on gate failures: a CI run should surface every
  // problem -- schema AND scenario AND fingerprint AND each moved
  // metric -- in one pass, not one per rerun. The run extraction below
  // only needs the "runs" layout, so it stays meaningful (and appends
  // its own structure errors) even when a gate above already fired.
  const auto cur_runs = runs_of(current, "current", res.errors);
  const auto base_runs = runs_of(baseline, "baseline", res.errors);

  // Compared metrics: the defaults plus any explicitly thresholded
  // ones.
  std::vector<std::pair<std::string, double>> metrics = {
      {"seconds", opt.default_threshold},
      {"grind_seconds", opt.default_threshold}};
  for (const auto& [name, thr] : opt.metric_thresholds) {
    bool found = false;
    for (auto& m : metrics)
      if (m.first == name) {
        m.second = thr;
        found = true;
      }
    if (!found) metrics.emplace_back(name, thr);
  }

  for (const auto& [run_name, base_metrics] : base_runs) {
    const JsonValue* cur_metrics = nullptr;
    for (const auto& [n, m] : cur_runs)
      if (n == run_name) cur_metrics = m;
    if (cur_metrics == nullptr) {
      res.errors.push_back("run \"" + run_name +
                           "\" is in the baseline but not in current");
      continue;
    }
    for (const auto& [metric, threshold] : metrics) {
      DiffRow row;
      row.run = run_name;
      row.metric = metric;
      row.threshold = threshold;
      const JsonValue* b = base_metrics->find(metric);
      const JsonValue* c = cur_metrics->find(metric);
      if (b == nullptr || c == nullptr || b->is_null() || c->is_null()) {
        row.note = "metric null or absent";
      } else if (!b->is_number() || !c->is_number()) {
        row.note = "metric not numeric";
      } else if (!(b->number_v > 0) || !std::isfinite(c->number_v)) {
        row.note = "baseline not positive";
      } else {
        row.baseline = b->number_v;
        row.current = c->number_v;
        row.ratio = c->number_v / b->number_v;
        row.status = row.ratio < 1.0 - threshold ||
                             row.ratio > 1.0 + threshold
                         ? DiffStatus::kMoved
                         : DiffStatus::kOk;
      }
      res.rows.push_back(std::move(row));
    }
  }
  return res;
}

}  // namespace cellsweep::analysis
