// Machine-readable perf regression checking.
//
// Compares two BENCH_<scenario>.json documents (bench/bench_common.h
// emits them; schema "cellsweep-bench-v2") run by run and metric by
// metric. The contract mirrors perf-CI practice:
//   * schema-version or scenario mismatch is a hard error, never a
//     silent pass -- a layout change must come with a regenerated
//     baseline;
//   * fingerprint (problem size, iteration count, chip shape) mismatch
//     is a hard error: numbers from different experiments are not
//     comparable;
//   * a compared metric (seconds, grind_seconds by default) fails when
//     current / baseline falls outside [1 - threshold, 1 + threshold]:
//     the simulator is deterministic, so a move either way is a model
//     change, whichever way is better;
//   * JSON null metrics (the NaN contract of the emitters) and runs
//     missing a metric are skipped, not failed;
//   * one pass reports everything: gate failures do not stop the
//     metric comparison, so a single CI run shows every error and
//     every moved metric at once.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace cellsweep::util {
class JsonValue;
}

namespace cellsweep::analysis {

/// The BENCH JSON layout version this differ understands.
inline constexpr const char* kBenchSchema = "cellsweep-bench-v2";

struct PerfDiffOptions {
  /// Allowed relative change of a metric, either way.
  double default_threshold = 0.25;
  /// Extra or overriding per-metric thresholds; metrics named here are
  /// compared in addition to the defaults.
  std::vector<std::pair<std::string, double>> metric_thresholds;
  /// Require structural equality of the "fingerprint" objects.
  bool check_fingerprint = true;
};

enum class DiffStatus : unsigned char {
  kOk,       ///< ratio within [1 - threshold, 1 + threshold]
  kMoved,    ///< ratio outside it, either way
  kSkipped,  ///< metric null or absent on either side
};

const char* diff_status_name(DiffStatus s);

/// One (run, metric) comparison.
struct DiffRow {
  std::string run;
  std::string metric;
  double baseline = 0;
  double current = 0;
  double ratio = 0;      ///< current / baseline (0 when skipped)
  double threshold = 0;  ///< relative change allowed, either way
  DiffStatus status = DiffStatus::kSkipped;
  std::string note;      ///< why a row was skipped
};

struct PerfDiffResult {
  /// Populated even when errors is non-empty (the one-pass contract):
  /// whatever rows were structurally comparable are compared.
  std::vector<DiffRow> rows;
  /// Schema / scenario / fingerprint / structure errors, all of them.
  /// Non-empty means the documents were not comparable (exit code 2
  /// territory).
  std::vector<std::string> errors;

  /// True when any compared metric moved past its threshold.
  bool moved() const;
  bool ok() const { return errors.empty() && !moved(); }
};

/// Diffs @p current against @p baseline. Both must be parsed
/// BENCH_*.json documents.
PerfDiffResult diff_bench(const util::JsonValue& current,
                          const util::JsonValue& baseline,
                          const PerfDiffOptions& opt = {});

}  // namespace cellsweep::analysis
