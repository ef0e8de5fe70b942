// perf_diff: compare two BENCH_<scenario>.json files and fail on any
// metric that moved past its threshold, either way.
//
//   $ ./perf_diff out/BENCH_fig5.json bench/baselines/BENCH_fig5.json
//   $ ./perf_diff cur.json base.json --threshold 0.1 \
//         --metric traffic_bytes=0.05
//
// Exit codes: 0 = every metric within its threshold, 1 = at least one
// metric moved past it (up or down), 2 = usage / schema / scenario /
// fingerprint error (the files are not comparable).
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/perf_diff.h"
#include "util/json.h"
#include "util/table.h"
#include "util/units.h"

using namespace cellsweep;

namespace {

constexpr const char* kUsage =
    "Usage: perf_diff <current.json> <baseline.json>\n"
    "           [--threshold X]        relative change allowed, either "
    "way (default 0.25)\n"
    "           [--metric name=X]...   add/override one metric's "
    "threshold\n"
    "           [--no-fingerprint]     skip the experiment-fingerprint "
    "check\n";

bool read_file(const std::string& path, std::string& out) {
  std::ifstream is(path);
  if (!is) return false;
  std::ostringstream ss;
  ss << is.rdbuf();
  out = ss.str();
  return true;
}

/// Parses "--metric name=X"; returns false on malformed input.
bool parse_metric_arg(const std::string& arg,
                      analysis::PerfDiffOptions& opt) {
  const std::size_t eq = arg.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  char* rest = nullptr;
  const double thr = std::strtod(arg.c_str() + eq + 1, &rest);
  if (rest == nullptr || *rest != '\0' || !(thr >= 0)) return false;
  opt.metric_thresholds.emplace_back(arg.substr(0, eq), thr);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  analysis::PerfDiffOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cout << kUsage;
      return 0;
    }
    if (arg == "--no-fingerprint") {
      opt.check_fingerprint = false;
    } else if (arg == "--threshold") {
      if (i + 1 >= argc) {
        std::cerr << "perf_diff: --threshold wants a value\n" << kUsage;
        return 2;
      }
      char* rest = nullptr;
      opt.default_threshold = std::strtod(argv[++i], &rest);
      if (rest == nullptr || *rest != '\0' || !(opt.default_threshold >= 0)) {
        std::cerr << "perf_diff: bad --threshold '" << argv[i] << "'\n";
        return 2;
      }
    } else if (arg == "--metric") {
      if (i + 1 >= argc || !parse_metric_arg(argv[++i], opt)) {
        std::cerr << "perf_diff: --metric wants name=threshold\n" << kUsage;
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "perf_diff: unknown flag " << arg << "\n" << kUsage;
      return 2;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.size() != 2) {
    std::cerr << kUsage;
    return 2;
  }

  util::JsonValue cur, base;
  for (int side = 0; side < 2; ++side) {
    const std::string& path = paths[static_cast<std::size_t>(side)];
    std::string text;
    if (!read_file(path, text)) {
      std::cerr << "perf_diff: cannot read " << path << "\n";
      return 2;
    }
    try {
      (side == 0 ? cur : base) = util::parse_json(text);
    } catch (const util::JsonError& e) {
      std::cerr << "perf_diff: " << path << ": " << e.what() << "\n";
      return 2;
    }
  }

  const analysis::PerfDiffResult res = analysis::diff_bench(cur, base, opt);

  // One pass, full picture: the comparison table (whatever rows were
  // structurally comparable) prints first, then every gate/structure
  // error -- so a CI log shows schema AND fingerprint AND moved
  // metrics together instead of one failure per rerun.
  if (!res.rows.empty()) {
    util::TextTable table(
        {"run", "metric", "baseline", "current", "ratio", "status"});
    for (const analysis::DiffRow& r : res.rows) {
      const bool skipped = r.status == analysis::DiffStatus::kSkipped;
      table.add_row({r.run, r.metric,
                     skipped ? "-" : util::cformat("%.6g", r.baseline),
                     skipped ? "-" : util::cformat("%.6g", r.current),
                     skipped ? r.note : util::cformat("%.3f", r.ratio),
                     analysis::diff_status_name(r.status)});
    }
    table.print(std::cout);
  }
  for (const std::string& e : res.errors)
    std::cerr << "perf_diff: error: " << e << "\n";
  if (!res.errors.empty()) {
    std::cerr << "perf_diff: " << res.errors.size()
              << " error(s); the files are not comparable\n";
    return 2;
  }
  if (res.moved()) {
    std::cout << "perf_diff: MOVED against "
              << paths[1] << " (threshold "
              << util::cformat("%.0f", opt.default_threshold * 100)
              << "%)\n";
    return 1;
  }
  std::cout << "perf_diff: ok\n";
  return 0;
}
