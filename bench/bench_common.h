// Shared helpers for the bench harness. Every binary in bench/
// regenerates one of the paper's tables or figures: it runs the
// simulated experiment and prints paper-reported vs measured rows.
//
// Besides the human-readable tables, every bench can emit a
// machine-readable BENCH_<scenario>.json (schema "cellsweep-bench-v2")
// via --json <dir>: config fingerprint, per-run metrics (grind time,
// traffic, utilizations), the full hardware counter tree and per-stage
// deltas. tools/perf_diff compares two such files and fails CI on
// regression. All numeric output routes through util::cformat (JSON
// numbers through util::json_number), so both the tables and the JSON
// are byte-stable across locales.
#pragma once

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/metrics.h"
#include "core/orchestrator.h"
#include "util/json.h"
#include "util/table.h"
#include "util/units.h"

namespace cellsweep::bench {

/// The BENCH JSON layout version (tools/perf_diff checks it).
inline constexpr const char* kBenchSchema = "cellsweep-bench-v2";

/// Runs one optimization stage on an n-cubed benchmark problem with the
/// paper's deck (12 iterations, fixups in the last two) and returns the
/// report. Trace-driven: full 50-cubed scale in well under a second.
inline core::RunReport run_stage(core::OptimizationStage stage, int cube = 50,
                                 int iterations = 12) {
  const sweep::Problem problem = sweep::Problem::benchmark_cube(cube);
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(stage);
  cfg.sweep.max_iterations = iterations;
  cfg.sweep.fixup_from_iteration = iterations - 2;
  // MK must factor KT: pick the largest divisor <= the default.
  cfg.sweep.mk = sweep::largest_mk(cube, cfg.sweep.mk);
  core::CellSweep3D runner(problem, cfg);
  return runner.run(core::RunMode::kTraceDriven);
}

/// Locale-independent snprintf for table cells and JSON fragments.
inline std::string fmt(const char* f, double v) { return util::cformat(f, v); }

/// One `"key": value` member of a BENCH run's "metrics" object.
inline void write_metric(std::ostream& os, const char* key, double v,
                         bool first = false) {
  os << (first ? "" : ",") << "\n       \"" << key
     << "\": " << util::json_number(v);
}

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n\n";
}

/// Common bench command line: `--json <dir>` turns on BENCH_*.json
/// emission, `--cube N` scales the problem (the CI perf job runs the
/// benches small). Unknown flags fail, so typos never silently run the
/// default experiment.
struct BenchOptions {
  std::string json_dir;  ///< empty: no JSON emission
  int cube = 50;
  bool ok = true;

  /// Cube size for a scenario that wants @p fallback unless --cube was
  /// given explicitly.
  int cube_or(int fallback) const { return cube_set ? cube : fallback; }
  bool cube_set = false;
};

inline BenchOptions parse_bench_args(int argc, char** argv) {
  BenchOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    auto take_value = [&](const std::string& flag) {
      if (arg.size() > flag.size() && arg.compare(0, flag.size() + 1,
                                                  flag + "=") == 0) {
        value = arg.substr(flag.size() + 1);
        return true;
      }
      if (arg == flag && i + 1 < argc) {
        value = argv[++i];
        return true;
      }
      return false;
    };
    if (take_value("--json")) {
      opt.json_dir = value;
    } else if (take_value("--cube")) {
      char* rest = nullptr;
      const long n = std::strtol(value.c_str(), &rest, 10);
      if (rest == nullptr || *rest != '\0' || n < 2) {
        std::cerr << argv[0] << ": --cube wants an integer >= 2, got '"
                  << value << "'\n";
        opt.ok = false;
        return opt;
      }
      opt.cube = static_cast<int>(n);
      opt.cube_set = true;
    } else {
      std::cerr << argv[0] << ": unknown argument '" << arg
                << "' (supported: --json <dir>, --cube N)\n";
      opt.ok = false;
      return opt;
    }
  }
  return opt;
}

/// Collects named runs of one scenario and writes them as
/// BENCH_<scenario>.json. Runs appear in insertion order; consecutive
/// runs produce a "deltas" entry (the per-stage steps of a ladder).
class BenchJson {
 public:
  BenchJson(std::string scenario, int cube, int iterations = 12)
      : scenario_(std::move(scenario)), cube_(cube),
        iterations_(iterations) {}

  void add_run(const std::string& name, const core::RunReport& r) {
    runs_.emplace_back(name, r);
  }

  /// Writes @p dir/BENCH_<scenario>.json; returns true on success and
  /// logs the path.
  bool write(const std::string& dir) const {
    const std::string path = dir + "/BENCH_" + scenario_ + ".json";
    std::ofstream os(path);
    if (!os) {
      std::cerr << "bench: cannot write " << path << "\n";
      return false;
    }
    os << "{\n  \"schema\": \"" << kBenchSchema << "\",\n  \"scenario\": \""
       << scenario_ << "\",\n  \"fingerprint\": {\"cube\": " << cube_
       << ", \"iterations\": " << iterations_ << "},\n  \"runs\": [";
    for (std::size_t i = 0; i < runs_.size(); ++i) {
      const auto& [name, r] = runs_[i];
      os << (i ? ",\n" : "\n") << "    {\"name\": \"" << name
         << "\",\n     \"metrics\": {";
      write_metric(os, "seconds", r.seconds, true);
      write_metric(os, "grind_seconds", r.grind_seconds);
      write_metric(os, "achieved_flops_per_s", r.achieved_flops_per_s);
      write_metric(os, "traffic_bytes", r.traffic_bytes);
      write_metric(os, "compute_busy_s", r.compute_busy_s);
      write_metric(os, "mic_busy_s", r.mic_busy_s);
      write_metric(os, "mic_utilization", r.mic_utilization);
      write_metric(os, "eib_utilization", r.eib_utilization);
      write_metric(os, "memory_bound_s", r.memory_bound_s);
      write_metric(os, "compute_bound_s", r.compute_bound_s);
      os << ",\n       \"flops\": " << r.flops
         << ", \"cell_solves\": " << r.cell_solves
         << ", \"chunks\": " << r.chunks
         << ", \"dma_commands\": " << r.dma_commands
         << ", \"dma_transfers\": " << r.dma_transfers << "},\n"
         << "     \"counters\": ";
      if (r.counters.empty()) {
        os << "null";
      } else {
        core::write_counters_json(os, r.counters, 5);
      }
      os << "}";
    }
    os << "\n  ],\n  \"deltas\": [";
    for (std::size_t i = 0; i + 1 < runs_.size(); ++i) {
      const auto& [from, a] = runs_[i];
      const auto& [to, b] = runs_[i + 1];
      os << (i ? ",\n" : "\n") << "    {\"from\": \"" << from
         << "\", \"to\": \"" << to << "\", \"seconds_delta\": "
         << util::json_number(b.seconds - a.seconds)
         << ", \"seconds_ratio\": "
         << (a.seconds > 0 ? util::json_number(b.seconds / a.seconds)
                           : std::string("null"))
         << "}";
    }
    if (runs_.size() > 1) os << "\n  ";
    os << "]\n}\n";
    std::cout << "Bench JSON -> " << path << "\n";
    return os.good();
  }

 private:
  std::string scenario_;
  int cube_;
  int iterations_;
  std::vector<std::pair<std::string, core::RunReport>> runs_;
};

/// One-call emission for a single-run scenario.
inline bool emit_bench_json(const std::string& dir,
                            const std::string& scenario, int cube,
                            const std::string& run_name,
                            const core::RunReport& r) {
  BenchJson json(scenario, cube);
  json.add_run(run_name, r);
  return json.write(dir);
}

}  // namespace cellsweep::bench
