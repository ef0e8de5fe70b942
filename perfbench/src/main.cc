// perfbench: host-time benchmark of CellSweep, end to end and by layer.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--root DIR] [--out FILE]
//
// Runs one workload for about S seconds of measurement, prints every
// metric with its unit plus the layer attribution, and writes the full
// result (fingerprint, metrics, correctness tally, span summary) as
// JSON to FILE. --root is the repository checkout the inputs are read
// from. perfbench/run.py builds this binary and wraps it.
#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "support.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Workload {
  const char* name;
  /// Host threads the workload keeps busy at once (checked <= nproc).
  int threads;
  Result (*run)(const Options&);
};

// serve-mixed: 2 tenant workers (the width-1 shared host pool runs on
// the calling tenant) + the arrival driver; the main thread only blocks
// in submit/drain, and the solo reference runs come after the measured
// phases on at most nproc threads.
constexpr Workload kWorkloads[] = {
    {"paper50-functional", 1, run_paper50},
    {"fig5-ladder", 1, run_fig5},
    {"serve-mixed", 3, run_serve},
};

std::string valid_names() {
  std::string s;
  for (const Workload& w : kWorkloads) s += std::string(s.empty() ? "" : ", ") + w.name;
  return s;
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "perfbench: " << msg << "\n"
            << "usage: perfbench --workload <" << valid_names()
            << "> [--seed N] [--seconds S] [--trace 0|1] [--root DIR] "
               "[--out FILE]\n";
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0') usage_error(flag + " wants a number, got '" + v + "'");
  return d;
}

void write_metric_map(std::ostream& os, const std::vector<Metric>& ms) {
  os << "{";
  for (std::size_t i = 0; i < ms.size(); ++i)
    os << (i ? ",\n    " : "\n    ") << json_quote(ms[i].name)
       << ": {\"value\": " << json_number(ms[i].value)
       << ", \"unit\": " << json_quote(ms[i].unit) << "}";
  os << "\n  }";
}

void write_result(std::ostream& os, const Options& o, const Result& r) {
  const unsigned nproc = std::thread::hardware_concurrency();
  os << "{\n  \"schema\": \"cellsweep-perfbench-v1\",\n"
     << "  \"workload\": " << json_quote(o.workload) << ",\n"
     << "  \"seed\": " << o.seed << ",\n"
     << "  \"seconds\": " << json_number(o.seconds) << ",\n"
     << "  \"trace\": " << (o.trace ? 1 : 0) << ",\n"
     << "  \"fingerprint\": {\"compiler\": " << json_quote(PERFBENCH_COMPILER)
     << ", \"flags\": " << json_quote(PERFBENCH_FLAGS)
     << ", \"build_type\": " << json_quote(PERFBENCH_BUILD_TYPE)
     << ", \"cpu_model\": " << json_quote(cpu_model())
     << ", \"nproc\": " << nproc << ", \"threads\": {";
  bool first = true;
  for (const auto& [k, v] : r.threads) {
    os << (first ? "" : ", ") << json_quote(k) << ": " << v;
    first = false;
  }
  os << "}},\n"
     << "  \"correct\": " << (r.failed == 0 ? "true" : "false") << ",\n"
     << "  \"attempted\": " << r.attempted << ",\n"
     << "  \"failed\": " << r.failed << ",\n"
     << "  \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    os << (i ? ", " : "") << json_quote(r.failures[i]);
  os << "],\n  \"metrics\": ";
  write_metric_map(os, r.metrics);
  os << ",\n  \"notes\": ";
  write_metric_map(os, r.notes);
  os << ",\n  \"attribution\": {";
  first = true;
  for (const auto& [total, rows] : r.attribution) {
    os << (first ? "\n    " : ",\n    ") << json_quote(total) << ": [";
    for (std::size_t i = 0; i < rows.size(); ++i)
      os << (i ? ", " : "") << "{\"layer\": " << json_quote(rows[i].layer)
         << ", \"seconds\": " << json_number(rows[i].seconds) << "}";
    os << "]";
    first = false;
  }
  os << "\n  },\n  \"spans\": {";
  first = true;
  for (const auto& [path, l] : r.spans) {
    os << (first ? "\n    " : ",\n    ") << json_quote(path)
       << ": {\"count\": " << l.count
       << ", \"total_s\": " << json_number(l.total_s)
       << ", \"self_s\": " << json_number(l.self_s) << "}";
    first = false;
  }
  os << "\n  }\n}\n";
}

void print_result(const Options& o, const Result& r) {
  std::printf("perfbench %s (seed %llu, %.0f s, trace %d): %llu ops, %llu failed\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0,
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (const std::string& f : r.failures) std::printf("  FAILED: %s\n", f.c_str());
  for (const auto& [total, rows] : r.attribution) {
    double all = 0;
    for (const Row& row : rows) all += row.seconds;
    std::printf("  where %s goes (mean per op, %.6f s):\n", total.c_str(), all);
    for (const Row& row : rows)
      std::printf("    %-28s %12.6f s %6.1f%%\n", row.layer.c_str(), row.seconds,
                  all > 0 ? 100.0 * row.seconds / all : 0.0);
  }
  for (const Metric& m : r.notes)
    std::printf("  (%s %.6g %s)\n", m.name.c_str(), m.value, m.unit.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  // A fixed mmap threshold: glibc otherwise raises it after large blocks
  // are freed, so whether a big field lands on the heap (and stays
  // resident) would depend on the order concurrent jobs freed theirs,
  // and peak_rss_mb with it.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  Options o;
  std::string out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload") o.workload = v;
    else if (flag == "--seed") o.seed = static_cast<std::uint64_t>(parse_number(flag, v));
    else if (flag == "--seconds") o.seconds = parse_number(flag, v);
    else if (flag == "--trace") o.trace = parse_number(flag, v) != 0;
    else if (flag == "--root") o.root = v;
    else if (flag == "--out") out = v;
    else usage_error("unknown flag " + flag);
  }
  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads)
    if (o.workload == cand.name) w = &cand;
  if (!w) usage_error("unknown workload '" + o.workload + "'; valid: " + valid_names());
  if (o.seconds <= 0) usage_error("--seconds must be positive");

  const int nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  if (w->threads > nproc) {
    std::cerr << "perfbench: " << w->name << " runs " << w->threads
              << " host threads but nproc is " << nproc << "\n";
    return 2;
  }

  Result r;
  try {
    r = w->run(o);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << w->name << ": " << e.what() << "\n";
    return 1;
  }
  print_result(o, r);
  if (!out.empty()) {
    std::ofstream f(out);
    write_result(f, o, r);
    if (!f) {
      std::cerr << "perfbench: cannot write " << out << "\n";
      return 1;
    }
  }
  return 0;
}
