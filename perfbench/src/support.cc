#include "support.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

int Tracer::open(const char* name) {
  spans_.push_back({name, current_, Clock::now(), {}});
  current_ = static_cast<int>(spans_.size()) - 1;
  return current_;
}

void Tracer::close(int idx) {
  Span& s = spans_[static_cast<std::size_t>(idx)];
  s.end = Clock::now();
  current_ = s.parent;
}

std::vector<double> Tracer::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double d =
        std::chrono::duration<double>(spans_[i].end - spans_[i].begin).count();
    self[i] += d;
    if (spans_[i].parent >= 0)
      self[static_cast<std::size_t>(spans_[i].parent)] -= d;
  }
  return self;
}

std::map<std::string, Tracer::Layer> Tracer::by_name() const {
  const std::vector<double> self = self_seconds();
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Layer& l = out[spans_[i].name];
    ++l.count;
    l.total_s +=
        std::chrono::duration<double>(spans_[i].end - spans_[i].begin).count();
    l.self_s += self[i];
  }
  return out;
}

std::map<std::string, Tracer::Layer> Tracer::by_path() const {
  const std::vector<double> self = self_seconds();
  std::vector<std::string> path(spans_.size());
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    // Parents precede children, so the parent's path is already built.
    const int p = spans_[i].parent;
    path[i] = p < 0 ? spans_[i].name
                    : path[static_cast<std::size_t>(p)] + "/" + spans_[i].name;
    Layer& l = out[path[i]];
    ++l.count;
    l.total_s +=
        std::chrono::duration<double>(spans_[i].end - spans_[i].begin).count();
    l.self_s += self[i];
  }
  return out;
}

void Result::op(bool ok, const std::string& what_failed) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 20) failures.push_back(what_failed);
}

void add_per_layer(Result& r, const PerLayer& l) {
  r.metric("sweep.deck.parse_s", l.parse_s, "s");
  r.metric("analysis.lint_s", l.lint_s, "s");
  r.metric("core.plan.build_s", l.plan_build_s, "s");
  r.metric("core.plan.shapes", l.plan_shapes, "count");
  r.metric("sweep.physics.self_s", l.physics_self_s, "s");
  r.metric("sweep.physics.cell_solves", l.physics_cell_solves, "count");
  r.metric("sweep.physics.grind_ns", l.physics_grind_ns, "ns");
  r.metric("core.timing.self_s", l.timing_self_s, "s");
  r.metric("core.timing.diagonals", l.timing_diagonals, "count");
  r.metric("core.timing.chunks", l.timing_chunks, "count");
  r.metric("core.timing.dma_commands", l.timing_dma_commands, "count");
  r.metric("core.timing.ns_per_chunk", l.timing_ns_per_chunk, "ns");
  r.metric("core.timing.sim_rate", l.timing_sim_rate, "s/s");
  r.metric("core.enumerate.self_s", l.enumerate_self_s, "s");
  r.metric("core.report.emit_s", l.report_emit_s, "s");
  r.metric("core.report.bytes", l.report_bytes, "bytes");
  r.metric("server.submit_p50_s", l.submit_p50_s, "s");
  r.metric("server.queue_wait_p50_s", l.queue_wait_p50_s, "s");
  r.metric("server.queue_wait_p90_s", l.queue_wait_p90_s, "s");
  r.metric("server.plan_p50_s", l.plan_p50_s, "s");
  r.metric("server.plan_cache.hit_ratio", l.plan_cache_hit_ratio, "ratio");
  r.metric("server.claim_wait_p50_s", l.claim_wait_p50_s, "s");
  r.metric("core.allocator.waited_claims", l.allocator_waited_claims,
           "count");
  r.metric("core.allocator.shrinks", l.allocator_shrinks, "count");
  r.metric("server.service_p50_s.sweep", l.service_p50_sweep_s, "s");
  r.metric("server.service_p50_s.stencil", l.service_p50_stencil_s, "s");
  r.metric("util.pool.forks", l.pool_forks, "count");
  r.metric("util.pool.items_per_fork", l.pool_items_per_fork, "count");
  r.metric("util.pool.utilization", l.pool_utilization, "ratio");
  r.metric("util.pool.peak_fork_queue", l.pool_peak_fork_queue, "count");
  r.metric("server.driver.late_s", l.driver_late_s, "s");
  r.metric("bench.unattributed_s", l.unattributed_s, "s");
  r.metric("bench.trace_overhead_s", l.trace_overhead_s, "s");
  r.metric("error_rate", l.error_rate, "ratio");
}

namespace {

void set_affinity(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
}

CpuRotation::~CpuRotation() {
  if (!cpus_.empty()) set_affinity(cpus_);
}

double CpuRotation::rank(const std::function<void()>& probe, int reps) {
  if (cpus_.empty()) return 1.0;
  std::vector<std::pair<double, int>> timed;
  for (std::size_t i = 0; i < cpus_.size(); ++i) {
    pin(i);
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < reps; ++r) {
      const auto t0 = Clock::now();
      probe();
      best = std::min(best, seconds_since(t0));
    }
    timed.push_back({best, cpus_[i]});
  }
  std::stable_sort(timed.begin(), timed.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  for (std::size_t i = 0; i < timed.size(); ++i) cpus_[i] = timed[i].second;
  return timed.back().first / timed.front().first;
}

void CpuRotation::keep_first(std::size_t n) {
  if (!cpus_.empty())
    set_affinity({cpus_.begin(), cpus_.begin() + std::min(n, cpus_.size())});
}

void CpuRotation::pin(std::size_t i) {
  if (!cpus_.empty()) set_affinity({cpus_[i % cpus_.size()]});
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t b = line.find_first_not_of(" \t", colon + 1);
    return b == std::string::npos ? "unknown" : line.substr(b);
  }
  return "unknown";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace perfbench
