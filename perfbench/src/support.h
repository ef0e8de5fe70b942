// Shared plumbing of the host-time benchmark: wall-clock spans, sample
// statistics, the per-run result record and the build/host fingerprint.
//
// Spans are the benchmark's own: each wraps one call into a CellSweep
// layer's public API (deck parse, lint, plan build, the physics solve,
// TimingEngine::on_diagonal, enumerate_sweep, finish, metrics emission).
// They are kept in memory and only summarized after the measured phase,
// so tracing does no I/O while it times anything.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Quantile @p q in [0, 1] by linear interpolation between the closest
/// ranks; NaN for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Wall-clock span recorder for one thread. Disabled, span() returns a
/// scope that does nothing (the untraced runs construct it disabled).
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* t, const char* name) : t_(t), idx_(t ? t->open(name) : -1) {}
    ~Scope() {
      if (t_) t_->close(idx_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* t_;
    int idx_;
  };

  Scope span(const char* name) { return Scope(enabled_ ? this : nullptr, name); }
  bool enabled() const noexcept { return enabled_; }

  /// Totals over every span whose path ends in a given name.
  struct Layer {
    std::uint64_t count = 0;
    double total_s = 0;  ///< summed span durations
    double self_s = 0;   ///< durations minus the time child spans cover
  };
  /// Keyed by span name.
  std::map<std::string, Layer> by_name() const;
  /// Keyed by the "/"-joined path of names from the root span.
  std::map<std::string, Layer> by_path() const;

 private:
  struct Span {
    const char* name;
    int parent;
    Clock::time_point begin, end;
  };
  int open(const char* name);
  void close(int idx);
  std::vector<double> self_seconds() const;

  bool enabled_;
  std::vector<Span> spans_;
  int current_ = -1;
};

using LayerMap = std::map<std::string, Tracer::Layer>;

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// One attribution row: a layer's share of an end-to-end time.
struct Row {
  std::string layer;
  double seconds = 0;
};

/// Everything one workload run reports.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// First few failure descriptions (the count is `failed`).
  std::vector<std::string> failures;
  /// End-to-end metrics (untraced runs) or per-layer metrics (traced).
  std::vector<Metric> metrics;
  /// Extra values kept in the output file only (sample counts, traced
  /// end-to-end times, tracing overhead...).
  std::vector<Metric> notes;
  /// Layer self times + an "unattributed" row per end-to-end time.
  std::map<std::string, std::vector<Row>> attribution;
  /// Span summary of the traced run, by path.
  LayerMap spans;
  /// Host threads the workload runs (fingerprint).
  std::map<std::string, int> threads;

  /// Counts one attempted operation; a false @p ok counts it failed.
  void op(bool ok, const std::string& what_failed = {});
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& name, double value, const std::string& unit) {
    notes.push_back({name, value, unit});
  }
};

/// Every per-layer metric of BENCHMARK.json, in its order. A layer the
/// workload does not exercise reports 0. Times are per operation (one
/// solve, one ladder pass, one served job) unless named as a quantile.
struct PerLayer {
  double parse_s = 0, lint_s = 0, plan_build_s = 0, plan_shapes = 0;
  double physics_self_s = 0, physics_cell_solves = 0, physics_grind_ns = 0;
  double timing_self_s = 0, timing_diagonals = 0, timing_chunks = 0;
  double timing_dma_commands = 0, timing_ns_per_chunk = 0;
  double timing_sim_rate = 0;
  double enumerate_self_s = 0, report_emit_s = 0, report_bytes = 0;
  double submit_p50_s = 0, queue_wait_p50_s = 0, queue_wait_p90_s = 0;
  double plan_p50_s = 0, plan_cache_hit_ratio = 0, claim_wait_p50_s = 0;
  double allocator_waited_claims = 0, allocator_shrinks = 0;
  double service_p50_sweep_s = 0, service_p50_stencil_s = 0;
  double pool_forks = 0, pool_items_per_fork = 0, pool_utilization = 0;
  double pool_peak_fork_queue = 0;
  double driver_late_s = 0;
  double unattributed_s = 0, trace_overhead_s = 0, error_rate = 0;
};

/// Appends every PerLayer field to @p r as a metric.
void add_per_layer(Result& r, const PerLayer& l);

/// Command-line options every workload receives.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";  ///< repository checkout (inputs live here)
};

/// Moves the calling thread from CPU to CPU of the set it may run on,
/// or keeps it to the fastest few, and gives the thread its whole set
/// back when destroyed.
///
/// On a shared host the CPUs are not equally fast: which host core a
/// virtual CPU lands on, and what runs beside it, changes over minutes.
/// One single-thread solve pinned to each CPU in turn took 2.7 to
/// 4.7 s, the slowest CPU the same one twice over. A workload that
/// never leaves its CPU measures that placement for its whole run.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Times the best of @p reps calls of @p probe on each CPU and orders
  /// the CPUs fastest first; returns the slowest CPU's time over the
  /// fastest's.
  double rank(const std::function<void()>& probe, int reps);
  /// Pins the calling thread to the (i mod cpus())-th CPU of the set.
  void pin(std::size_t i);
  /// Lets the calling thread, and the threads it creates from now on,
  /// run on the first @p n CPUs of the set (all of them if fewer).
  void keep_first(std::size_t n);
  std::size_t cpus() const noexcept { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
};

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

/// CPU model string from /proc/cpuinfo ("unknown" when absent).
std::string cpu_model();

/// Reads a whole file; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

/// JSON string literal of @p s (quotes included).
std::string json_quote(const std::string& s);

/// Shortest round-trip decimal of @p v; "null" when not finite.
std::string json_number(double v);

}  // namespace perfbench
