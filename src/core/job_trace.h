// Host-time job-lifecycle tracing for the solve server.
//
// The simulated-time observability stack (sim::TraceSink, DESIGN.md
// section 2b) attributes every simulated tick of one run; it says
// nothing about where a *job's host wall-clock* goes between submit()
// and its JobResult -- queue wait behind other tenants, plan-cache
// build, blocking on the SPE allocator. That is exactly the
// measurement ROADMAP's QoS work needs, so the server stamps every job
// with a JobTrace: host-monotonic timestamps for each lifecycle phase
//
//   admission -> queue wait -> plan-cache lookup ->
//   SPE-allocator claim wait -> run -> report
//
// and write_job_trace_events() renders the finished traces as
// per-tenant tracks through the same sim::ChromeTraceWriter JSON
// emitter the machine model uses -- one file domain is simulated
// microseconds, this one is host microseconds since server start; the
// two are never mixed in one file.
//
// Observation-only contract (same as every sink since PR 2): the host
// clock never feeds back into admission, scheduling or the simulated
// machine, so solved physics and simulated timing are byte-identical
// with tracing on or off (pinned by the solo-run perf baselines).
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace cellsweep::sim {
class ChromeTraceWriter;
}

namespace cellsweep::core {

/// Monotonic host clock anchored at construction. now_s() is steady
/// (never jumps backward); wall_ms() is the one wall-clock escape
/// hatch, used only to timestamp flight-recorder dump files.
class HostClock {
 public:
  HostClock() : epoch_(std::chrono::steady_clock::now()) {}

  /// Seconds since construction.
  double now_s() const { return at_s(std::chrono::steady_clock::now()); }

  /// @p t in seconds since construction.
  double at_s(std::chrono::steady_clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }

  /// Milliseconds since the Unix epoch (wall clock, for file names).
  static std::uint64_t wall_ms() {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
  }

 private:
  std::chrono::steady_clock::time_point epoch_;
};

/// One job's lifecycle timestamps, in host seconds on the server's
/// HostClock. kUnset (-1) marks a phase the job never reached -- a
/// cancelled job keeps its admission and enqueue stamps and nothing
/// after, which is precisely what the shutdown drain reports.
struct JobTrace {
  static constexpr double kUnset = -1.0;
  static bool reached(double t) { return t >= 0.0; }

  /// Worker that ran (or cancelled) the job; -1 = never dequeued.
  int tenant = -1;
  double admit_start_s = kUnset;  ///< submit() began parse + lint
  double admit_end_s = kUnset;    ///< admission checks passed
  double enqueue_s = kUnset;      ///< entered the job queue
  double dequeue_s = kUnset;      ///< a tenant worker picked it up
  double plan_start_s = kUnset;   ///< plan-cache lookup (+ build) began
  double plan_end_s = kUnset;     ///< plan ready (hit or built)
  double run_start_s = kUnset;    ///< solver handed the job
  double run_end_s = kUnset;      ///< solver returned
  double report_s = kUnset;       ///< result published to the client
  /// Host seconds the run spent blocked in SpeAllocator::claim()
  /// (0 when the chip had room immediately).
  double claim_wait_s = 0.0;
  /// When that wait began (kUnset without one): a sweep claims its
  /// SPEs only to price its sweeps, after a functional solve.
  double claim_start_s = kUnset;
  /// False: the server stopped before this job ran; the trace is the
  /// partial prefix up to enqueue (or dequeue).
  bool complete = false;

  double queue_wait_s() const {
    return reached(dequeue_s) && reached(enqueue_s) ? dequeue_s - enqueue_s
                                                    : kUnset;
  }
  double service_s() const {
    return reached(run_end_s) && reached(run_start_s)
               ? run_end_s - run_start_s
               : kUnset;
  }
};

/// One finished (or cancelled) job as the trace emitter needs it:
/// identity plus its lifecycle stamps. The server builds these from
/// JobResults in submission order.
struct TracedJob {
  int id = 0;
  std::string name;
  JobTrace trace;
};

/// Renders @p jobs as Chrome trace events on @p writer: an "admission"
/// track for submit()-side phases and one "tenant-N" track per worker
/// carrying queue-wait, plan, spe-claim-wait and solve spans (nested,
/// named after the job). Host-time domain: ts is host microseconds
/// since server start. Call from one thread (the writer is
/// ThreadConfined) after the jobs finished.
void write_job_trace_events(sim::ChromeTraceWriter& writer,
                            const std::vector<TracedJob>& jobs);

}  // namespace cellsweep::core
