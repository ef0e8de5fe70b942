#include "core/job_trace.h"

#include <algorithm>

#include "sim/trace.h"

namespace cellsweep::core {

namespace {

sim::Tick ticks(double host_s) {
  return host_s <= 0.0 ? 0 : sim::ticks_from_seconds(host_s);
}

}  // namespace

void write_job_trace_events(sim::ChromeTraceWriter& writer,
                            const std::vector<TracedJob>& jobs) {
  const int admission = writer.track("admission");
  // Tenant tracks in worker order, declared up front so the timeline
  // rows sort 0..N-1 regardless of which tenant finished first.
  int max_tenant = -1;
  for (const TracedJob& j : jobs)
    max_tenant = std::max(max_tenant, j.trace.tenant);
  std::vector<int> tenant_track(static_cast<std::size_t>(max_tenant + 1), -1);
  for (int t = 0; t <= max_tenant; ++t)
    tenant_track[static_cast<std::size_t>(t)] =
        writer.track("tenant-" + std::to_string(t));

  for (const TracedJob& j : jobs) {
    const JobTrace& t = j.trace;
    if (JobTrace::reached(t.admit_start_s) &&
        JobTrace::reached(t.admit_end_s)) {
      writer.span_copy(admission, "admit " + j.name, "admission",
                       ticks(t.admit_start_s), ticks(t.admit_end_s));
    }
    if (t.tenant < 0) continue;  // rejected, or cancelled before dequeue
    const int track = tenant_track[static_cast<std::size_t>(t.tenant)];
    if (JobTrace::reached(t.enqueue_s) && JobTrace::reached(t.dequeue_s)) {
      writer.span_copy(track, "queue-wait " + j.name, "queue",
                       ticks(t.enqueue_s), ticks(t.dequeue_s));
    }
    if (!t.complete) {
      if (JobTrace::reached(t.dequeue_s))
        writer.instant(track, "cancelled", "lifecycle", ticks(t.dequeue_s));
      continue;
    }
    // The job span covers dequeue -> report; plan, claim-wait and solve
    // nest inside it (Chrome "X" events nest by containment).
    const double job_end =
        JobTrace::reached(t.report_s) ? t.report_s : t.run_end_s;
    writer.span_copy(track, j.name, "job", ticks(t.dequeue_s),
                     ticks(job_end));
    if (JobTrace::reached(t.plan_start_s) && JobTrace::reached(t.plan_end_s))
      writer.span_copy(track, "plan " + j.name, "plan", ticks(t.plan_start_s),
                       ticks(t.plan_end_s));
    if (JobTrace::reached(t.run_start_s) && JobTrace::reached(t.run_end_s)) {
      writer.span_copy(track, "solve " + j.name, "solve",
                       ticks(t.run_start_s), ticks(t.run_end_s));
      if (t.claim_wait_s > 0.0 && JobTrace::reached(t.claim_start_s))
        writer.span_copy(track, "spe-claim-wait " + j.name, "allocator",
                         ticks(t.claim_start_s),
                         ticks(t.claim_start_s + t.claim_wait_s));
    }
  }
}

}  // namespace cellsweep::core
