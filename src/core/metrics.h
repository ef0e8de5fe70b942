// Machine-readable run metrics.
//
// Serializes a RunReport -- top-line timing, the Section 6 bounds, DMA
// counters, the MFC queue-occupancy histogram, the per-SPE stall
// breakdown (busy / DMA-wait / sync-wait / idle), the hardware counter
// tree and the time-sliced utilization profile -- as a single JSON
// object, so runs can be diffed, plotted and regression-tracked without
// scraping the human-readable tables. The top-level "schema" key
// ("cellsweep-metrics-v4") versions the layout; v3 added the "faults"
// section (an object when fault injection was armed for the run, null
// otherwise); v4 added the "server" section (the solve server's
// telemetry document -- always null in a solo run's metrics, see
// write_server_metrics_json in server/solve_server.h for the served
// shape). Non-finite values (the
// empty RunningStats contract returns NaN for all moments) serialize as
// JSON null. All numeric formatting is locale-independent
// (util::cformat), so output is byte-stable across environments.
#pragma once

#include <iosfwd>
#include <vector>

namespace cellsweep::sim {
class CounterSet;
struct Profile;
}

namespace cellsweep::core {

struct RunReport;

/// The metrics JSON layout version emitted by write_metrics_json.
inline constexpr const char* kMetricsSchema = "cellsweep-metrics-v4";

/// Writes @p r as one JSON object to @p os.
void write_metrics_json(std::ostream& os, const RunReport& r);

/// Where one SPE's simulated time went, in seconds. The four buckets
/// partition the run: busy (kernel cycles) + dma_wait (SPU stalled on
/// its own gets/puts) + sync_wait (stalled on wavefront dependencies,
/// dispatch grants and barriers) + idle (no work assigned) = seconds.
struct SpeStalls {
  double busy_s = 0;
  double dma_wait_s = 0;
  double sync_wait_s = 0;
  double idle_s = 0;
};

/// The stall view of RunReport::counters, the one store of these
/// numbers: each "spe<N>" child's {busy,dma_wait,sync_wait,idle}_ticks
/// in seconds, one entry per SPE in order (empty for PPE runs). Every
/// console table, JSON writer and bench reads the stalls through it.
std::vector<SpeStalls> spe_stalls(const RunReport& r);

/// Writes @p c as {"name": ..., "values": {...}, "children": [...]}
/// (children only when present). @p indent is the column the object
/// starts at; continuation lines indent relative to it. Shared with the
/// bench harness's BENCH_*.json emitter.
void write_counters_json(std::ostream& os, const sim::CounterSet& c,
                         int indent = 0);

/// Writes @p p as {"window_ticks": ..., "end_ticks": ...,
/// "series": [{"track", "category", "busy_ticks": [...]}, ...]}.
void write_timeseries_json(std::ostream& os, const sim::Profile& p,
                           int indent = 0);

}  // namespace cellsweep::core
