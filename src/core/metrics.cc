#include "core/metrics.h"

#include <ostream>
#include <string>

#include "core/orchestrator.h"
#include "sim/counters.h"
#include "util/json.h"
#include "util/stats.h"

namespace cellsweep::core {
namespace {

void stats_object(std::ostream& os, const util::RunningStats& s) {
  os << "{\"count\": " << s.count()
     << ", \"mean\": " << util::json_number(s.mean())
     << ", \"min\": " << util::json_number(s.min())
     << ", \"max\": " << util::json_number(s.max())
     << ", \"stddev\": " << util::json_number(s.stddev()) << "}";
}

}  // namespace

void write_counters_json(std::ostream& os, const sim::CounterSet& c,
                         int indent) {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent),
                        ' ');
  os << "{\"name\": \"" << c.name() << "\",\n" << pad << " \"values\": {";
  const auto& vals = c.values();
  for (std::size_t i = 0; i < vals.size(); ++i) {
    os << (i ? ", " : "") << "\"" << vals[i].first
       << "\": " << util::json_number(vals[i].second);
  }
  os << "}";
  const auto& kids = c.children();
  if (!kids.empty()) {
    os << ",\n" << pad << " \"children\": [\n";
    for (std::size_t i = 0; i < kids.size(); ++i) {
      os << pad << "  ";
      write_counters_json(os, kids[i], indent + 2);
      os << (i + 1 < kids.size() ? ",\n" : "\n");
    }
    os << pad << " ]";
  }
  os << "}";
}

void write_timeseries_json(std::ostream& os, const sim::Profile& p,
                           int indent) {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent),
                        ' ');
  os << "{\"window_ticks\": " << p.window_ticks
     << ", \"end_ticks\": " << p.end_ticks << ",\n"
     << pad << " \"series\": [";
  for (std::size_t i = 0; i < p.series.size(); ++i) {
    const sim::ProfileSeries& s = p.series[i];
    os << (i ? ",\n" : "\n") << pad << "  {\"track\": \"" << s.track
       << "\", \"category\": \"" << s.category << "\", \"busy_ticks\": [";
    for (std::size_t k = 0; k < s.busy_ticks.size(); ++k)
      os << (k ? ", " : "") << util::json_number(s.busy_ticks[k]);
    os << "]}";
  }
  if (!p.series.empty()) os << "\n" << pad << " ";
  os << "]}";
}

std::vector<SpeStalls> spe_stalls(const RunReport& r) {
  const auto seconds = [](const sim::CounterSet& spe, const char* bucket) {
    return sim::seconds_from_ticks(static_cast<sim::Tick>(spe.value(bucket)));
  };
  std::vector<SpeStalls> out;
  for (int s = 0;; ++s) {
    const sim::CounterSet* spe =
        r.counters.find_child("spe" + std::to_string(s));
    if (spe == nullptr) return out;
    out.push_back(SpeStalls{seconds(*spe, "busy_ticks"),
                            seconds(*spe, "dma_wait_ticks"),
                            seconds(*spe, "sync_wait_ticks"),
                            seconds(*spe, "idle_ticks")});
  }
}

void write_metrics_json(std::ostream& os, const RunReport& r) {
  os << "{\n  \"schema\": \"" << kMetricsSchema << "\""
     << ",\n  \"seconds\": " << util::json_number(r.seconds)
     << ",\n  \"grind_seconds\": " << util::json_number(r.grind_seconds)
     << ",\n  \"achieved_flops_per_s\": "
     << util::json_number(r.achieved_flops_per_s)
     << ",\n  \"traffic_bytes\": " << util::json_number(r.traffic_bytes);
  os << ",\n  \"flops\": " << r.flops;
  os << ",\n  \"cell_solves\": " << r.cell_solves;
  os << ",\n  \"chunks\": " << r.chunks;
  os << ",\n  \"ls_high_water_bytes\": " << r.ls_high_water;
  os << ",\n  \"bounds\": {\"memory_s\": "
     << util::json_number(r.memory_bound_s)
     << ", \"compute_s\": " << util::json_number(r.compute_bound_s)
     << "},\n  \"utilization\": {\"mic\": "
     << util::json_number(r.mic_utilization)
     << ", \"eib\": " << util::json_number(r.eib_utilization);
  os << "},\n  \"dma\": {\"commands\": " << r.dma_commands
     << ", \"transfers\": " << r.dma_transfers
     << ", \"queue_occupancy_histogram\": [";
  for (std::size_t k = 0; k < r.mfc_queue_occupancy.size(); ++k)
    os << (k ? ", " : "") << r.mfc_queue_occupancy[k];
  os << "]},\n  \"spe_stalls\": [";
  // Aggregate moments across SPEs per bucket; for PPE-only runs these
  // accumulators stay empty and serialize their NaN moments as null.
  util::RunningStats busy, dma, sync, idle;
  const std::vector<SpeStalls> stalls = spe_stalls(r);
  for (std::size_t s = 0; s < stalls.size(); ++s) {
    const SpeStalls& st = stalls[s];
    busy.add(st.busy_s);
    dma.add(st.dma_wait_s);
    sync.add(st.sync_wait_s);
    idle.add(st.idle_s);
    os << (s ? ",\n    " : "\n    ") << "{\"spe\": " << s
       << ", \"busy_s\": " << util::json_number(st.busy_s)
       << ", \"dma_wait_s\": " << util::json_number(st.dma_wait_s)
       << ", \"sync_wait_s\": " << util::json_number(st.sync_wait_s)
       << ", \"idle_s\": " << util::json_number(st.idle_s) << "}";
  }
  os << "\n  ],\n  \"stall_stats\": {\"busy_s\": ";
  stats_object(os, busy);
  os << ", \"dma_wait_s\": ";
  stats_object(os, dma);
  os << ", \"sync_wait_s\": ";
  stats_object(os, sync);
  os << ", \"idle_s\": ";
  stats_object(os, idle);
  os << "},\n  \"counters\": ";
  if (r.counters.empty()) {
    os << "null";
  } else {
    write_counters_json(os, r.counters, 2);
  }
  os << ",\n  \"timeseries\": ";
  if (r.timeseries.window_ticks == 0 || r.timeseries.empty()) {
    os << "null";
  } else {
    write_timeseries_json(os, r.timeseries, 2);
  }
  os << ",\n  \"faults\": ";
  if (const sim::CounterSet* f = r.counters.find_child("faults")) {
    const auto n = [f](const char* counter) {
      return static_cast<std::uint64_t>(f->value(counter));
    };
    os << "{\"spes_disabled\": " << n("spes_disabled")
       << ", \"spes_failed\": " << n("spes_failed")
       << ", \"redispatched_chunks\": " << n("redispatched_chunks")
       << ",\n    \"dma_retries\": " << n("dma_retry_attempts")
       << ", \"tag_timeouts\": " << n("tag_timeouts")
       << ", \"dropped_messages\": " << n("dropped_messages")
       << ", \"mic_throttled\": " << n("mic_throttled_requests") << "}";
  } else {
    os << "null";
  }
  // Solo runs have no server; the serve path writes its own document
  // (write_server_metrics_json) with this key populated.
  os << ",\n  \"server\": null";
  os << "\n}\n";
}

}  // namespace cellsweep::core
