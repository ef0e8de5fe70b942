#include "core/metrics_registry.h"

#include <cmath>
#include <ostream>
#include <stdexcept>

#include "sim/trace.h"
#include "util/json.h"
#include "util/units.h"

namespace cellsweep::core {

namespace {

/// %.17g round-trips doubles exactly; identical snapshots emit
/// identical bytes (same contract as util::json_number).
std::string fmt(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  return util::cformat("%.17g", v);
}

}  // namespace

const char* metric_type_name(MetricType t) {
  switch (t) {
    case MetricType::kCounter: return "counter";
    case MetricType::kGauge: return "gauge";
    case MetricType::kHistogram: return "histogram";
    case MetricType::kSeries: return "series";
  }
  return "unknown";
}

const MetricsRegistry::Entry* MetricsRegistry::Family::find(
    const std::string& label) const {
  for (const Entry& e : entries)
    if (e.label == label) return &e;
  return nullptr;
}

const MetricsRegistry::Family* MetricsRegistry::Snapshot::find(
    const std::string& name) const {
  for (const Family& f : families)
    if (f.name == name) return &f;
  return nullptr;
}

MetricsRegistry::Entry& MetricsRegistry::entry(const Key& key, MetricType type,
                                               const char* help) {
  auto [fit, inserted] =
      families_.try_emplace(key.family, type, std::string(help));
  if (!inserted && fit->second.first != type) {
    throw std::logic_error("MetricsRegistry: family '" + key.family +
                           "' registered as " +
                           metric_type_name(fit->second.first) +
                           ", recorded as " + metric_type_name(type));
  }
  auto [eit, fresh] = entries_.try_emplace(key);
  if (fresh) eit->second.label = key.label;
  return eit->second;
}

void MetricsRegistry::counter_add(const std::string& family,
                                  const std::string& label, double delta,
                                  const char* help) {
  util::MutexLock lock(mu_);
  entry(Key{family, label}, MetricType::kCounter, help).value += delta;
}

void MetricsRegistry::gauge_set(const std::string& family,
                                const std::string& label, double value,
                                const char* help) {
  util::MutexLock lock(mu_);
  entry(Key{family, label}, MetricType::kGauge, help).value = value;
}

void MetricsRegistry::observe(const std::string& family,
                              const std::string& label, double value,
                              const char* help) {
  util::MutexLock lock(mu_);
  entry(Key{family, label}, MetricType::kHistogram, help).hist.add(value);
}

void MetricsRegistry::series_sample(const std::string& family,
                                    const std::string& label, double host_s,
                                    double value, const char* help) {
  util::MutexLock lock(mu_);
  Entry& e = entry(Key{family, label}, MetricType::kSeries, help);
  e.samples.emplace_back(host_s, value);
  if (e.samples.size() >= kMaxSeriesSamples) {
    // 2:1 decimation: keep even indices, halving resolution but
    // preserving full time coverage.
    std::size_t out = 0;
    for (std::size_t i = 0; i < e.samples.size(); i += 2)
      e.samples[out++] = e.samples[i];
    e.samples.resize(out);
  }
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  util::MutexLock lock(mu_);
  Snapshot snap;
  snap.families.reserve(families_.size());
  // families_ and entries_ are std::maps: iteration is already sorted
  // by name / (family, label), which is the snapshot's ordering
  // contract.
  for (const auto& [name, meta] : families_) {
    Family fam;
    fam.name = name;
    fam.type = meta.first;
    fam.help = meta.second;
    for (auto it = entries_.lower_bound(Key{name, std::string()});
         it != entries_.end() && it->first.family == name; ++it)
      fam.entries.push_back(it->second);
    snap.families.push_back(std::move(fam));
  }
  return snap;
}

void write_prometheus(std::ostream& os,
                      const MetricsRegistry::Snapshot& snap) {
  for (const MetricsRegistry::Family& fam : snap.families) {
    const bool series = fam.type == MetricType::kSeries;
    os << "# HELP " << fam.name << " "
       << (fam.help.empty() ? "(no help)" : fam.help) << "\n";
    // Prometheus has no native series type; expose the latest sample
    // as a gauge (the full series lives in the JSON snapshot).
    os << "# TYPE " << fam.name << " "
       << (series ? "gauge" : metric_type_name(fam.type)) << "\n";
    for (const MetricsRegistry::Entry& e : fam.entries) {
      const std::string labels =
          e.label.empty() ? std::string() : "{" + e.label + "}";
      switch (fam.type) {
        case MetricType::kCounter:
        case MetricType::kGauge:
          os << fam.name << labels << " " << fmt(e.value) << "\n";
          break;
        case MetricType::kSeries:
          if (!e.samples.empty())
            os << fam.name << labels << " " << fmt(e.samples.back().second)
               << "\n";
          break;
        case MetricType::kHistogram: {
          // Cumulative buckets over the histogram's upper edges; the
          // mandatory +Inf bucket equals _count.
          const util::Histogram& h = e.hist;
          std::uint64_t cum = 0;
          for (std::size_t b = 0; b < h.bin_count(); ++b) {
            const double upper = h.bin_upper(b);
            if (std::isinf(upper)) continue;  // folded into +Inf below
            cum += h.bin(b);
            os << fam.name << "_bucket{"
               << (e.label.empty() ? std::string() : e.label + ",")
               << "le=\"" << fmt(upper) << "\"} " << cum << "\n";
          }
          os << fam.name << "_bucket{"
             << (e.label.empty() ? std::string() : e.label + ",")
             << "le=\"+Inf\"} " << h.count() << "\n";
          os << fam.name << "_sum" << labels << " "
             << fmt(h.count() == 0 ? 0.0 : h.sum()) << "\n";
          os << fam.name << "_count" << labels << " " << h.count() << "\n";
          break;
        }
      }
    }
  }
}

void write_snapshot_json(std::ostream& os,
                         const MetricsRegistry::Snapshot& snap, int indent) {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent),
                        ' ');
  if (snap.families.empty()) {
    os << "[]";
    return;
  }
  os << "[";
  for (std::size_t i = 0; i < snap.families.size(); ++i) {
    const MetricsRegistry::Family& fam = snap.families[i];
    os << (i ? ",\n" : "\n") << pad << " {\"name\": \""
       << sim::json_escape(fam.name) << "\", \"type\": \""
       << metric_type_name(fam.type) << "\", \"entries\": [";
    for (std::size_t k = 0; k < fam.entries.size(); ++k) {
      const MetricsRegistry::Entry& e = fam.entries[k];
      os << (k ? ",\n" : "\n") << pad << "   {\"label\": \""
         << sim::json_escape(e.label) << "\", ";
      switch (fam.type) {
        case MetricType::kCounter:
        case MetricType::kGauge:
          os << "\"value\": " << util::json_number(e.value);
          break;
        case MetricType::kHistogram: {
          const util::Histogram& h = e.hist;
          os << "\"count\": " << h.count() << ", \"sum\": "
             << util::json_number(h.count() == 0 ? 0.0 : h.sum())
             << ", \"min\": " << util::json_number(h.min())
             << ", \"max\": " << util::json_number(h.max())
             << ", \"p50\": " << util::json_number(h.percentile(0.50))
             << ", \"p95\": " << util::json_number(h.percentile(0.95))
             << ", \"p99\": " << util::json_number(h.percentile(0.99));
          break;
        }
        case MetricType::kSeries: {
          os << "\"samples\": [";
          for (std::size_t s = 0; s < e.samples.size(); ++s) {
            os << (s ? ", " : "") << "["
               << util::json_number(e.samples[s].first) << ", "
               << util::json_number(e.samples[s].second) << "]";
          }
          os << "]";
          break;
        }
      }
      os << "}";
    }
    if (!fam.entries.empty()) os << "\n" << pad << "  ";
    os << "]}";
  }
  os << "\n" << pad << "]";
}

}  // namespace cellsweep::core
