#include "core/arrival.h"

#include <algorithm>
#include <cmath>

#include "util/rng.h"
#include "util/spec_grammar.h"

namespace cellsweep::core {
namespace {

[[noreturn]] void fail(const std::string& entry, const std::string& why) {
  throw ArrivalSpecError("arrival spec entry '" + entry + "': " + why);
}

/// Reports a bad field of @p entry (the util::parse_field messages).
auto bad_field(const std::string& entry) {
  return [&entry](const std::string& why) { fail(entry, why); };
}

/// Domain salt so an ArrivalPlan and a FaultPlan sharing a seed still
/// draw independent streams.
constexpr std::uint64_t kArrivalDomain = 0xa1;

/// Cap on jobs per stream: big enough for any soak, small enough that
/// a typo'd count fails parsing instead of hanging the harness.
constexpr std::int64_t kMaxStreamJobs = 1 << 20;

}  // namespace

ArrivalSpec parse_arrival_spec(const std::string& text) {
  ArrivalSpec spec;
  for (const std::string& entry : util::split_fields(text, ',')) {
    if (entry.empty()) continue;  // tolerate "a,,b" and trailing commas
    const auto bad = bad_field(entry);
    const std::size_t eq = entry.find('=');
    if (eq == std::string::npos)
      fail(entry, "expected key=value (keys: seed, tenant)");
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "seed") {
      spec.seed = util::parse_field<std::uint64_t>(value, bad);
    } else if (key == "tenant") {
      const auto parts = util::split_fields(value, ':');
      if (parts.size() < 2)
        fail(entry,
             "expected tenant=<index>:rate:<jobs_per_s>:<count>[:<start_s>] | "
             "tenant=<index>:burst:<count>[:<at_s>] | "
             "tenant=<index>:trace:<t0>;<t1>;...");
      TenantArrivals t;
      t.tenant = static_cast<int>(
          util::parse_field<std::int64_t>(parts[0], 0, 4095, bad));
      if (parts[1] == "rate") {
        if (parts.size() < 4 || parts.size() > 5)
          fail(entry, "expected tenant=<index>:rate:<jobs_per_s>:<count>"
                      "[:<start_s>]");
        t.kind = ArrivalKind::kRate;
        t.rate_per_s = util::parse_field<double>(parts[2], 1e-9, 1e9, bad);
        t.count = static_cast<std::uint64_t>(
            util::parse_field<std::int64_t>(parts[3], 1, kMaxStreamJobs, bad));
        if (parts.size() == 5)
          t.start_s = util::parse_field<double>(parts[4], 0.0, 1e9, bad);
      } else if (parts[1] == "burst") {
        if (parts.size() < 3 || parts.size() > 4)
          fail(entry, "expected tenant=<index>:burst:<count>[:<at_s>]");
        t.kind = ArrivalKind::kBurst;
        t.count = static_cast<std::uint64_t>(
            util::parse_field<std::int64_t>(parts[2], 1, kMaxStreamJobs, bad));
        if (parts.size() == 4)
          t.start_s = util::parse_field<double>(parts[3], 0.0, 1e9, bad);
      } else if (parts[1] == "trace") {
        if (parts.size() != 3 || parts[2].empty())
          fail(entry, "expected tenant=<index>:trace:<t0>;<t1>;...");
        t.kind = ArrivalKind::kTrace;
        for (const std::string& ts : util::split_fields(parts[2], ';'))
          t.times.push_back(util::parse_field<double>(ts, 0.0, 1e9, bad));
        t.count = t.times.size();
      } else {
        fail(entry, "unknown arrival kind '" + parts[1] +
                    "' (rate | burst | trace)");
      }
      spec.tenants.push_back(t);
    } else {
      fail(entry, "unknown key '" + key + "'");
    }
  }
  return spec;
}

ArrivalPlan::ArrivalPlan(const ArrivalSpec& spec) : spec_(spec) {
  for (const TenantArrivals& t : spec_.tenants) {
    if (t.tenant < 0)
      throw ArrivalSpecError("TenantArrivals: negative tenant index");
    for (const TenantArrivals& other : spec_.tenants)
      if (&other != &t && other.tenant == t.tenant)
        throw ArrivalSpecError("TenantArrivals: duplicate entry for tenant " +
                               std::to_string(t.tenant));
    switch (t.kind) {
      case ArrivalKind::kRate:
        if (!(t.rate_per_s > 0.0) || !std::isfinite(t.rate_per_s))
          throw ArrivalSpecError("TenantArrivals: rate must be > 0");
        [[fallthrough]];
      case ArrivalKind::kBurst:
        if (t.count == 0)
          throw ArrivalSpecError("TenantArrivals: count must be >= 1");
        if (!(t.start_s >= 0.0) || !std::isfinite(t.start_s))
          throw ArrivalSpecError("TenantArrivals: start_s must be >= 0");
        break;
      case ArrivalKind::kTrace: {
        if (t.times.empty())
          throw ArrivalSpecError("TenantArrivals: trace needs >= 1 time");
        if (t.count != t.times.size())
          throw ArrivalSpecError("TenantArrivals: trace count mismatch");
        double prev = 0.0;
        for (double at : t.times) {
          if (!std::isfinite(at) || at < prev)
            throw ArrivalSpecError(
                "TenantArrivals: trace times must be finite, nonnegative "
                "and nondecreasing");
          prev = at;
        }
        break;
      }
      default:
        throw ArrivalSpecError("TenantArrivals: unknown kind");
    }
  }
  enabled_ = spec_.any();
}

const TenantArrivals* ArrivalPlan::stream(int tenant) const {
  for (const TenantArrivals& t : spec_.tenants)
    if (t.tenant == tenant) return &t;
  return nullptr;
}

std::uint64_t ArrivalPlan::count(int tenant) const {
  const TenantArrivals* t = stream(tenant);
  return t ? t->count : 0;
}

std::uint64_t ArrivalPlan::total() const {
  std::uint64_t n = 0;
  for (const TenantArrivals& t : spec_.tenants) n += t.count;
  return n;
}

double ArrivalPlan::gap_s(const TenantArrivals& t, std::uint64_t seq) const {
  // Hash-chain (seed, domain, tenant, seq) into one key, then let
  // SplitMix64 produce the uniform draw -- pure in all arguments, so
  // query order, host thread count and `--tenants` never change the
  // schedule.
  using util::splitmix64_mix;
  std::uint64_t z = spec_.seed;
  z = splitmix64_mix(z + 0x9e3779b97f4a7c15ULL * kArrivalDomain);
  z = splitmix64_mix(z + 0x9e3779b97f4a7c15ULL *
                             (static_cast<std::uint64_t>(t.tenant) + 1));
  z = splitmix64_mix(z + seq);
  util::SplitMix64 g(z);
  const double u = g.next_double();  // [0, 1)
  // Inverse-CDF exponential: -ln(1 - u) / rate. log1p keeps precision
  // for small u, and u < 1 keeps the gap finite.
  return -std::log1p(-u) / t.rate_per_s;
}

double ArrivalPlan::arrival_s(int tenant, std::uint64_t seq) const {
  const TenantArrivals* t = stream(tenant);
  if (t == nullptr || seq >= t->count)
    throw std::out_of_range("ArrivalPlan::arrival_s: no such arrival");
  switch (t->kind) {
    case ArrivalKind::kBurst:
      return t->start_s;
    case ArrivalKind::kTrace:
      return t->times[static_cast<std::size_t>(seq)];
    case ArrivalKind::kRate:
    default: {
      // Fixed-order prefix sum of pure-hash gaps: identical no matter
      // which seq is asked first.
      double at = t->start_s;
      for (std::uint64_t k = 0; k <= seq; ++k) at += gap_s(*t, k);
      return at;
    }
  }
}

std::vector<Arrival> ArrivalPlan::schedule() const {
  std::vector<Arrival> out;
  out.reserve(static_cast<std::size_t>(total()));
  for (const TenantArrivals& t : spec_.tenants) {
    double at = t.start_s;
    for (std::uint64_t k = 0; k < t.count; ++k) {
      switch (t.kind) {
        case ArrivalKind::kRate:
          at += gap_s(t, k);
          break;
        case ArrivalKind::kTrace:
          at = t.times[static_cast<std::size_t>(k)];
          break;
        case ArrivalKind::kBurst:
        default:
          break;  // all at start_s
      }
      out.push_back(Arrival{at, t.tenant, k});
    }
  }
  // Canonical submission order: time, then tenant, then sequence. The
  // (tenant, seq) tie-break makes simultaneous arrivals (bursts,
  // shared trace points) deterministic too.
  std::sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    if (a.at_s != b.at_s) return a.at_s < b.at_s;
    if (a.tenant != b.tenant) return a.tenant < b.tenant;
    return a.seq < b.seq;
  });
  return out;
}

}  // namespace cellsweep::core
