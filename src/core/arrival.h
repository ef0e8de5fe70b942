// Seeded open-system arrival schedules for the solve server.
//
// The throughput bench and the serve loop both drained a closed,
// pre-loaded backlog, which says nothing about latency under sustained
// load (the paper's section 7 migration argument needs the machine
// driven *at utilization*). ArrivalPlan is the single source of truth
// for when jobs arrive: an ArrivalSpec (parsed from the
// `--arrivals=<spec>` CLI grammar or built directly) describes each
// tenant's arrival process, and the plan answers "when does tenant t's
// k-th job arrive?" deterministically from util::SplitMix64.
//
// Determinism contract (same shape as sim::FaultPlan): every arrival
// time is a pure hash of (seed, tenant, sequence) -- no shared stream,
// no global state -- so the schedule is identical across runs, across
// host thread counts, and across `--tenants` settings. Same seed =>
// byte-identical schedules and JobTrace event order; different seeds
// => different schedules. Tests pin both.
//
// A default-constructed (or tenant-less) plan is *disabled*: consumers
// gate the open-system path on enabled(), so a server without arrivals
// behaves exactly as the closed-backlog code did.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace cellsweep::core {

/// Thrown for malformed `--arrivals=<spec>` strings.
class ArrivalSpecError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// How one tenant's stream generates arrival times.
enum class ArrivalKind : std::uint8_t {
  kRate = 1,   ///< Poisson process: seeded exponential inter-arrival gaps
  kBurst = 2,  ///< all jobs arrive at one instant (closed burst)
  kTrace = 3,  ///< explicit, caller-supplied arrival offsets
};

/// One tenant's arrival stream.
struct TenantArrivals {
  int tenant = -1;
  ArrivalKind kind = ArrivalKind::kRate;
  /// kRate: mean arrival rate in jobs per second (> 0).
  double rate_per_s = 0.0;
  /// kRate / kBurst: number of jobs the stream submits.
  std::uint64_t count = 0;
  /// kRate / kBurst: stream origin in seconds (first gap starts here /
  /// the burst instant).
  double start_s = 0.0;
  /// kTrace: explicit nondecreasing arrival times in seconds.
  std::vector<double> times;
};

/// Everything the arrival process can be told to do.
struct ArrivalSpec {
  std::uint64_t seed = 1;
  std::vector<TenantArrivals> tenants;

  /// True when any stream produces jobs. Disabled specs keep consumers
  /// on the exact closed-backlog code paths.
  bool any() const noexcept { return !tenants.empty(); }
};

/// Parses the `--arrivals=<spec>` grammar: comma-separated `key=value`
/// entries:
///
///   seed=42                     gap-decision seed (default 1)
///   tenant=0:rate:8:24          tenant 0 submits 24 jobs, exponential
///                               inter-arrival gaps at mean 8 jobs/s
///   tenant=0:rate:8:24:0.5      ... with the stream starting at 0.5 s
///   tenant=1:burst:6            tenant 1 submits 6 jobs at t = 0
///   tenant=1:burst:6:0.25      ... at t = 0.25 s instead
///   tenant=2:trace:0.1;0.5;0.9  explicit arrival times (semicolon-
///                               separated, nondecreasing seconds)
///
/// Each tenant index may appear once. Throws ArrivalSpecError with the
/// offending entry on malformed input.
ArrivalSpec parse_arrival_spec(const std::string& text);

/// One scheduled arrival: tenant @p tenant's @p seq-th job (0-based
/// within its stream) arrives @p at_s seconds after the stream opens.
struct Arrival {
  double at_s = 0.0;
  int tenant = -1;
  std::uint64_t seq = 0;
};

/// The deterministic arrival schedule (see file comment).
class ArrivalPlan {
 public:
  /// Disabled plan: no streams, empty schedule.
  ArrivalPlan() = default;

  /// Validates @p spec (tenant indices unique and >= 0, rates > 0,
  /// trace times finite/nonnegative/nondecreasing); throws
  /// ArrivalSpecError on nonsense.
  explicit ArrivalPlan(const ArrivalSpec& spec);

  bool enabled() const noexcept { return enabled_; }
  const ArrivalSpec& spec() const noexcept { return spec_; }

  /// Jobs tenant @p tenant submits (0 for tenants without a stream).
  std::uint64_t count(int tenant) const;
  /// Total jobs across all streams.
  std::uint64_t total() const;

  /// Arrival time of tenant @p tenant's @p seq-th job, in seconds. A
  /// pure function of (seed, tenant, seq): O(seq) for rate streams (the
  /// gaps are prefix-summed on demand), O(1) otherwise. Throws
  /// std::out_of_range past the stream's count.
  double arrival_s(int tenant, std::uint64_t seq) const;

  /// The full schedule merged across tenants, sorted by
  /// (at_s, tenant, seq) -- the canonical submission order every
  /// consumer replays, which is what makes JobTrace event order
  /// reproducible across `--tenants`/`--threads`.
  std::vector<Arrival> schedule() const;

 private:
  /// Exponential inter-arrival gap ahead of (tenant, seq); pure.
  double gap_s(const TenantArrivals& t, std::uint64_t seq) const;
  const TenantArrivals* stream(int tenant) const;

  ArrivalSpec spec_;
  bool enabled_ = false;
};

}  // namespace cellsweep::core
