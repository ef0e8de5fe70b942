// serve-mixed: seeded sweep + stencil traffic through an in-process
// SolveServer (2 tenant workers sharing one host pool and one simulated
// chip), in two phases:
//
//   * burst: a closed backlog submitted back to back and drained; its
//     completions per host second are jobs_per_s;
//   * rate: an open loop -- one ArrivalDriver thread submits one job
//     every 1/kRatePerS seconds, whatever the server's speed -- whose
//     per-job latency runs from the moment the job was due under the
//     schedule to the moment its result was published. Constant spacing
//     (not Poisson gaps) keeps the queueing a property of the server,
//     not of the seed's arrival draw.
//
// The server only ever sees the generated deck / spec text. Afterwards
// every distinct input is solved solo (CellSweep3D / CellStencil on one
// host thread) and each served result must match its solo run.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/lint.h"
#include "server/arrival_driver.h"
#include "server/solve_server.h"
#include "solo.h"
#include "workloads.h"

namespace perfbench {
namespace {

/// Offered load of the rate phase, jobs per host second: about a fifth
/// of the burst-phase throughput of the reference build (seed 1). Fixed
/// here and in BENCHMARK.json, never derived from the build under test.
constexpr double kRatePerS = 12.0;
constexpr int kTenants = 2;
/// Width 1: sweeps then run their chunks on the tenant thread and the
/// stencil's half-sweeps run inline on the shared pool. At width 2 every
/// served sweep handed each diagonal to the pool's helper thread through
/// its fork lock, and host scheduling jitter moved jobs_per_s and p90
/// latency by 25-39% between runs.
constexpr int kPoolWidth = 1;
constexpr int kServerSetups = 41;
/// Jobs per measured second in the burst phase, the closed backlogs
/// they are split into, and the fraction of the run the rate phase's
/// schedule spans. Each backlog is the same traffic mix, so a slower
/// one measured the host: over ten runs, throughput over one ~10 s
/// backlog spread 29% (IQR/median) on a busy shared host.
constexpr double kBurstJobsPerSecond = 16.0;
constexpr int kBursts = 4;
constexpr double kRateShare = 0.75;
/// p90 needs at least ten samples beyond it.
constexpr int kMinRateJobs = 110;

/// splitmix64: the generator's only source of randomness, so the same
/// seed yields the same job texts on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  int below(int n) { return static_cast<int>(next() % static_cast<std::uint64_t>(n)); }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t s_;
};

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4f", v);
  return buf;
}

// Input classes. Sizes, orders, blocking, boundaries and iteration
// counts are fixed per class so every seed offers the same work mix; the
// seed picks the materials, regions, spacing and order of arrival.
struct SweepClass {
  int n, mk, sn, iterations;
  const char* reflective;  ///< face with a reflective boundary, or null
};
struct StencilClass {
  int n, block, iterations;
};
constexpr SweepClass kSweepClasses[] = {{12, 6, 6, 2, nullptr},
                                        {16, 8, 4, 2, "bottom"},
                                        {20, 10, 4, 2, nullptr}};
constexpr StencilClass kStencilClasses[] = {{32, 8, 4}, {40, 8, 3}, {48, 16, 2}};

std::string sweep_deck(Rng& r, const SweepClass& c) {
  const int n = c.n;
  const double dx = r.uniform(0.02, 0.06);
  std::ostringstream d;
  d << "# serve-mixed sweep deck\n"
    << "it " << n << "  jt " << n << "  kt " << n << "\n"
    << "dx " << num(dx) << "  dy " << num(dx) << "  dz " << num(dx) << "\n"
    << "mk " << c.mk << "  mmi 3\n"
    << "sn " << c.sn << "  moments 6\n"
    << "iterations " << c.iterations << "  fixup_from " << c.iterations - 1
    << "\n";
  const int materials = 1 + r.below(3);
  for (int m = 0; m < materials; ++m) {
    const double sigt = r.uniform(0.5, 2.0);
    const double s0 = sigt * r.uniform(0.2, 0.8);
    d << "material m" << m << " " << num(sigt) << " " << num(s0) << " "
      << num(s0 * r.uniform(0.0, 0.4)) << " " << num(s0 * r.uniform(0.0, 0.1))
      << " source " << num(m == 0 ? r.uniform(0.5, 2.0) : r.uniform(0.0, 2.0))
      << "\n";
  }
  for (int m = 1; m < materials; ++m) {
    d << "region " << m;
    for (int axis = 0; axis < 3; ++axis) {
      const int lo = r.below(n / 2);
      d << " " << lo << " " << lo + 1 + r.below(n - lo);
    }
    d << "\n";
  }
  if (c.reflective) d << "bc " << c.reflective << " reflective\n";
  return d.str();
}

std::string stencil_spec(Rng& r, const StencilClass& c) {
  std::ostringstream d;
  d << "# serve-mixed stencil spec\n"
    << "nx " << c.n << "  ny " << c.n << "  nz " << c.n << "\n"
    << "bx " << c.block << "  by " << c.block << "  bz " << c.block << "\n"
    << "iterations " << c.iterations << "\n"
    << "h " << num(r.uniform(0.5, 2.0) / c.n) << "  source "
    << num(r.uniform(0.5, 2.0)) << "\n";
  return d.str();
}

struct GenJob {
  core::JobKind kind;
  std::string text;
};

/// @p count jobs in rounds of seven: one fresh deck of each sweep class
/// plus one more of a rotating class, one repeat of an earlier deck (a
/// plan-cache hit), and fresh specs of two of the three stencil classes,
/// in turn -- shuffled within the round by the seed.
///
/// Stencils and plan-cache hits are the fast jobs (~3 ms and ~25 ms
/// against ~37 ms for a fresh 12^3 or 16^3 deck). With all three
/// stencil classes in a round of eight they made up exactly half the
/// jobs, so latency_p50_s sat on the step between the two groups and
/// jumped between ~26 and ~35 ms from run to run. At 3 in 7, the median
/// lies inside the fresh sweeps, and p90 inside the 20^3 decks.
std::vector<GenJob> generate(std::uint64_t seed, int count) {
  Rng r(seed);
  std::vector<GenJob> out;
  std::vector<std::vector<std::string>> decks(std::size(kSweepClasses));
  for (std::size_t rounds = 0; static_cast<int>(out.size()) < count;
       ++rounds) {
    std::vector<GenJob> round;
    for (std::size_t c = 0; c < std::size(kSweepClasses); ++c) {
      decks[c].push_back(sweep_deck(r, kSweepClasses[c]));
      round.push_back({core::JobKind::kSweep, decks[c].back()});
    }
    const std::size_t extra = rounds % std::size(kSweepClasses);
    decks[extra].push_back(sweep_deck(r, kSweepClasses[extra]));
    round.push_back({core::JobKind::kSweep, decks[extra].back()});
    const std::size_t rep = (rounds + 1) % std::size(kSweepClasses);
    round.push_back({core::JobKind::kSweep,
                     decks[rep][static_cast<std::size_t>(
                         r.below(static_cast<int>(decks[rep].size())))]});
    for (std::size_t s = 0; s < 2; ++s)
      round.push_back({core::JobKind::kStencil,
                       stencil_spec(r, kStencilClasses[(rounds + s) %
                                                       std::size(kStencilClasses)])});
    for (std::size_t i = round.size(); i > 1; --i)
      std::swap(round[i - 1], round[static_cast<std::size_t>(r.below(static_cast<int>(i)))]);
    for (GenJob& j : round)
      if (static_cast<int>(out.size()) < count) out.push_back(std::move(j));
  }
  return out;
}

/// A distinct input's solo run: the reference its served copies must
/// match, and (traced runs) its per-layer span totals.
struct Reference {
  core::JobKind kind = core::JobKind::kSweep;
  std::string text;
  int served = 0;  ///< served jobs with this input
  core::RunReport report;
  double checksum = 0, residual = 0;
  double host_s = 0;
  std::uint64_t diagonals = 0;
  std::size_t metrics_bytes = 0;  ///< solo metrics JSON (sweeps only)
  LayerMap layers;
  std::string error;
};

void solve_reference(Reference& ref, bool trace) {
  Tracer off(false);
  Tracer tr(trace);
  try {
    const auto t0 = Clock::now();
    if (ref.kind == core::JobKind::kSweep) {
      const Prepared p =
          prepare_sweep(ref.text, core::OptimizationStage::kSpeLsPoke, off);
      auto s = tr.span("solve");
      Solved solved = solve_sweep(p, core::RunMode::kFunctional, tr);
      ref.report = std::move(solved.report);
      ref.diagonals = solved.diagonals;
      ref.metrics_bytes = solved.metrics_json.size();
    } else {
      const stencil::StencilSpec spec = stencil::parse_spec_string(ref.text);
      const core::CellSweepConfig cfg =
          core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
      auto s = tr.span("solve");
      StencilSolved solved = solve_stencil(spec, cfg, tr);
      ref.report = std::move(solved.report);
      ref.checksum = solved.checksum;
      ref.residual = solved.residual;
    }
    ref.host_s = seconds_since(t0);
  } catch (const std::exception& e) {
    ref.error = e.what();
  }
  ref.layers = tr.by_name();
}

/// Solves every reference on up to nproc threads (the measured phases
/// are over by now, so this costs wall time only).
void solve_references(std::vector<Reference>& refs, bool trace) {
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t)
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < refs.size();)
        solve_reference(refs[i], trace);
    });
  for (std::thread& t : pool) t.join();
}

/// Why served result @p r differs from its solo reference ("" = same).
/// Compared: every RunReport field the SPE share cannot change (the
/// physics and the work counts); simulated times depend on how many
/// SPEs the allocator granted, which tenancy decides.
std::string compare(const core::JobResult& r, const Reference& ref) {
  if (!ref.error.empty()) return "solo run failed: " + ref.error;
  const core::RunReport& a = r.report;
  const core::RunReport& b = ref.report;
  if (a.flops != b.flops) return "flops differ";
  if (a.cell_solves != b.cell_solves) return "cell_solves differ";
  if (a.chunks != b.chunks) return "chunks differ";
  if (a.traffic_bytes != b.traffic_bytes) return "traffic_bytes differ";
  if (r.kind == core::JobKind::kStencil) {
    if (r.checksum != ref.checksum) return "stencil checksum differs";
    if (r.residual != ref.residual) return "stencil residual differs";
    return {};
  }
  if (a.solve.has_value() != b.solve.has_value()) return "solve result missing";
  if (a.solve) {
    if (a.solve->iterations != b.solve->iterations) return "iterations differ";
    if (a.solve->final_change != b.solve->final_change)
      return "final change differs";
    if (a.solve->totals.cells != b.solve->totals.cells ||
        a.solve->totals.fixup_cells != b.solve->totals.fixup_cells)
      return "sweep totals differ";
  }
  if (a.absorption != b.absorption) return "absorption differs";
  if (a.leakage.west != b.leakage.west || a.leakage.east != b.leakage.east ||
      a.leakage.north != b.leakage.north || a.leakage.south != b.leakage.south ||
      a.leakage.bottom != b.leakage.bottom || a.leakage.top != b.leakage.top)
    return "leakage differs";
  return {};
}

core::JobRequest request(const GenJob& j, const std::string& name) {
  core::JobRequest req;
  req.kind = j.kind;
  req.name = name;
  req.text = j.text;
  req.mode = core::RunMode::kFunctional;
  return req;
}

std::vector<double> pick(const std::vector<core::JobResult>& rs,
                         double (*f)(const core::JobTrace&)) {
  std::vector<double> v;
  for (const core::JobResult& r : rs)
    if (r.ok) v.push_back(f(r.trace));
  return v;
}

}  // namespace

Result run_serve(const Options& o) {
  Result res;
  res.threads = {{"tenants", kTenants},
                 {"host_pool_width", kPoolWidth},
                 {"arrival_driver", 1}};
  const int burst_n =
      std::max(16, static_cast<int>(kBurstJobsPerSecond * o.seconds + 0.5));
  const int rate_n = std::max(
      kMinRateJobs, static_cast<int>(kRatePerS * kRateShare * o.seconds + 0.5));
  const std::vector<GenJob> jobs = generate(o.seed, burst_n + rate_n);

  core::ServerConfig cfg;
  cfg.tenants = kTenants;
  cfg.host_threads = kPoolWidth;
  cfg.stage = core::OptimizationStage::kSpeLsPoke;
  cfg.queue_limit = static_cast<std::size_t>(burst_n + rate_n);

  // The server's threads (tenants + arrival driver) run on that many of
  // the fastest CPUs, ranked as for the solo workloads: with every CPU
  // allowed, each job ran at the speed of whichever CPU its tenant woke
  // on, and a CPU 1.6x slower than the rest split every job class in
  // two. The solo references afterwards get every CPU back.
  std::optional<CpuRotation> cpus(std::in_place);
  res.note("cpu_spread", rank_cpus(*cpus, o.root), "ratio");
  cpus->keep_first(kTenants + 1);

  // Setup: server construction (tenant workers, host pool, allocator,
  // plan cache), repeated for a median; the last server is kept.
  std::vector<double> setup_s;
  std::unique_ptr<core::SolveServer> server;
  for (int i = 0; i < kServerSetups; ++i) {
    server.reset();
    const auto t0 = Clock::now();
    server = std::make_unique<core::SolveServer>(cfg);
    setup_s.push_back(seconds_since(t0));
  }

  Tracer tr(o.trace);
  std::map<std::string, std::size_t> job_of;  // request name -> jobs index
  std::uint64_t rejected = 0;

  // Burst phase: kBursts closed backlogs, each submitted back to back
  // and drained; the fastest gives jobs_per_s.
  std::vector<double> burst_rates;
  double burst_s = 0;
  for (int b = 0; b < kBursts; ++b) {
    const int begin = burst_n * b / kBursts, end = burst_n * (b + 1) / kBursts;
    const auto burst_t0 = Clock::now();
    for (int k = begin; k < end; ++k) {
      const std::string name = "b" + std::to_string(k);
      job_of[name] = static_cast<std::size_t>(k);
      try {
        auto s = tr.span("server.submit");
        server->submit(request(jobs[static_cast<std::size_t>(k)], name));
      } catch (const core::AdmissionError& e) {
        ++rejected;
        res.op(false, name + " rejected: " + e.what());
      }
    }
    {
      auto s = tr.span("server.drain");
      server->drain();
    }
    const double dt = seconds_since(burst_t0);
    burst_s += dt;
    burst_rates.push_back(static_cast<double>(end - begin) / dt);
  }

  // Rate phase: open loop at a constant rate.
  core::ArrivalSpec arrivals;
  arrivals.seed = o.seed;
  core::TenantArrivals& stream = arrivals.tenants.emplace_back();
  stream.tenant = 0;
  stream.kind = core::ArrivalKind::kTrace;
  stream.count = static_cast<std::uint64_t>(rate_n);
  for (int k = 0; k < rate_n; ++k)
    stream.times.push_back(static_cast<double>(k) / kRatePerS);
  const core::ArrivalPlan plan(arrivals);
  const std::vector<core::Arrival> schedule = plan.schedule();
  for (std::size_t k = 0; k < schedule.size(); ++k)
    job_of["r" + std::to_string(k)] = static_cast<std::size_t>(burst_n) + k;
  core::ArrivalDriver driver(
      *server, plan,
      [&jobs, burst_n](const core::Arrival&, std::uint64_t k) {
        return request(jobs[static_cast<std::size_t>(burst_n) + k],
                       "r" + std::to_string(k));
      },
      1.0);
  const double origin = server->clock().now_s();
  driver.start();
  driver.join();
  std::vector<core::JobResult> results;
  {
    auto s = tr.span("server.drain");
    results = server->drain();
  }
  const double peak = peak_rss_mb();
  const core::ArrivalDriver::Stats dstats = driver.stats();
  rejected += dstats.rejected;
  for (std::uint64_t i = 0; i < dstats.rejected; ++i)
    res.op(false, "rate-phase submission rejected at admission");

  // Correctness: each served job against the solo run of its input.
  std::vector<Reference> refs;
  std::map<std::string, std::size_t> ref_of;  // text -> refs index
  for (const GenJob& j : jobs) {
    const auto [it, fresh] = ref_of.emplace(j.text, refs.size());
    if (fresh) {
      refs.emplace_back();
      refs.back().kind = j.kind;
      refs.back().text = j.text;
    }
    ++refs[it->second].served;
  }
  cpus.reset();
  solve_references(refs, o.trace);

  std::vector<double> latency, service, sweep_service;
  std::vector<core::JobResult> rate_results;
  std::uint64_t burst_done = 0;
  for (const core::JobResult& r : results) {
    const auto idx = job_of.find(r.name);
    if (idx == job_of.end()) {
      res.op(false, "unknown result " + r.name);
      continue;
    }
    const Reference& ref = refs[ref_of.at(jobs[idx->second].text)];
    std::string why = r.cancelled ? "cancelled: " + r.error
                      : !r.ok     ? "failed: " + r.error
                                  : compare(r, ref);
    res.op(why.empty(), r.name + ": " + why);
    if (!r.ok) continue;
    service.push_back(r.trace.service_s());
    if (r.kind == core::JobKind::kSweep)
      sweep_service.push_back(r.trace.service_s());
    if (r.name[0] == 'b') {
      ++burst_done;
    } else {
      const double due =
          origin + schedule[idx->second - static_cast<std::size_t>(burst_n)].at_s;
      latency.push_back(r.trace.report_s - due);
      rate_results.push_back(r);
    }
  }

  res.note("samples.setup", static_cast<double>(setup_s.size()), "count");
  res.note("samples.burst_jobs", static_cast<double>(burst_n), "count");
  res.note("samples.rate_jobs", static_cast<double>(latency.size()), "count");
  res.note("samples.distinct_inputs", static_cast<double>(refs.size()),
           "count");
  res.note("rate_phase.offered_jobs_per_s", kRatePerS, "1/s");
  res.note("rate_phase.schedule_s", schedule.empty() ? 0 : schedule.back().at_s,
           "s");
  res.note("burst_phase.s", burst_s, "s");
  res.note("burst_phase.jobs_per_s", static_cast<double>(burst_done) / burst_s,
           "1/s");
  res.note("rejected", static_cast<double>(rejected), "count");
  if (!o.trace) {
    res.metric("setup_s", median(setup_s), "s");
    res.metric("solve_s", median(sweep_service), "s");
    res.metric("jobs_per_s",
               *std::max_element(burst_rates.begin(), burst_rates.end()), "1/s");
    res.metric("latency_p50_s", quantile(latency, 0.5), "s");
    res.metric("latency_p90_s", quantile(latency, 0.9), "s");
    res.metric("peak_rss_mb", peak, "MB");
    return res;
  }

  // Per-layer, traced run. Server layers come from the JobTrace stamps
  // every result carries and the stats accessors; the solo layers
  // (parse, lint, physics, timing, emission) from replaying the served
  // inputs: admission's parse + lint per job, and the traced solo
  // references weighted by how often each input was served.
  PerLayer l;
  const double n_jobs = static_cast<double>(jobs.size());
  {
    Tracer adm(true);
    for (const GenJob& j : jobs) {
      const core::CellSweepConfig base =
          core::CellSweepConfig::from_stage(cfg.stage);
      if (j.kind == core::JobKind::kSweep) {
        std::optional<sweep::Deck> deck;
        {
          auto s = adm.span("sweep.deck.parse");
          deck.emplace(sweep::parse_deck_string(j.text));
        }
        core::CellSweepConfig c = base;
        c.sweep = deck->sweep;
        auto s = adm.span("analysis.lint");
        cellsweep::analysis::lint_deck(*deck, c);
      } else {
        std::optional<stencil::StencilSpec> parsed;
        {
          auto s = adm.span("sweep.deck.parse");
          parsed.emplace(stencil::parse_spec_string(j.text));
        }
        auto s = adm.span("analysis.lint");
        cellsweep::analysis::lint_stencil(*parsed, base);
      }
    }
    const LayerMap m = adm.by_name();
    l.parse_s = m.at("sweep.deck.parse").total_s / n_jobs;
    l.lint_s = m.at("analysis.lint").total_s / n_jobs;
  }

  LayerMap solo;
  double sweep_cells = 0, sweep_physics = 0, sim_s = 0, host_s = 0;
  for (const Reference& ref : refs) {
    const double w = ref.served;
    for (const auto& [name, layer] : ref.layers) {
      Tracer::Layer& into = solo[name];
      into.count += layer.count * static_cast<std::uint64_t>(ref.served);
      into.total_s += layer.total_s * w;
      into.self_s += layer.self_s * w;
    }
    l.timing_diagonals += static_cast<double>(ref.diagonals) * w / n_jobs;
    l.timing_chunks += static_cast<double>(ref.report.chunks) * w / n_jobs;
    l.timing_dma_commands +=
        static_cast<double>(ref.report.dma_commands) * w / n_jobs;
    l.report_bytes += static_cast<double>(ref.metrics_bytes) * w / n_jobs;
    sim_s += ref.report.seconds * w;
    host_s += ref.host_s * w;
    if (ref.kind == core::JobKind::kSweep) {
      sweep_cells += static_cast<double>(ref.report.cell_solves) * w;
      const auto it = ref.layers.find("sweep.physics");
      if (it != ref.layers.end()) sweep_physics += it->second.self_s * w;
    }
  }
  std::vector<Row> solo_rows;
  solve_layers(solo, n_jobs, l, solo_rows);
  res.attribution["solo_replay_s"] = solo_rows;
  l.physics_cell_solves = sweep_cells / n_jobs;
  l.physics_grind_ns = sweep_physics * 1e9 / sweep_cells;
  l.timing_ns_per_chunk = l.timing_self_s * 1e9 / l.timing_chunks;
  l.timing_sim_rate = sim_s / host_s;

  std::vector<double> plan_miss, plan_all;
  std::vector<double> svc_sweep, svc_stencil;
  double claim_total = 0, service_total = 0;
  int sweep_misses = 0;
  for (const core::JobResult& r : results) {
    if (!r.ok) continue;
    const double plan_s = r.trace.plan_end_s - r.trace.plan_start_s;
    plan_all.push_back(plan_s);
    if (r.kind == core::JobKind::kSweep) {
      svc_sweep.push_back(r.trace.service_s());
      if (!r.plan_cache_hit) {
        plan_miss.push_back(plan_s);
        ++sweep_misses;
      }
    } else {
      svc_stencil.push_back(r.trace.service_s());
    }
    claim_total += r.trace.claim_wait_s;
    service_total += r.trace.service_s();
  }
  l.plan_build_s = median(plan_miss);
  l.plan_shapes = 2.0 * sweep::kBundleLines * sweep_misses;
  l.submit_p50_s = median(pick(results, [](const core::JobTrace& t) {
    return t.enqueue_s - t.admit_start_s;
  }));
  const auto queue_wait = pick(rate_results, [](const core::JobTrace& t) {
    return t.queue_wait_s();
  });
  l.queue_wait_p50_s = quantile(queue_wait, 0.5);
  l.queue_wait_p90_s = quantile(queue_wait, 0.9);
  l.plan_p50_s = median(plan_all);
  const core::PlanCache::Stats cache = server->plan_cache_stats();
  l.plan_cache_hit_ratio = static_cast<double>(cache.hits) /
                           static_cast<double>(cache.hits + cache.misses);
  l.claim_wait_p50_s = median(pick(results, [](const core::JobTrace& t) {
    return t.claim_wait_s;
  }));
  const core::SpeAllocator::Stats alloc = server->allocator_stats();
  l.allocator_waited_claims = static_cast<double>(alloc.waited_claims);
  l.allocator_shrinks = static_cast<double>(alloc.shrinks);
  l.service_p50_sweep_s = median(svc_sweep);
  l.service_p50_stencil_s = median(svc_stencil);
  const cellsweep::util::ThreadPool::Telemetry pool = server->pool_telemetry();
  l.pool_forks = static_cast<double>(pool.forks);
  l.pool_items_per_fork =
      static_cast<double>(pool.items) / static_cast<double>(pool.forks);
  l.pool_utilization = server->pool_utilization();
  l.pool_peak_fork_queue = pool.peak_fork_queue;
  l.driver_late_s = dstats.max_behind_s;

  // Service time (run start -> run end inside a tenant worker) by
  // layer: the solver layers as the solo replay of the same inputs
  // measured them (the server runs the same calls but emits no metrics
  // JSON), the SPE-claim wait as the server measured it, and what is
  // left -- tenancy's cost over a solo run -- as unattributed.
  const double n_ok = static_cast<double>(service.size());
  std::vector<Row>& service_rows = res.attribution["service_s"];
  double attributed = 0;
  for (const Row& row : solo_rows) {
    if (row.layer == "unattributed" || row.layer == "core.report.emit")
      continue;
    service_rows.push_back(row);
    attributed += row.seconds;
  }
  service_rows.push_back({"server.claim_wait", claim_total / n_ok});
  attributed += claim_total / n_ok;
  l.unattributed_s = service_total / n_ok - attributed;
  service_rows.push_back({"unattributed", l.unattributed_s});

  // Rate-phase latency (due -> published) by lifecycle phase.
  double late = 0, admit = 0, queue = 0, plan_s = 0, run = 0, publish = 0,
         total = 0;
  for (const core::JobResult& r : rate_results) {
    const core::JobTrace& t = r.trace;
    const double due =
        origin + schedule[job_of.at(r.name) - static_cast<std::size_t>(burst_n)].at_s;
    late += t.admit_start_s - due;
    admit += t.enqueue_s - t.admit_start_s;
    queue += t.dequeue_s - t.enqueue_s;
    plan_s += t.plan_end_s - t.plan_start_s;
    run += t.run_end_s - t.run_start_s;
    publish += t.report_s - t.run_end_s;
    total += t.report_s - due;
  }
  const double nr = static_cast<double>(rate_results.size());
  res.attribution["latency_s"] = {
      {"server.driver.late", late / nr},
      {"server.submit", admit / nr},
      {"server.queue_wait", queue / nr},
      {"server.plan", plan_s / nr},
      {"server.service", run / nr},
      {"server.publish", publish / nr},
      {"unattributed",
       (total - late - admit - queue - plan_s - run - publish) / nr}};

  // The timed phases run the same code traced or not: the only spans
  // there wrap the client's submit/drain calls.
  l.trace_overhead_s = 0;
  l.error_rate = static_cast<double>(res.failed) /
                 static_cast<double>(res.attempted);
  add_per_layer(res, l);
  res.spans = tr.by_path();
  return res;
}

}  // namespace perfbench
