// Multi-tenant solve throughput: what does one simulated Cell chip
// sustain when several solves share it?
//
// PR 5 showed the paper-size sweep is dependency-chain-bound: past ~4
// SPEs the wavefront cannot keep the chip busy, so a solo tenant leaves
// most of it slack. core::SolveServer exploits that by running tenants
// concurrently under the worst-fit SpeAllocator. This bench prices the
// steady-state regimes of that sharing deterministically:
//
//   * each job's service time is measured by a solo run against a chip
//     where a blocker claim pins all but `width` SPEs -- exactly the
//     static partition a tenant converges to under allocator pressure
//     (fair_share = spes / tenants);
//   * a discrete-event queue model then replays a mixed sweep+stencil
//     job stream through 1 tenant (the whole chip, jobs back to back)
//     and 2 tenants (half the chip each, jobs picked FIFO), yielding
//     makespan, jobs/s and p50/p95/p99 completion latency in
//     *simulated* seconds -- aggregate and per tenant, through the same
//     util::Histogram the live SolveServer uses, so bench and server
//     quantize latency identically.
//
// Everything is a pure function of the deck, so the emitted
// BENCH_throughput.json is byte-stable and perf-gated in CI like the
// fig5 ladder. Host threading never enters the numbers.
//
// The closed backlog answers "how fast does a full queue drain" but
// says nothing about latency under sustained load, so a second,
// *open-system* model sweeps offered load: a seeded core::ArrivalPlan
// rate stream (the same generator `deck_runner serve --arrivals` and
// the soak test replay) feeds the 2-tenant fair-share partition at a
// ladder of utilizations, and each point reports completion-latency
// percentiles (sojourn time: arrival -> completion). The resulting
// latency-vs-load curve -- flat until the knee, then the queueing
// blow-up past saturation -- lands in BENCH_latency_load.json with the
// knee pinned as its own metric, perf-gated like everything else.
#include <algorithm>

#include "bench/bench_common.h"
#include "core/arrival.h"
#include "core/spe_allocator.h"
#include "util/histogram.h"
#include "workloads/stencil/stencil.h"

namespace {

using namespace cellsweep;

/// A config whose allocator leaves only @p width SPEs claimable. The
/// blocker claim must outlive the run; release it afterwards.
core::SpeAllocator::Claim block_down_to(core::SpeAllocator& alloc,
                                        int width) {
  const int total = alloc.num_spes();
  if (width >= total) return {};
  return alloc.claim(total - width, total - width);
}

/// Simulated seconds for one paper-deck sweep solve on @p width SPEs.
double sweep_service_s(int cube, int width) {
  const sweep::Problem problem = sweep::Problem::benchmark_cube(cube);
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(
      core::OptimizationStage::kSpeLsPoke);
  cfg.sweep.max_iterations = 12;
  cfg.sweep.fixup_from_iteration = 10;
  cfg.sweep.mk = sweep::largest_mk(cube, cfg.sweep.mk);
  core::SpeAllocator alloc(cfg.chip.num_spes);
  core::SpeAllocator::Claim blocker = block_down_to(alloc, width);
  cfg.spe_allocator = &alloc;
  core::CellSweep3D runner(problem, cfg);
  const double s = runner.run(core::RunMode::kTraceDriven).seconds;
  if (!blocker.empty()) alloc.release(blocker);
  return s;
}

/// Simulated seconds for one stencil solve on @p width SPEs.
double stencil_service_s(int cube, int width) {
  stencil::StencilSpec spec;
  spec.nx = spec.ny = spec.nz = cube;
  int b = 2;
  for (int d = 2; d <= 8; ++d)
    if (cube % d == 0) b = d;
  spec.bx = spec.by = spec.bz = b;
  spec.origin = "<bench>";
  spec.validate();
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(
      core::OptimizationStage::kSpeLsPoke);
  core::SpeAllocator alloc(cfg.chip.num_spes);
  core::SpeAllocator::Claim blocker = block_down_to(alloc, width);
  cfg.spe_allocator = &alloc;
  stencil::CellStencil runner(spec, cfg);
  const double s = runner.run(core::RunMode::kTraceDriven).run.seconds;
  if (!blocker.empty()) alloc.release(blocker);
  return s;
}

struct QueueOutcome {
  double makespan_s = 0;
  std::vector<double> latency_s;  ///< per-job completion time
  std::vector<int> worker;        ///< tenant that served each job
};

/// FIFO queue through @p tenants equal workers: every job is present at
/// t=0, the earliest-free worker (lowest index on ties) takes the next.
QueueOutcome run_queue(int tenants, const std::vector<double>& service_s) {
  QueueOutcome out;
  std::vector<double> free_at(static_cast<std::size_t>(tenants), 0.0);
  out.latency_s.reserve(service_s.size());
  out.worker.reserve(service_s.size());
  for (const double s : service_s) {
    std::size_t w = 0;
    for (std::size_t i = 1; i < free_at.size(); ++i)
      if (free_at[i] < free_at[w]) w = i;
    free_at[w] += s;
    out.latency_s.push_back(free_at[w]);
    out.worker.push_back(static_cast<int>(w));
    out.makespan_s = std::max(out.makespan_s, free_at[w]);
  }
  return out;
}

/// Aggregate latency histogram (same binning as the live server's
/// per-tenant latency families, so percentiles quantize identically).
util::Histogram latency_hist(const QueueOutcome& q, int tenant = -1) {
  util::Histogram h;
  for (std::size_t i = 0; i < q.latency_s.size(); ++i)
    if (tenant < 0 || q.worker[i] == tenant) h.add(q.latency_s[i]);
  return h;
}

/// One point on the latency-vs-load curve.
struct LoadPoint {
  double offered_load = 0;   ///< offered rate / capacity (rho)
  double makespan_s = 0;     ///< first arrival -> last completion
  util::Histogram latency;   ///< sojourn times (arrival -> completion)
};

/// Open-system FIFO queue: jobs arrive per @p plan (one seeded rate
/// stream), alternate between @p svc_a and @p svc_b service times, and
/// the earliest-free of @p tenants workers takes each in arrival
/// order -- start = max(arrival, worker free), latency = completion -
/// arrival. Pure in all inputs, so the curve is byte-stable.
LoadPoint run_open_queue(const core::ArrivalPlan& plan, int tenants,
                         double svc_a, double svc_b) {
  LoadPoint out;
  std::vector<double> free_at(static_cast<std::size_t>(tenants), 0.0);
  std::uint64_t k = 0;
  for (const core::Arrival& a : plan.schedule()) {
    std::size_t w = 0;
    for (std::size_t i = 1; i < free_at.size(); ++i)
      if (free_at[i] < free_at[w]) w = i;
    const double start = std::max(free_at[w], a.at_s);
    const double done = start + (k % 2 == 0 ? svc_a : svc_b);
    free_at[w] = done;
    out.latency.add(done - a.at_s);
    out.makespan_s = std::max(out.makespan_s, done);
    ++k;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opt = bench::parse_bench_args(argc, argv);
  if (!opt.ok) return 2;
  const int cube = opt.cube_or(50);
  const int stencil_cube = std::min(cube, 32);
  constexpr int kSweepJobs = 4;
  constexpr int kStencilJobs = 4;
  constexpr int kTenants = 2;
  const int chip_spes = core::CellSweepConfig::from_stage(
                            core::OptimizationStage::kSpeLsPoke)
                            .chip.num_spes;
  const int share = std::max(1, chip_spes / kTenants);

  bench::print_header(
      "Multi-tenant throughput: " + std::to_string(kSweepJobs) + " sweep (" +
      std::to_string(cube) + "^3) + " + std::to_string(kStencilJobs) +
      " stencil (" + std::to_string(stencil_cube) + "^3) jobs");

  // Service times at full chip width and at the 2-tenant fair share.
  const double sweep_full = sweep_service_s(cube, chip_spes);
  const double sweep_half = sweep_service_s(cube, share);
  const double sten_full = stencil_service_s(stencil_cube, chip_spes);
  const double sten_half = stencil_service_s(stencil_cube, share);

  // The mixed stream: sweep and stencil jobs interleaved, all queued at
  // t=0 (closed system -- the server drains a backlog).
  std::vector<double> stream_full, stream_half;
  for (int i = 0; i < kSweepJobs + kStencilJobs; ++i) {
    const bool sweep_job = i % 2 == 0;  // kSweepJobs == kStencilJobs
    stream_full.push_back(sweep_job ? sweep_full : sten_full);
    stream_half.push_back(sweep_job ? sweep_half : sten_half);
  }
  const std::size_t jobs = stream_full.size();

  const QueueOutcome serial = run_queue(1, stream_full);
  const QueueOutcome shared = run_queue(kTenants, stream_half);

  struct Row {
    const char* name;
    const QueueOutcome* q;
  };
  const Row rows[] = {{"serial-1-tenant", &serial}, {"2-tenant", &shared}};

  util::TextTable table({"regime", "makespan [s]", "jobs/s", "p50 [s]",
                         "p95 [s]", "p99 [s]"});
  for (const Row& row : rows) {
    const util::Histogram h = latency_hist(*row.q);
    table.add_row({row.name, bench::fmt("%.4f", row.q->makespan_s),
                   bench::fmt("%.4f", static_cast<double>(jobs) /
                                          row.q->makespan_s),
                   bench::fmt("%.4f", h.percentile(0.50)),
                   bench::fmt("%.4f", h.percentile(0.95)),
                   bench::fmt("%.4f", h.percentile(0.99))});
  }
  table.print(std::cout);

  // Per-tenant view of the shared regime: with the lowest-index
  // tie-break both tenants see the same alternating sweep/stencil mix,
  // so their percentiles should track each other closely.
  std::cout << "\n";
  util::TextTable per_tenant({"2-tenant regime", "jobs", "p50 [s]",
                              "p95 [s]", "p99 [s]"});
  for (int t = 0; t < kTenants; ++t) {
    const util::Histogram h = latency_hist(shared, t);
    per_tenant.add_row({"tenant " + std::to_string(t),
                        std::to_string(h.count()),
                        bench::fmt("%.4f", h.percentile(0.50)),
                        bench::fmt("%.4f", h.percentile(0.95)),
                        bench::fmt("%.4f", h.percentile(0.99))});
  }
  per_tenant.print(std::cout);

  const double speedup = serial.makespan_s / shared.makespan_s;
  std::cout << "\nPer-tenant width " << share << "/" << chip_spes
            << " SPEs; sweep service " << bench::fmt("%.4f", sweep_full)
            << " s full-chip vs " << bench::fmt("%.4f", sweep_half)
            << " s shared -- the dependency-chain-bound sweep barely\n"
            << "misses the surrendered SPEs, so two tenants trade a "
            << bench::fmt("%.2f", sweep_half / sweep_full)
            << "x per-job slowdown for " << bench::fmt("%.2f", speedup)
            << "x throughput.\n";

  // ------------------------------------------------------------------
  // Open-system latency vs offered load (the tentpole curve): a seeded
  // ArrivalPlan rate stream into the 2-tenant fair-share partition at a
  // utilization ladder. Capacity is the partition's saturation rate for
  // the alternating mix; the job count stays inside util::Histogram's
  // exact-percentile window so every quantile is an order statistic.
  constexpr std::uint64_t kLoadJobs = 48;
  static_assert(kLoadJobs <= util::Histogram::kExactSampleLimit);
  const double mean_service_s = (sweep_half + sten_half) / 2.0;
  const double capacity_jobs_per_s = kTenants / mean_service_s;
  const double kLoads[] = {0.2, 0.4, 0.6, 0.8, 0.9, 1.0, 1.1};

  std::vector<LoadPoint> curve;
  for (const double load : kLoads) {
    core::ArrivalSpec as;
    as.seed = 2026;  // one seed for the whole curve: reproducible knee
    core::TenantArrivals ta;
    ta.tenant = 0;
    ta.kind = core::ArrivalKind::kRate;
    ta.rate_per_s = load * capacity_jobs_per_s;
    ta.count = kLoadJobs;
    as.tenants.push_back(ta);
    LoadPoint pt = run_open_queue(core::ArrivalPlan(as), kTenants,
                                  sweep_half, sten_half);
    pt.offered_load = load;
    curve.push_back(std::move(pt));
  }

  // Knee: the first point whose p95 sojourn exceeds twice the lightest
  // load's p95 -- where queueing delay stops hiding behind service
  // time. Past-saturation points guarantee the knee exists.
  const double p95_floor = curve.front().latency.percentile(0.95);
  double knee_load = kLoads[sizeof(kLoads) / sizeof(kLoads[0]) - 1];
  for (const LoadPoint& pt : curve) {
    if (pt.latency.percentile(0.95) > 2.0 * p95_floor) {
      knee_load = pt.offered_load;
      break;
    }
  }

  std::cout << "\n";
  util::TextTable load_table({"offered load", "jobs/s", "p50 [s]", "p95 [s]",
                              "p99 [s]"});
  for (const LoadPoint& pt : curve)
    load_table.add_row(
        {bench::fmt("%.2f", pt.offered_load),
         bench::fmt("%.4f", static_cast<double>(kLoadJobs) / pt.makespan_s),
         bench::fmt("%.4f", pt.latency.percentile(0.50)),
         bench::fmt("%.4f", pt.latency.percentile(0.95)),
         bench::fmt("%.4f", pt.latency.percentile(0.99))});
  load_table.print(std::cout);
  std::cout << "Capacity " << bench::fmt("%.4f", capacity_jobs_per_s)
            << " jobs/s at width " << share << "; p95 knee at offered load "
            << bench::fmt("%.2f", knee_load) << ".\n";

  if (!opt.json_dir.empty()) {
    const std::string path = opt.json_dir + "/BENCH_latency_load.json";
    std::ofstream os(path);
    if (!os) {
      std::cerr << "bench: cannot write " << path << "\n";
      return 1;
    }
    os << "{\n  \"schema\": \"" << bench::kBenchSchema
       << "\",\n  \"scenario\": \"latency-load\",\n  \"fingerprint\": {"
       << "\"cube\": " << cube << ", \"stencil_cube\": " << stencil_cube
       << ", \"jobs\": " << kLoadJobs << ", \"spes\": " << chip_spes
       << ", \"tenants\": " << kTenants << ", \"seed\": 2026},\n  \"runs\": [";
    bool first_pt = true;
    for (const LoadPoint& pt : curve) {
      os << (first_pt ? "\n" : ",\n") << "    {\"name\": \"load-"
         << bench::fmt("%.2f", pt.offered_load) << "\",\n     \"metrics\": {";
      bench::write_metric(os, "seconds", pt.makespan_s, true);
      bench::write_metric(os, "jobs_per_s",
                          static_cast<double>(kLoadJobs) / pt.makespan_s);
      bench::write_metric(os, "latency_p50_s", pt.latency.percentile(0.50));
      bench::write_metric(os, "latency_p95_s", pt.latency.percentile(0.95));
      bench::write_metric(os, "latency_p99_s", pt.latency.percentile(0.99));
      os << "},\n     \"counters\": null}";
      first_pt = false;
    }
    os << ",\n    {\"name\": \"summary\",\n     \"metrics\": {";
    bench::write_metric(os, "seconds", curve.back().makespan_s, true);
    bench::write_metric(os, "capacity_jobs_per_s", capacity_jobs_per_s);
    bench::write_metric(os, "knee_offered_load", knee_load);
    os << "},\n     \"counters\": null}\n  ],\n  \"deltas\": []\n}\n";
    std::cout << "Bench JSON -> " << path << "\n";
    if (!os.good()) return 1;
  }

  if (!opt.json_dir.empty()) {
    const std::string path =
        opt.json_dir + "/BENCH_throughput.json";
    std::ofstream os(path);
    if (!os) {
      std::cerr << "bench: cannot write " << path << "\n";
      return 1;
    }
    os << "{\n  \"schema\": \"" << bench::kBenchSchema
       << "\",\n  \"scenario\": \"throughput\",\n  \"fingerprint\": {"
       << "\"cube\": " << cube << ", \"stencil_cube\": " << stencil_cube
       << ", \"sweep_jobs\": " << kSweepJobs
       << ", \"stencil_jobs\": " << kStencilJobs
       << ", \"spes\": " << chip_spes << ", \"tenants\": " << kTenants
       << "},\n  \"runs\": [";
    bool first_run = true;
    for (const Row& row : rows) {
      os << (first_run ? "\n" : ",\n") << "    {\"name\": \"" << row.name
         << "\",\n     \"metrics\": {";
      const util::Histogram h = latency_hist(*row.q);
      bench::write_metric(os, "seconds", row.q->makespan_s, true);
      bench::write_metric(os, "jobs_per_s",
                          static_cast<double>(jobs) / row.q->makespan_s);
      bench::write_metric(os, "latency_p50_s", h.percentile(0.50));
      bench::write_metric(os, "latency_p95_s", h.percentile(0.95));
      bench::write_metric(os, "latency_p99_s", h.percentile(0.99));
      const int tenants_here = row.q == &shared ? kTenants : 1;
      for (int t = 0; t < tenants_here; ++t) {
        const util::Histogram th = latency_hist(*row.q, t);
        const std::string prefix = "tenant" + std::to_string(t);
        bench::write_metric(os, (prefix + "_latency_p50_s").c_str(),
                            th.percentile(0.50));
        bench::write_metric(os, (prefix + "_latency_p95_s").c_str(),
                            th.percentile(0.95));
        bench::write_metric(os, (prefix + "_latency_p99_s").c_str(),
                            th.percentile(0.99));
      }
      os << "},\n     \"counters\": null}";
      first_run = false;
    }
    os << "\n  ],\n  \"deltas\": [\n    {\"from\": \"serial-1-tenant\", "
       << "\"to\": \"2-tenant\", \"seconds_delta\": "
       << util::json_number(shared.makespan_s - serial.makespan_s)
       << ", \"seconds_ratio\": "
       << util::json_number(shared.makespan_s / serial.makespan_s)
       << "}\n  ]\n}\n";
    std::cout << "Bench JSON -> " << path << "\n";
    if (!os.good()) return 1;
  }

  // Acceptance gate at paper scale: sharing the chip two ways must buy
  // at least 1.5x job throughput or the allocator regressed.
  if (!opt.cube_set && speedup < 1.5) {
    std::cerr << "bench_throughput: FAIL: 2-tenant speedup "
              << bench::fmt("%.3f", speedup) << "x < 1.5x\n";
    return 1;
  }
  return 0;
}
