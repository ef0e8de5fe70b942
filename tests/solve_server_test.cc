// core::SolveServer end to end: multi-tenant solves on one simulated
// chip. The load-bearing contracts:
//   * a 1-tenant server equals a solo run (deck_runner's path,
//     JobInput::run) in timing and physics, even for a deck that
//     converges early;
//   * physics is bitwise independent of tenancy -- a deck solved while
//     another tenant shares the chip produces the same solve, checksum
//     and residual as a solo run (only host scheduling and the
//     simulated SPE partition differ);
//   * a plan-cache hit is invisible in the results: a deck whose Sn
//     order and chunk shapes the server has seen -- whatever its
//     materials -- yields the same RunReport timing, just cheaper to
//     plan;
//   * admission is typed and airtight: unparsable, lint-rejected and
//     over-budget jobs throw AdmissionError with the right reason and
//     never reach a worker.
#include <chrono>
#include <filesystem>
#include <thread>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "server/plan_cache.h"
#include "server/solve_server.h"
#include "sim/fault.h"
#include "sweep/deck.h"

namespace cellsweep::core {
namespace {

// Mirrors examples/decks/tiny8.deck / tiny8.stencil: fast enough to
// solve functionally many times per test run.
const char* const kTinyDeck =
    "it 8  jt 8  kt 8\n"
    "dx 0.04  dy 0.04  dz 0.04\n"
    "mk 4  mmi 3\n"
    "sn 6  moments 6\n"
    "iterations 2  fixup_from 1\n"
    "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";

// Stops on epsilon at iteration 5 of 30: the run must be timed over
// the iterations it solved.
const char* const kConvergingDeck =
    "it 8  jt 8  kt 8\n"
    "dx 0.04  dy 0.04  dz 0.04\n"
    "mk 4  mmi 3\n"
    "sn 6  moments 6\n"
    "iterations 30  fixup_from 1  epsilon 1e-5\n"
    "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";

const char* const kTinyStencil =
    "nx 8  ny 8  nz 8\n"
    "bx 4  by 4  bz 4\n"
    "iterations 2\n";

JobRequest sweep_req(const std::string& name) {
  JobRequest req;
  req.kind = JobKind::kSweep;
  req.name = name;
  req.text = kTinyDeck;
  req.mode = RunMode::kFunctional;
  return req;
}

JobRequest stencil_req(const std::string& name) {
  JobRequest req;
  req.kind = JobKind::kStencil;
  req.name = name;
  req.text = kTinyStencil;
  req.mode = RunMode::kFunctional;
  return req;
}

// Large enough that a trace-driven solve occupies its worker for a
// good fraction of a second -- the cancellation tests need a window in
// which the job is reliably still queued (behind one of these) or
// reliably still running.
const char* const kSlowDeck =
    "it 24  jt 24  kt 24\n"
    "dx 0.04  dy 0.04  dz 0.04\n"
    "mk 4  mmi 3\n"
    "sn 6  moments 6\n"
    "iterations 4  fixup_from 1\n"
    "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";

JobRequest slow_req(const std::string& name) {
  JobRequest req;
  req.kind = JobKind::kSweep;
  req.name = name;
  req.text = kSlowDeck;
  req.mode = RunMode::kTraceDriven;
  return req;
}

AdmissionError::Reason reason_of(SolveServer& server,
                                 const JobRequest& req) {
  try {
    server.submit(req);
  } catch (const AdmissionError& e) {
    return e.reason();
  }
  ADD_FAILURE() << "submit() accepted a job that must be rejected";
  return AdmissionError::Reason::kParse;
}

TEST(SolveServer, RunsAMixedStreamToCompletion) {
  ServerConfig cfg;
  cfg.tenants = 2;
  cfg.host_threads = 2;
  SolveServer server(cfg);
  for (int i = 0; i < 2; ++i) {
    server.submit(sweep_req("sweep-" + std::to_string(i)));
    server.submit(stencil_req("stencil-" + std::to_string(i)));
  }
  const std::vector<JobResult> results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& r : results) {
    EXPECT_TRUE(r.ok) << r.name << ": " << r.error;
    EXPECT_GT(r.report.seconds, 0.0) << r.name;
  }
  const SolveServer::Stats st = server.stats();
  EXPECT_EQ(st.submitted, 4u);
  EXPECT_EQ(st.completed, 4u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(st.rejected, 0u);
  // Both tenants held chip claims at some point.
  EXPECT_GE(server.allocator_stats().claims, 4u);
}

// The physics of @p r equals that of @p ref: the solve fields, the
// absorption and leakage, and the work counts (sweeps); the checksum,
// residual and flops (stencils).
void expect_same_physics(const JobResult& r, const JobResult& ref) {
  if (r.kind == JobKind::kSweep) {
    ASSERT_TRUE(r.report.solve.has_value()) << r.name;
    ASSERT_TRUE(ref.report.solve.has_value()) << r.name;
    EXPECT_EQ(r.report.solve->final_change, ref.report.solve->final_change)
        << r.name;
    EXPECT_EQ(r.report.solve->iterations, ref.report.solve->iterations)
        << r.name;
    EXPECT_EQ(r.report.solve->converged, ref.report.solve->converged)
        << r.name;
    EXPECT_EQ(r.report.solve->totals.fixup_cells,
              ref.report.solve->totals.fixup_cells)
        << r.name;
    EXPECT_EQ(r.report.absorption, ref.report.absorption) << r.name;
    EXPECT_EQ(r.report.leakage.total(), ref.report.leakage.total())
        << r.name;
    EXPECT_EQ(r.report.flops, ref.report.flops) << r.name;
    EXPECT_EQ(r.report.cell_solves, ref.report.cell_solves) << r.name;
  } else {
    EXPECT_EQ(r.checksum, ref.checksum) << r.name;
    EXPECT_EQ(r.residual, ref.residual) << r.name;
    EXPECT_EQ(r.report.flops, ref.report.flops) << r.name;
  }
}

TEST(SolveServer, TenancyNeverPerturbsThePhysics) {
  JobRequest converging = sweep_req("converging");
  converging.text = kConvergingDeck;
  const std::vector<JobRequest> inputs = {sweep_req("sweep"), converging,
                                          stencil_req("stencil")};

  // Solo reference: deck_runner's path, one JobInput::run on the whole
  // chip. A 1-tenant server must reproduce it exactly, timing included.
  ServerConfig one;
  one.tenants = 1;
  std::vector<JobResult> solo;
  {
    SolveServer server(one);
    for (const JobRequest& req : inputs) {
      JobResult ref = JobInput(req.kind, req.text)
                          .run(CellSweepConfig::from_stage(one.stage),
                               req.mode);
      const JobResult served = server.wait(server.submit(req));
      ASSERT_TRUE(served.ok) << served.name << ": " << served.error;
      EXPECT_EQ(served.report.seconds, ref.report.seconds) << req.name;
      EXPECT_EQ(served.report.traffic_bytes, ref.report.traffic_bytes)
          << req.name;
      EXPECT_EQ(served.report.chunks, ref.report.chunks) << req.name;
      expect_same_physics(served, ref);
      solo.push_back(std::move(ref));
    }
  }
  const auto& early = solo[1].report.solve;
  ASSERT_TRUE(early.has_value());
  EXPECT_TRUE(early->converged);
  EXPECT_LT(early->iterations, 30);

  // Contended run: two tenants racing for the same chip and host pool.
  ServerConfig cfg;
  cfg.tenants = 2;
  cfg.host_threads = 2;
  SolveServer server(cfg);
  for (int i = 0; i < 3; ++i)
    for (const JobRequest& req : inputs) server.submit(req);
  const std::vector<JobResult> results = server.drain();
  ASSERT_EQ(results.size(), 3 * inputs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].name << ": " << results[i].error;
    expect_same_physics(results[i], solo[i % inputs.size()]);
  }
}

/// @p deck with its first @p from replaced by @p to.
std::string with(std::string deck, const std::string& from,
                 const std::string& to) {
  deck.replace(deck.find(from), from.size(), to);
  return deck;
}

/// @p deck with another material: other physics, the same Sn order and
/// chunk shapes.
std::string other_material(const std::string& deck) {
  return with(deck, "material benchmark 1.0 0.5 0.2 0.05 source 1.0",
              "material shield 4.0 0.3 0.1 0.02 source 0.5");
}

TEST(SolveServer, PlanCacheHitIsByteIdentical) {
  SolveServer server(ServerConfig{});  // one tenant: runs serialize
  JobRequest shield = sweep_req("shield");
  shield.text = other_material(kTinyDeck);
  const JobResult first = server.wait(server.submit(sweep_req("cold")));
  const JobResult second = server.wait(server.submit(shield));
  ASSERT_TRUE(first.ok);
  ASSERT_TRUE(second.ok);
  EXPECT_FALSE(first.plan_cache_hit);
  EXPECT_TRUE(second.plan_cache_hit);
  // The shared quadrature and chunk costs change nothing observable:
  // every timing metric byte-identical, though the physics differs.
  EXPECT_EQ(first.report.seconds, second.report.seconds);
  EXPECT_EQ(first.report.grind_seconds, second.report.grind_seconds);
  EXPECT_EQ(first.report.traffic_bytes, second.report.traffic_bytes);
  EXPECT_EQ(first.report.flops, second.report.flops);
  EXPECT_EQ(first.report.dma_commands, second.report.dma_commands);
  EXPECT_NE(first.report.absorption, second.report.absorption);

  // A stencil spec has no plan step: never a hit, nothing counted, and
  // its plan span has zero length.
  const JobResult stencil = server.wait(server.submit(stencil_req("s")));
  ASSERT_TRUE(stencil.ok);
  EXPECT_FALSE(stencil.plan_cache_hit);
  EXPECT_EQ(stencil.trace.plan_start_s, stencil.trace.plan_end_s);
  const JobResult third = server.wait(server.submit(sweep_req("again")));
  EXPECT_TRUE(third.plan_cache_hit);

  const PlanCache::Stats pc = server.plan_cache_stats();
  EXPECT_EQ(pc.hits, 2u);
  EXPECT_EQ(pc.misses, 1u);

  // The hit/miss story also surfaces through the metrics snapshot.
  const MetricsRegistry::Snapshot snap = server.metrics_snapshot();
  const MetricsRegistry::Family* hits =
      snap.find("cellsweep_plan_cache_hits_total");
  ASSERT_NE(hits, nullptr);
  EXPECT_DOUBLE_EQ(hits->entries[0].value, 2.0);
  const MetricsRegistry::Family* misses =
      snap.find("cellsweep_plan_cache_misses_total");
  ASSERT_NE(misses, nullptr);
  EXPECT_DOUBLE_EQ(misses->entries[0].value, 1.0);
}

TEST(SolveServer, TwoTenantsShareThePlanTablesBitForBit) {
  // Nine functional decks in three shape classes -- (sn, it, nm) of
  // (6, 8, 6), (6, 12, 6) and (4, 8, 4) -- that vary materials,
  // spacing, J/K extents and blocking within a class, plus two
  // stencils.
  const std::string a = kTinyDeck;
  const std::string b =
      "it 12  jt 8  kt 8\n"
      "dx 0.03  dy 0.04  dz 0.05\n"
      "mk 4  mmi 3\n"
      "sn 6  moments 6\n"
      "iterations 2  fixup_from 1\n"
      "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";
  const std::string c =
      "it 8  jt 8  kt 8\n"
      "dx 0.04  dy 0.04  dz 0.04\n"
      "mk 2  mmi 3\n"
      "sn 4  moments 4\n"
      "iterations 2  fixup_from 1\n"
      "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";
  std::vector<JobRequest> inputs;
  for (const std::string& text :
       {a, other_material(a), with(a, "it 8  jt 8  kt 8", "it 8  jt 12  kt 4"),
        with(a, "mk 4  mmi 3", "mk 2  mmi 1"), b, other_material(b),
        with(b, "dx 0.03", "dx 0.1"), c, other_material(c)}) {
    JobRequest req = sweep_req("sweep-" + std::to_string(inputs.size()));
    req.text = text;
    inputs.push_back(req);
  }
  inputs.push_back(stencil_req("stencil-0"));
  inputs.push_back(stencil_req("stencil-1"));

  ServerConfig cfg;
  cfg.tenants = 2;
  cfg.host_threads = 2;
  SolveServer server(cfg);
  for (const JobRequest& req : inputs) server.submit(req);
  const std::vector<JobResult> results = server.drain();
  ASSERT_EQ(results.size(), inputs.size());
  std::uint64_t sweeps = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok) << results[i].name << ": " << results[i].error;
    const JobRequest& req = inputs[i];
    expect_same_physics(results[i],
                        JobInput(req.kind, req.text)
                            .run(CellSweepConfig::from_stage(cfg.stage),
                                 req.mode));
    sweeps += req.kind == JobKind::kSweep ? 1 : 0;
  }
  const PlanCache::Stats pc = server.plan_cache_stats();
  EXPECT_EQ(pc.hits + pc.misses, sweeps);
  EXPECT_GE(pc.misses, 3u);  // each shape class builds once
}

TEST(SolveServer, AdmissionRejectsUnparsableInput) {
  SolveServer server(ServerConfig{});
  JobRequest req = sweep_req("garbage");
  req.text = "this is not a deck\n";
  EXPECT_EQ(reason_of(server, req), AdmissionError::Reason::kParse);
  JobRequest sreq = stencil_req("garbage");
  sreq.text = "nx banana\n";
  EXPECT_EQ(reason_of(server, sreq), AdmissionError::Reason::kParse);
  EXPECT_EQ(server.stats().rejected, 2u);
  EXPECT_EQ(server.stats().submitted, 0u);
}

TEST(SolveServer, AdmissionRejectsOverLsBudgetDeck) {
  // The tiny deck needs a few tens of KB of simulated LS; a budget just
  // above the fixed overhead but below the buffer footprint must bounce
  // it with the typed reason, before any scheduling.
  ServerConfig cfg;
  cfg.ls_budget_bytes = 5 * 1024;
  SolveServer server(cfg);
  EXPECT_EQ(reason_of(server, sweep_req("too-big")),
            AdmissionError::Reason::kLsBudget);
  EXPECT_EQ(reason_of(server, stencil_req("too-big")),
            AdmissionError::Reason::kLsBudget);
  EXPECT_EQ(server.stats().rejected, 2u);
  // The same deck is admitted once the budget allows it.
  ServerConfig roomy;
  roomy.ls_budget_bytes = 256 * 1024;
  SolveServer ok_server(roomy);
  EXPECT_TRUE(ok_server.wait(ok_server.submit(sweep_req("fits"))).ok);
}

TEST(SolveServer, AdmissionRejectsOverGridBudgetDeck) {
  ServerConfig cfg;
  cfg.grid_cell_budget = 100;  // the tiny deck has 8^3 = 512 cells
  SolveServer server(cfg);
  EXPECT_EQ(reason_of(server, sweep_req("too-many-cells")),
            AdmissionError::Reason::kGridBudget);
  EXPECT_EQ(reason_of(server, stencil_req("too-many-cells")),
            AdmissionError::Reason::kGridBudget);
}

TEST(SolveServer, QueueLimitRejectsWithTypedReason) {
  ServerConfig cfg;
  cfg.tenants = 1;
  cfg.queue_limit = 1;
  SolveServer server(cfg);
  // With one tenant busy and one slot, a burst must eventually bounce.
  bool bounced = false;
  for (int i = 0; i < 64 && !bounced; ++i) {
    try {
      server.submit(sweep_req("burst-" + std::to_string(i)));
    } catch (const AdmissionError& e) {
      EXPECT_EQ(e.reason(), AdmissionError::Reason::kQueueFull);
      bounced = true;
    }
  }
  EXPECT_TRUE(bounced);
  for (const JobResult& r : server.drain()) EXPECT_TRUE(r.ok) << r.error;
}

TEST(SolveServer, WaitRejectsUnknownIds) {
  SolveServer server(ServerConfig{});
  EXPECT_THROW(server.wait(0), std::invalid_argument);
  EXPECT_THROW(server.wait(42), std::invalid_argument);
}

TEST(SolveServer, LifecycleTraceIsCompleteAndOrdered) {
  ServerConfig cfg;
  cfg.tenants = 2;
  SolveServer server(cfg);
  for (int i = 0; i < 2; ++i) {
    server.submit(sweep_req("sweep-" + std::to_string(i)));
    server.submit(stencil_req("stencil-" + std::to_string(i)));
  }
  const std::vector<JobResult> results = server.drain();
  ASSERT_EQ(results.size(), 4u);
  for (const JobResult& r : results) {
    ASSERT_TRUE(r.ok) << r.name;
    const JobTrace& t = r.trace;
    EXPECT_TRUE(t.complete) << r.name;
    EXPECT_GE(t.tenant, 0);
    EXPECT_LT(t.tenant, cfg.tenants);
    // Every phase reached, in lifecycle order on one monotonic clock.
    ASSERT_TRUE(JobTrace::reached(t.admit_start_s)) << r.name;
    EXPECT_LE(t.admit_start_s, t.admit_end_s);
    EXPECT_LE(t.admit_end_s, t.enqueue_s);
    EXPECT_LE(t.enqueue_s, t.dequeue_s);
    EXPECT_LE(t.dequeue_s, t.plan_start_s);
    EXPECT_LE(t.plan_start_s, t.plan_end_s);
    EXPECT_LE(t.plan_end_s, t.run_start_s);
    EXPECT_LE(t.run_start_s, t.run_end_s);
    EXPECT_LE(t.run_end_s, t.report_s);
    EXPECT_GE(t.queue_wait_s(), 0.0);
    EXPECT_GE(t.service_s(), 0.0);
    EXPECT_GE(t.claim_wait_s, 0.0);
    EXPECT_LE(t.claim_wait_s, t.service_s());
  }
  // traced_jobs() mirrors the results in submission order.
  const std::vector<TracedJob> traced = server.traced_jobs();
  ASSERT_EQ(traced.size(), 4u);
  for (std::size_t i = 0; i < traced.size(); ++i) {
    EXPECT_EQ(traced[i].id, results[i].id);
    EXPECT_EQ(traced[i].name, results[i].name);
  }
}

TEST(SolveServer, MetricsSnapshotCountsTheWorkload) {
  ServerConfig cfg;
  cfg.tenants = 2;
  SolveServer server(cfg);
  for (int i = 0; i < 3; ++i)
    server.submit(sweep_req("job-" + std::to_string(i)));
  server.drain();
  const MetricsRegistry::Snapshot snap = server.metrics_snapshot();

  const MetricsRegistry::Family* admitted =
      snap.find("cellsweep_jobs_admitted_total");
  ASSERT_NE(admitted, nullptr);
  EXPECT_EQ(admitted->type, MetricType::kCounter);
  ASSERT_EQ(admitted->entries.size(), 1u);
  EXPECT_DOUBLE_EQ(admitted->entries[0].value, 3.0);

  // Per-tenant service histograms: total observations == jobs run.
  const MetricsRegistry::Family* service =
      snap.find("cellsweep_service_seconds");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(service->type, MetricType::kHistogram);
  std::uint64_t observed = 0;
  for (const MetricsRegistry::Entry& e : service->entries)
    observed += e.hist.count();
  EXPECT_EQ(observed, 3u);

  // Derived families from the shared subsystems are merged in.
  EXPECT_NE(snap.find("cellsweep_plan_cache_hits_total"), nullptr);
  EXPECT_NE(snap.find("cellsweep_spe_claims_total"), nullptr);
  EXPECT_NE(snap.find("cellsweep_pool_utilization"), nullptr);

  // Families arrive sorted by name (the byte-stability contract).
  for (std::size_t i = 1; i < snap.families.size(); ++i)
    EXPECT_LT(snap.families[i - 1].name, snap.families[i].name);

  // The queue-depth series sampled real admissions.
  const MetricsRegistry::Family* depth =
      snap.find("cellsweep_queue_depth_series");
  ASSERT_NE(depth, nullptr);
  ASSERT_EQ(depth->entries.size(), 1u);
  EXPECT_GE(depth->entries[0].samples.size(), 3u);
}

TEST(SolveServer, StopMidQueueReportsPartialSpans) {
  ServerConfig cfg;
  cfg.tenants = 1;
  SolveServer server(cfg);
  std::vector<int> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(server.submit(sweep_req("q-" + std::to_string(i))));
  server.stop();

  // Shutdown is sticky: new work bounces with the typed reason.
  EXPECT_EQ(reason_of(server, sweep_req("late")),
            AdmissionError::Reason::kShutdown);

  const std::vector<JobResult> results = server.drain();
  ASSERT_EQ(results.size(), ids.size());
  const SolveServer::Stats st = server.stats();
  EXPECT_EQ(st.submitted, ids.size());
  EXPECT_GE(st.cancelled, 1u);  // the burst outran the single tenant
  EXPECT_EQ(st.failed, 0u);     // cancelled is its own terminal state
  // Conservation: every admitted job lands in exactly one bucket.
  EXPECT_EQ(st.completed + st.failed + st.cancelled, ids.size());

  std::uint64_t cancelled_seen = 0;
  for (const JobResult& r : results) {
    if (r.ok) {
      EXPECT_TRUE(r.trace.complete) << r.name;
      EXPECT_FALSE(r.cancelled) << r.name;
      continue;
    }
    ++cancelled_seen;
    EXPECT_TRUE(r.cancelled) << r.name;
    EXPECT_EQ(r.error.rfind("cancelled:", 0), 0u) << r.error;
    // The partial trace keeps the admission-side stamps, never enters
    // the run, and still gets a publication stamp.
    const JobTrace& t = r.trace;
    EXPECT_FALSE(t.complete);
    EXPECT_TRUE(JobTrace::reached(t.admit_start_s));
    EXPECT_TRUE(JobTrace::reached(t.enqueue_s));
    EXPECT_FALSE(JobTrace::reached(t.run_start_s));
    EXPECT_TRUE(JobTrace::reached(t.report_s)) << r.name;
    EXPECT_GE(t.report_s, t.enqueue_s) << r.name;
  }
  EXPECT_EQ(cancelled_seen, st.cancelled);
  // stop() is idempotent and the destructor after it is a no-op.
  server.stop();
}

TEST(SolveServer, FlightRecorderDumpsOnFailover) {
  const std::string dir = ::testing::TempDir() + "cellsweep-flightrec";
  std::filesystem::create_directories(dir);
  ServerConfig cfg;
  cfg.tenants = 1;
  cfg.faults = sim::parse_fault_spec("seed=42,spe=7:down");
  cfg.flight_recorder_path = dir + "/flightrec";
  SolveServer server(cfg);
  JobRequest req = sweep_req("faulted");
  req.mode = RunMode::kTraceDriven;  // fault plan drives the machine
  const JobResult r = server.wait(server.submit(req));
  ASSERT_TRUE(r.ok) << r.error;  // failover degrades, not fails
  const sim::CounterSet* f = r.report.counters.find_child("faults");
  ASSERT_NE(f, nullptr);
  EXPECT_GE(f->value("spes_disabled"), 1.0);

  std::size_t dumps = 0;
  for (const auto& ent : std::filesystem::directory_iterator(dir))
    if (ent.path().filename().string().rfind("flightrec-", 0) == 0) ++dumps;
  EXPECT_GE(dumps, 1u);

  // The in-process ring saw the whole lifecycle including the
  // failover marker.
  bool saw_failover = false;
  for (const FlightRecorder::Event& e : server.flight_recorder().events())
    if (e.kind == "failover") saw_failover = true;
  EXPECT_TRUE(saw_failover);
  std::filesystem::remove_all(dir);
}

TEST(SolveServer, CancelQueuedJobPublishesBeforeWaitReturns) {
  const std::string dir = ::testing::TempDir() + "cellsweep-cancelq";
  std::filesystem::create_directories(dir);
  ServerConfig cfg;
  cfg.tenants = 1;
  cfg.flight_recorder_path = dir + "/flightrec";
  SolveServer server(cfg);
  const int blocker = server.submit(slow_req("blocker"));
  const int target = server.submit(sweep_req("victim"));
  // The single worker is (at best) on the blocker; the victim is still
  // queued, so cancel() must take the immediate-publish path.
  EXPECT_TRUE(server.cancel(target));
  const JobResult r = server.wait(target);
  EXPECT_TRUE(r.cancelled);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error.rfind("cancelled:", 0), 0u) << r.error;
  EXPECT_FALSE(r.trace.complete);
  EXPECT_FALSE(JobTrace::reached(r.trace.run_start_s));
  EXPECT_TRUE(JobTrace::reached(r.trace.report_s));

  // Dump-before-publish: the moment wait() returned the cancelled
  // result, the post-mortem file was already on disk.
  std::size_t dumps = 0;
  for (const auto& ent : std::filesystem::directory_iterator(dir))
    if (ent.path().filename().string().rfind("flightrec-", 0) == 0) ++dumps;
  EXPECT_GE(dumps, 1u);

  // Cancelling a finished job reports false, never a double publish.
  EXPECT_FALSE(server.cancel(target));
  EXPECT_FALSE(server.cancel(9999));
  const JobResult rb = server.wait(blocker);
  EXPECT_TRUE(rb.ok) << rb.error;
  EXPECT_FALSE(server.cancel(blocker));

  const SolveServer::Stats st = server.stats();
  EXPECT_EQ(st.submitted, 2u);
  EXPECT_EQ(st.completed, 1u);
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.failed, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SolveServer, CancelMidRunKeepsStampsMonotone) {
  ServerConfig cfg;
  cfg.tenants = 1;
  SolveServer server(cfg);
  const int id = server.submit(slow_req("long-haul"));
  // Wait until the worker has actually dequeued the job, then cancel:
  // the cooperative flag aborts the pipeline at a wave boundary.
  bool dequeued = false;
  for (int spin = 0; spin < 10000 && !dequeued; ++spin) {
    for (const FlightRecorder::Event& e : server.flight_recorder().events())
      if (e.kind == "dequeue" && e.job_id == id) dequeued = true;
    if (!dequeued) std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  ASSERT_TRUE(dequeued);
  EXPECT_TRUE(server.cancel(id));
  const JobResult r = server.wait(id);
  ASSERT_TRUE(r.cancelled) << "job finished before the cancel landed; "
                              "kSlowDeck needs to be slower";
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("cancelled"), std::string::npos) << r.error;
  EXPECT_FALSE(r.trace.complete);

  // Every stamp the run reached is present and monotone: admission ->
  // enqueue -> dequeue -> plan -> run_start -> run_end -> report.
  const JobTrace& t = r.trace;
  EXPECT_TRUE(JobTrace::reached(t.admit_start_s));
  EXPECT_TRUE(JobTrace::reached(t.run_start_s));
  EXPECT_TRUE(JobTrace::reached(t.run_end_s));  // stamped at abort
  EXPECT_TRUE(JobTrace::reached(t.report_s));
  EXPECT_LE(t.admit_start_s, t.admit_end_s);
  EXPECT_LE(t.admit_end_s, t.enqueue_s);
  EXPECT_LE(t.enqueue_s, t.dequeue_s);
  EXPECT_LE(t.dequeue_s, t.run_start_s);
  EXPECT_LE(t.run_start_s, t.run_end_s);
  EXPECT_LE(t.run_end_s, t.report_s);

  // The recorder saw the cancel after the dequeue (lifecycle order).
  std::size_t i_dequeue = 0, i_cancel = 0;
  const auto events = server.flight_recorder().events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].job_id != id) continue;
    if (events[i].kind == "dequeue") i_dequeue = i;
    if (events[i].kind == "cancel") i_cancel = i;
  }
  EXPECT_GT(i_cancel, i_dequeue);

  const SolveServer::Stats st = server.stats();
  EXPECT_EQ(st.cancelled, 1u);
  EXPECT_EQ(st.completed + st.failed + st.cancelled, 1u);
}

TEST(SolveServer, QueueDeadlineExpiryCancelsInsteadOfRunningLate) {
  ServerConfig cfg;
  cfg.tenants = 1;
  SolveServer server(cfg);
  server.submit(slow_req("blocker"));
  JobRequest doomed = sweep_req("doomed");
  doomed.deadline_ms = 1;  // expires while the blocker holds the worker
  const int id_doomed = server.submit(doomed);
  JobRequest relaxed = sweep_req("relaxed");
  relaxed.deadline_ms = 600000;
  const int id_relaxed = server.submit(relaxed);

  const JobResult rd = server.wait(id_doomed);
  EXPECT_TRUE(rd.cancelled);
  EXPECT_NE(rd.error.find("deadline"), std::string::npos) << rd.error;
  EXPECT_FALSE(JobTrace::reached(rd.trace.run_start_s));
  EXPECT_FALSE(rd.trace.complete);

  // A deadline with slack never fires; the job runs normally.
  const JobResult rr = server.wait(id_relaxed);
  EXPECT_TRUE(rr.ok) << rr.error;
  EXPECT_FALSE(rr.cancelled);
  EXPECT_TRUE(rr.trace.complete);

  // The cancelled metric carries the typed reason.
  const MetricsRegistry::Snapshot snap = server.metrics_snapshot();
  const MetricsRegistry::Family* fam =
      snap.find("cellsweep_jobs_cancelled_total");
  ASSERT_NE(fam, nullptr);
  bool saw_deadline = false;
  for (const MetricsRegistry::Entry& e : fam->entries)
    if (e.label == "reason=\"deadline\"") saw_deadline = true;
  EXPECT_TRUE(saw_deadline);
}

TEST(SolveServer, TenantWeightsAndQuotasReachTheAllocator) {
  // A quota'd tenant can never hold more SPEs than its cap: with one
  // tenant quota'd to 2 on an 8-SPE chip, a solo run still succeeds
  // (physics identical) while the allocator never grants past 2.
  ServerConfig cfg;
  cfg.tenants = 1;
  cfg.tenant_weights = {3};
  cfg.tenant_quotas = {2};
  SolveServer server(cfg);
  const JobResult r = server.wait(server.submit(sweep_req("capped")));
  EXPECT_TRUE(r.ok) << r.error;
  // The run degraded to 2 SPEs (quota), visible in the report.
  ASSERT_TRUE(r.report.solve.has_value());
  EXPECT_GT(r.report.seconds, 0.0);
  EXPECT_LE(server.allocator_stats().peak_tenants, 1);
}

TEST(PlanCache, KeysOnShapeNotOnDeck) {
  const CellSweepConfig spe = CellSweepConfig::from_stage(
      OptimizationStage::kSpeLsPoke);
  PlanCache cache(spe.chip);
  const auto plan = [&cache](const std::string& text,
                             const CellSweepConfig& cfg) {
    return cache.plan(sweep::parse_deck_string(text), cfg);
  };
  const PlanCache::Plan cold = plan(kTinyDeck, spe);
  EXPECT_FALSE(cold.hit);
  ASSERT_NE(cold.quadrature, nullptr);
  ASSERT_NE(cold.kernels, nullptr);
  EXPECT_EQ(cold.quadrature->order(), 6);

  // Nothing a chunk's cost or the quadrature depends on: hits, served
  // from the very same tables.
  for (const std::string& deck :
       {std::string(kTinyDeck), other_material(kTinyDeck),
        with(kTinyDeck, "dx 0.04  dy 0.04  dz 0.04", "dx 0.1  dy 0.2  dz 0.3"),
        with(kTinyDeck, "it 8  jt 8  kt 8", "it 8  jt 12  kt 4"),
        with(kTinyDeck, "mk 4  mmi 3", "mk 2  mmi 1")}) {
    const PlanCache::Plan p = plan(deck, spe);
    EXPECT_TRUE(p.hit) << deck;
    EXPECT_EQ(p.quadrature, cold.quadrature) << deck;
    EXPECT_EQ(p.kernels, cold.kernels) << deck;
  }
  // The line length, the Sn order and the moment count: misses.
  for (const std::string& deck :
       {with(kTinyDeck, "it 8  jt 8  kt 8", "it 10  jt 8  kt 8"),
        with(kTinyDeck, "sn 6", "sn 4"),
        with(kTinyDeck, "moments 6", "moments 4")}) {
    EXPECT_FALSE(plan(deck, spe).hit) << deck;
    EXPECT_TRUE(plan(deck, spe).hit) << deck;  // now known
  }
  EXPECT_EQ(plan(with(kTinyDeck, "sn 6", "sn 4"), spe).quadrature->order(), 4);

  // A PPE stage prices no chunk: the order's quadrature alone decides.
  const CellSweepConfig ppe = CellSweepConfig::from_stage(
      OptimizationStage::kPpeXlc);
  const std::string s8 =
      with(with(kTinyDeck, "sn 6", "sn 8"), "mmi 3", "mmi 2");
  const PlanCache::Plan p = plan(s8, ppe);
  EXPECT_FALSE(p.hit);
  EXPECT_EQ(p.kernels, nullptr);
  EXPECT_TRUE(plan(s8, ppe).hit);

  const PlanCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 5u);
  EXPECT_EQ(st.hits, 10u);
}

}  // namespace
}  // namespace cellsweep::core
