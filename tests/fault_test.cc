// Tests for the seeded fault-injection subsystem: the --faults spec
// grammar, the FaultPlan determinism contract (pure hash decisions:
// same seed => identical schedule, across repeated runs and host
// thread counts; different seeds => different schedules), graceful
// degradation (7-of-8 yield, mid-sweep SPE death with re-dispatch),
// and the hard byte-identity guarantee of the fault-free path.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "core/orchestrator.h"
#include "sim/fault.h"
#include "util/thread_pool.h"

namespace cellsweep::core {
namespace {

CellSweepConfig faulted_config(const std::string& spec, int cube = 12,
                               int iterations = 2) {
  CellSweepConfig cfg =
      CellSweepConfig::from_stage(OptimizationStage::kSpeLsPoke);
  cfg.sweep.max_iterations = iterations;
  cfg.sweep.fixup_from_iteration = iterations - 1;
  cfg.sweep.mk = std::min(cfg.sweep.mk, cube);
  while (cube % cfg.sweep.mk != 0) --cfg.sweep.mk;
  if (!spec.empty()) cfg.faults = sim::parse_fault_spec(spec);
  return cfg;
}

RunReport run_with(const std::string& spec, int cube = 12,
                   RunMode mode = RunMode::kTraceDriven) {
  const sweep::Problem p = sweep::Problem::benchmark_cube(cube);
  const CellSweepConfig cfg = faulted_config(spec, cube);
  CellSweep3D runner(p, cfg);
  return runner.run(mode);
}

std::string metrics_of(const RunReport& r) {
  std::ostringstream os;
  write_metrics_json(os, r);
  return os.str();
}

/// Counter @p name of the run's "faults" subtree (0 when no plan was
/// armed).
double fault(const RunReport& r, const char* name) {
  const sim::CounterSet* f = r.counters.find_child("faults");
  return f != nullptr ? f->value(name) : 0.0;
}

void expect_stall_buckets_partition(const RunReport& r) {
  for (const SpeStalls& st : spe_stalls(r)) {
    const double sum = st.busy_s + st.dma_wait_s + st.sync_wait_s + st.idle_s;
    EXPECT_NEAR(sum, r.seconds, 1e-9 * (1.0 + r.seconds));
  }
}

// ---------------------------------------------------------------------
// Spec grammar
// ---------------------------------------------------------------------

TEST(FaultSpec, ParsesFullGrammar) {
  const sim::FaultSpec s = sim::parse_fault_spec(
      "seed=42,dma=0.01,timeout=0.002,drop=0.005,throttle=0.03:0.5,"
      "retries=4,spe=7:down,spe=2:after:200,spe=5:slow:2.5");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_DOUBLE_EQ(s.dma_fail_rate, 0.01);
  EXPECT_DOUBLE_EQ(s.tag_timeout_rate, 0.002);
  EXPECT_DOUBLE_EQ(s.mailbox_drop_rate, 0.005);
  EXPECT_DOUBLE_EQ(s.mic_throttle_rate, 0.03);
  EXPECT_DOUBLE_EQ(s.mic_throttle_factor, 0.5);
  EXPECT_EQ(s.max_dma_retries, 4);
  ASSERT_EQ(s.spes.size(), 3u);
  EXPECT_EQ(s.spes[0].spe, 7);
  EXPECT_EQ(s.spes[0].fail_after_chunks, 0);
  EXPECT_EQ(s.spes[1].spe, 2);
  EXPECT_EQ(s.spes[1].fail_after_chunks, 200);
  EXPECT_EQ(s.spes[2].spe, 5);
  EXPECT_DOUBLE_EQ(s.spes[2].compute_scale, 2.5);
  EXPECT_TRUE(s.any());
}

TEST(FaultSpec, EmptyAndSeedOnlySpecsAreDisabled) {
  EXPECT_FALSE(sim::parse_fault_spec("").any());
  EXPECT_FALSE(sim::parse_fault_spec("seed=7").any());
  EXPECT_FALSE(sim::FaultPlan(sim::parse_fault_spec("seed=7")).enabled());
  EXPECT_FALSE(sim::FaultPlan{}.enabled());
}

TEST(FaultSpec, ToleratesEmptyEntries) {
  const sim::FaultSpec s = sim::parse_fault_spec(",dma=0.5,,seed=3,");
  EXPECT_EQ(s.seed, 3u);
  EXPECT_DOUBLE_EQ(s.dma_fail_rate, 0.5);
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  using sim::FaultSpecError;
  using sim::parse_fault_spec;
  EXPECT_THROW(parse_fault_spec("nonsense"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("bogus=1"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("dma=notanumber"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("dma=1.5"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("dma=-0.1"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("seed=-1"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("retries=31"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("throttle=0.1:0.0"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("throttle=0.1:0.5:9"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("spe=3"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("spe=3:"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("spe=3:down:1"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("spe=3:after"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("spe=3:after:0"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("spe=3:slow:0.5"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("spe=3:explode"), FaultSpecError);
  EXPECT_THROW(parse_fault_spec("spe=-1:down"), FaultSpecError);
}

TEST(FaultSpec, PlanConstructorValidatesDirectSpecs) {
  sim::FaultSpec bad_rate;
  bad_rate.dma_fail_rate = 2.0;
  EXPECT_THROW(sim::FaultPlan{bad_rate}, sim::FaultSpecError);

  sim::FaultSpec bad_factor;
  bad_factor.mic_throttle_factor = 0.0;
  EXPECT_THROW(sim::FaultPlan{bad_factor}, sim::FaultSpecError);

  sim::FaultSpec dup;
  dup.spes.push_back({3, 0, 1.0});
  dup.spes.push_back({3, -1, 2.0});
  EXPECT_THROW(sim::FaultPlan{dup}, sim::FaultSpecError);

  sim::FaultSpec slow_below_one;
  slow_below_one.spes.push_back({1, -1, 0.5});
  EXPECT_THROW(sim::FaultPlan{slow_below_one}, sim::FaultSpecError);
}

// ---------------------------------------------------------------------
// FaultPlan determinism contract
// ---------------------------------------------------------------------

TEST(FaultPlan, DecisionsArePureFunctionsOfCoordinates) {
  const sim::FaultPlan a(sim::parse_fault_spec("seed=9,dma=0.2,timeout=0.1"));
  const sim::FaultPlan b(sim::parse_fault_spec("seed=9,dma=0.2,timeout=0.1"));
  // Drain b in reverse order first: if decisions shared any stream
  // state, the forward comparison below would diverge.
  for (int unit = 7; unit >= 0; --unit)
    for (std::uint64_t seq = 64; seq-- > 0;) {
      (void)b.dma_failures(unit, seq);
      (void)b.tag_timeout(unit, seq);
    }
  for (int unit = 0; unit < 8; ++unit)
    for (std::uint64_t seq = 0; seq < 64; ++seq) {
      EXPECT_EQ(a.dma_failures(unit, seq), b.dma_failures(unit, seq));
      EXPECT_EQ(a.tag_timeout(unit, seq), b.tag_timeout(unit, seq));
    }
}

TEST(FaultPlan, DifferentSeedsGiveDifferentSchedules) {
  const sim::FaultPlan a(sim::parse_fault_spec("seed=1,dma=0.2"));
  const sim::FaultPlan b(sim::parse_fault_spec("seed=2,dma=0.2"));
  int differing = 0;
  for (std::uint64_t seq = 0; seq < 256; ++seq)
    if (a.dma_failures(0, seq) != b.dma_failures(0, seq)) ++differing;
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, DomainsDrawIndependently) {
  const sim::FaultPlan p(
      sim::parse_fault_spec("seed=5,dma=0.5,timeout=0.5,drop=0.5"));
  // Same (unit, seq) coordinates must not produce identical outcomes in
  // every domain (that would mean the domain is ignored in the hash).
  bool any_differ = false;
  for (std::uint64_t seq = 0; seq < 64 && !any_differ; ++seq)
    any_differ = (p.dma_failures(0, seq) > 0) != p.tag_timeout(0, seq);
  EXPECT_TRUE(any_differ);
}

TEST(FaultPlan, SpeHealthQueries) {
  const sim::FaultPlan p(
      sim::parse_fault_spec("spe=7:down,spe=2:after:100,spe=5:slow:3"));
  EXPECT_TRUE(p.spe_disabled(7));
  EXPECT_FALSE(p.spe_disabled(2));
  EXPECT_FALSE(p.spe_disabled(0));
  EXPECT_EQ(p.spe_fail_after(2), 100);
  EXPECT_EQ(p.spe_fail_after(0), -1);
  EXPECT_DOUBLE_EQ(p.spe_compute_scale(5), 3.0);
  EXPECT_DOUBLE_EQ(p.spe_compute_scale(1), 1.0);
}

// ---------------------------------------------------------------------
// Fault-free byte identity
// ---------------------------------------------------------------------

TEST(FaultRun, DisabledPlanIsByteIdenticalToNoPlan) {
  // A spec that names a seed but arms nothing must take the exact
  // fault-free code paths: identical metrics JSON, byte for byte.
  const RunReport plain = run_with("");
  const RunReport disabled = run_with("seed=12345");
  EXPECT_EQ(plain.counters.find_child("faults"), nullptr);
  EXPECT_EQ(disabled.counters.find_child("faults"), nullptr);
  EXPECT_EQ(metrics_of(plain), metrics_of(disabled));
}

TEST(FaultRun, MetricsReportFaultsNullWhenDisabled) {
  const std::string json = metrics_of(run_with(""));
  EXPECT_NE(json.find("\"faults\": null"), std::string::npos);
  EXPECT_NE(json.find("\"schema\": \"cellsweep-metrics-v4\""),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Determinism of faulted runs
// ---------------------------------------------------------------------

TEST(FaultRun, SameSeedSameMetricsAcrossRepeatedRuns) {
  const std::string spec = "seed=42,dma=0.01,timeout=0.005,drop=0.01";
  const RunReport a = run_with(spec);
  const RunReport b = run_with(spec);
  EXPECT_EQ(metrics_of(a), metrics_of(b));
  EXPECT_GT(fault(a, "dma_retry_attempts"), 0.0);
}

TEST(FaultRun, SameSeedSameMetricsAcrossThreadCounts) {
  // The functional sweep may execute chunks on a host thread pool; the
  // fault schedule is a pure hash of the event stream, so the metrics
  // must be byte-identical for any --threads value.
  const sweep::Problem p = sweep::Problem::benchmark_cube(10);
  CellSweepConfig cfg = faulted_config("seed=7,dma=0.01,spe=6:down", 10);
  CellSweep3D one(p, cfg);
  const std::string m1 = metrics_of(one.run(RunMode::kFunctional));
  util::ThreadPool pool(4);
  cfg.sweep.pool = &pool;
  CellSweep3D four(p, cfg);
  const std::string m4 = metrics_of(four.run(RunMode::kFunctional));
  EXPECT_EQ(m1, m4);
}

TEST(FaultRun, FunctionalAndTraceDrivenTimingIdenticalUnderFaults) {
  const sweep::Problem p = sweep::Problem::benchmark_cube(10);
  const CellSweepConfig cfg = faulted_config("seed=3,dma=0.02,spe=1:slow:2",
                                             10);
  CellSweep3D a(p, cfg), b(p, cfg);
  const RunReport trace = a.run(RunMode::kTraceDriven);
  const RunReport func = b.run(RunMode::kFunctional);
  EXPECT_DOUBLE_EQ(trace.seconds, func.seconds);
  EXPECT_EQ(fault(trace, "dma_retry_attempts"),
            fault(func, "dma_retry_attempts"));
}

TEST(FaultRun, DifferentSeedsGiveDifferentRuns) {
  const RunReport a = run_with("seed=1,dma=0.02");
  const RunReport b = run_with("seed=2,dma=0.02");
  EXPECT_TRUE(a.seconds != b.seconds ||
              fault(a, "dma_retry_attempts") !=
                  fault(b, "dma_retry_attempts"));
}

// ---------------------------------------------------------------------
// Degradation mechanics
// ---------------------------------------------------------------------

TEST(FaultRun, DmaFaultsCostTimeAndAreCounted) {
  const RunReport healthy = run_with("");
  const RunReport faulted = run_with("seed=42,dma=0.02");
  EXPECT_GT(fault(faulted, "dma_retry_attempts"), 0.0);
  EXPECT_GT(faulted.seconds, healthy.seconds);
  // Physics-side workload is untouched: same chunks, same flops.
  EXPECT_EQ(faulted.chunks, healthy.chunks);
  EXPECT_EQ(faulted.flops, healthy.flops);
  expect_stall_buckets_partition(faulted);
  // The cost is visible in the counter tree's faults subtree.
  const sim::CounterSet* f = faulted.counters.find_child("faults");
  ASSERT_NE(f, nullptr);
  EXPECT_GT(f->value("dma_retry_attempts"), 0.0);
  EXPECT_GT(f->value("dma_retry_backoff_ticks"), 0.0);
}

TEST(FaultRun, SevenOfEightSpesCompletesWithIdenticalPhysics) {
  const sweep::Problem p = sweep::Problem::benchmark_cube(10);
  const CellSweepConfig healthy_cfg = faulted_config("", 10);
  const CellSweepConfig degraded_cfg = faulted_config("spe=7:down", 10);
  CellSweep3D h(p, healthy_cfg), d(p, degraded_cfg);
  const RunReport healthy = h.run(RunMode::kFunctional);
  const RunReport degraded = d.run(RunMode::kFunctional);

  // Bit-identical physics: degradation only stretches simulated time.
  ASSERT_TRUE(healthy.solve.has_value());
  ASSERT_TRUE(degraded.solve.has_value());
  EXPECT_EQ(degraded.solve->iterations, healthy.solve->iterations);
  EXPECT_EQ(degraded.solve->final_change, healthy.solve->final_change);
  EXPECT_EQ(degraded.absorption, healthy.absorption);
  EXPECT_EQ(degraded.leakage.total(), healthy.leakage.total());
  EXPECT_EQ(degraded.chunks, healthy.chunks);
  EXPECT_EQ(degraded.flops, healthy.flops);

  // The sweep is dependency-chain-bound, so losing one of eight SPEs
  // does not stretch the wavefront at this size (a genuine multicore
  // surprise: the eighth SPE was slack); it must never get FASTER, and
  // the re-distribution is fully visible in the stall buckets -- the
  // survivors absorb SPE 7's kernels, ticking up their busy time.
  EXPECT_GE(degraded.seconds, healthy.seconds);
  EXPECT_EQ(fault(degraded, "spes_disabled"), 1.0);
  EXPECT_EQ(fault(degraded, "spes_failed"), 0.0);
  const std::vector<SpeStalls> hs = spe_stalls(healthy);
  const std::vector<SpeStalls> ds = spe_stalls(degraded);
  ASSERT_EQ(ds.size(), 8u);
  ASSERT_EQ(hs.size(), 8u);
  double healthy_busy = 0.0, degraded_busy = 0.0;
  for (int s = 0; s < 8; ++s) {
    healthy_busy += hs[s].busy_s;
    degraded_busy += ds[s].busy_s;
  }
  EXPECT_NEAR(degraded_busy, healthy_busy, 1e-9 * (1.0 + healthy_busy));
  EXPECT_GT(ds[0].busy_s, hs[0].busy_s);
  EXPECT_DOUBLE_EQ(ds[7].busy_s, 0.0);
  EXPECT_NEAR(ds[7].idle_s, degraded.seconds,
              1e-9 * (1.0 + degraded.seconds));
  expect_stall_buckets_partition(degraded);
  const sim::CounterSet* f = degraded.counters.find_child("faults");
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->value("spes_disabled"), 1.0);
}

TEST(FaultRun, MidSweepFailureRedispatchesToSurvivors) {
  const RunReport healthy = run_with("");
  const RunReport r = run_with("seed=42,spe=3:after:20");
  EXPECT_EQ(fault(r, "spes_failed"), 1.0);
  EXPECT_GE(fault(r, "redispatched_chunks"), 1.0);
  EXPECT_GT(r.seconds, healthy.seconds);
  // Every chunk still ran (on a survivor): workload is conserved.
  EXPECT_EQ(r.chunks, healthy.chunks);
  EXPECT_EQ(r.flops, healthy.flops);
  expect_stall_buckets_partition(r);
  const sim::CounterSet* f = r.counters.find_child("faults");
  ASSERT_NE(f, nullptr);
  EXPECT_DOUBLE_EQ(f->value("spes_failed"), 1.0);
  EXPECT_GT(f->value("failover_ticks"), 0.0);
}

TEST(FaultRun, SlowSpeStretchesRun) {
  const RunReport healthy = run_with("");
  const RunReport r = run_with("spe=0:slow:4");
  EXPECT_GT(r.seconds, healthy.seconds);
  EXPECT_EQ(r.flops, healthy.flops);
  ASSERT_EQ(spe_stalls(r).size(), 8u);
  EXPECT_GT(spe_stalls(r)[0].busy_s, spe_stalls(healthy)[0].busy_s);
  expect_stall_buckets_partition(r);
}

TEST(FaultRun, TagTimeoutsDropsAndThrottlesAreCountedAndCost) {
  const RunReport healthy = run_with("");

  const RunReport timeouts = run_with("seed=9,timeout=0.05");
  EXPECT_GT(fault(timeouts, "tag_timeouts"), 0.0);
  EXPECT_GT(timeouts.seconds, healthy.seconds);

  // Message drops need a centralized protocol with real messages.
  {
    const sweep::Problem p = sweep::Problem::benchmark_cube(12);
    CellSweepConfig cfg = faulted_config("seed=9,drop=0.05", 12);
    cfg.sync = cell::SyncProtocol::kMailbox;
    CellSweepConfig base_cfg = faulted_config("", 12);
    base_cfg.sync = cell::SyncProtocol::kMailbox;
    CellSweep3D faulted(p, cfg), base(p, base_cfg);
    const RunReport rd = faulted.run(RunMode::kTraceDriven);
    const RunReport rb = base.run(RunMode::kTraceDriven);
    EXPECT_GT(fault(rd, "dropped_messages"), 0.0);
    EXPECT_GT(rd.seconds, rb.seconds);
  }

  const RunReport throttled = run_with("seed=9,throttle=0.2:0.25");
  EXPECT_GT(fault(throttled, "mic_throttled_requests"), 0.0);
  EXPECT_GT(throttled.seconds, healthy.seconds);
}

TEST(FaultRun, AllSpesDisabledThrowsFaultError) {
  const sweep::Problem p = sweep::Problem::benchmark_cube(10);
  std::string spec;
  for (int s = 0; s < 8; ++s)
    spec += (s ? "," : "") + std::string("spe=") + std::to_string(s) +
            ":down";
  const CellSweepConfig cfg = faulted_config(spec, 10);
  CellSweep3D runner(p, cfg);
  EXPECT_THROW(runner.run(RunMode::kTraceDriven), sim::FaultError);
}

TEST(FaultRun, RetryCapBoundsWorstCase) {
  // Even at rate 1.0 every command completes after max_dma_retries
  // failed attempts; the run terminates and counts honestly.
  const RunReport r = run_with("seed=1,dma=1.0,retries=2", 8);
  EXPECT_GT(fault(r, "dma_retry_attempts"), 0.0);
  const sim::CounterSet* f = r.counters.find_child("faults");
  ASSERT_NE(f, nullptr);
  // Every command failed exactly twice (the cap).
  EXPECT_DOUBLE_EQ(f->value("dma_retry_attempts"),
                   2.0 * f->value("dma_retried_commands"));
}

}  // namespace
}  // namespace cellsweep::core
