// Seeded randomized soak for the open-system SolveServer (satellite of
// the arrivals/QoS tentpole; also the TSan workhorse in CI). A burst-
// heavy mixed sweep+stencil arrival plan is replayed flat-out into a
// small-queue server with weights, quotas and a fault plan armed while
// a concurrent chaos thread fires cancel() at random ids -- hitting
// jobs mid-queue, mid-run and already-done. The invariant under all of
// that is conservation: no job is lost, duplicated, or double-counted.
//
//   attempts             == submitted + rejected
//   submitted            == completed + failed + cancelled   (drained)
//   drain().size()       == submitted, ids unique, one result per id
//   result category tally== the Stats counters, exactly
//
// The chaos is seeded (util::SplitMix64) so a failure replays.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/arrival.h"
#include "server/arrival_driver.h"
#include "server/solve_server.h"
#include "sim/fault.h"
#include "util/rng.h"

namespace cellsweep::core {
namespace {

// Small trace-driven deck: a few ms per solve, exercises the fault
// plan and the simulated chip (functional mode would bypass faults).
constexpr const char* kTinyDeck =
    "it 8  jt 8  kt 8\n"
    "dx 0.04  dy 0.04  dz 0.04\n"
    "mk 4  mmi 3\n"
    "sn 6  moments 6\n"
    "iterations 2  fixup_from 1\n"
    "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";

// Bigger deck: tens of ms per solve, so the chaos thread can catch
// jobs mid-run and the queue actually backs up against queue_limit.
constexpr const char* kSlowDeck =
    "it 24  jt 24  kt 24\n"
    "dx 0.04  dy 0.04  dz 0.04\n"
    "mk 4  mmi 3\n"
    "sn 6  moments 6\n"
    "iterations 4  fixup_from 1\n"
    "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";

constexpr const char* kTinyStencil =
    "nx 8  ny 8  nz 8\n"
    "bx 4  by 4  bz 4\n"
    "iterations 2\n";

JobRequest request_for(const Arrival& a, std::uint64_t k) {
  JobRequest req;
  req.name = "soak-" + std::to_string(k);
  if (k % 4 == 3) {
    req.kind = JobKind::kStencil;
    req.text = kTinyStencil;
    req.mode = RunMode::kFunctional;
  } else {
    req.kind = JobKind::kSweep;
    req.text = (k % 7 == 5) ? kSlowDeck : kTinyDeck;
    req.mode = RunMode::kTraceDriven;
  }
  // A sprinkle of tight queue deadlines: under the burst some of these
  // expire while queued and land in Stats::cancelled via the deadline
  // path. Which ones expire is timing-dependent; the conservation law
  // must hold regardless.
  if (k % 9 == 4) req.deadline_ms = 1;
  (void)a;
  return req;
}

TEST(SolveServerSoak, SeededChaosConservesEveryJob) {
  const ArrivalPlan plan(parse_arrival_spec(
      "seed=97,tenant=0:rate:500:30,tenant=1:rate:400:30,tenant=2:burst:20"));

  ServerConfig cfg;
  cfg.tenants = 3;
  cfg.host_threads = 2;
  cfg.queue_limit = 12;  // small on purpose: open-system loss is real
  cfg.tenant_weights = {1, 2, 3};
  cfg.tenant_quotas = {0, 6, 4};
  cfg.faults = sim::parse_fault_spec("seed=9,spe=6:down,dma=0.01,retries=4");
  SolveServer server(cfg);

  ArrivalDriver driver(server, plan, request_for, /*time_scale=*/0.0);

  // Chaos: seeded random cancels while the driver floods the server.
  // Targets are sampled from the ids admitted so far, so early ids see
  // repeated attempts (mid-run and already-done hits) and late ids see
  // mid-queue hits. cancel() returning false is the benign "too late"
  // race by contract.
  std::atomic<bool> chaos_stop{false};
  std::uint64_t cancels_won = 0;
  std::thread chaos([&] {
    util::SplitMix64 rng(0xC4A05u);
    while (!chaos_stop.load(std::memory_order_relaxed)) {
      const std::vector<int> ids = driver.ids();
      if (!ids.empty()) {
        const int id = ids[static_cast<std::size_t>(rng()) % ids.size()];
        if (server.cancel(id)) ++cancels_won;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  driver.start();
  driver.join();
  chaos_stop.store(true, std::memory_order_relaxed);
  chaos.join();

  const std::vector<JobResult> results = server.drain();
  const SolveServer::Stats st = server.stats();
  const ArrivalDriver::Stats ds = driver.stats();

  // Every planned arrival was attempted, and the server and the driver
  // agree on what happened at admission.
  EXPECT_EQ(ds.submitted + ds.rejected, plan.total());
  EXPECT_EQ(st.submitted, ds.submitted);
  EXPECT_EQ(st.rejected, ds.rejected);
  EXPECT_GE(ds.submitted, 1u);

  // Conservation: every admitted job landed in exactly one bucket.
  EXPECT_EQ(st.completed + st.failed + st.cancelled, st.submitted);

  // No lost or duplicated jobs: one result per admitted id, exactly.
  ASSERT_EQ(results.size(), st.submitted);
  std::set<int> result_ids;
  for (const JobResult& r : results) result_ids.insert(r.id);
  EXPECT_EQ(result_ids.size(), results.size()) << "duplicate job ids";
  const std::vector<int> admitted = driver.ids();
  ASSERT_EQ(admitted.size(), st.submitted);
  for (int id : admitted) EXPECT_EQ(result_ids.count(id), 1u) << id;

  // The per-result categories re-tally the counters exactly, and every
  // result is internally consistent.
  std::uint64_t ok = 0, failed = 0, cancelled = 0;
  for (const JobResult& r : results) {
    if (r.cancelled) {
      ++cancelled;
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.error.rfind("cancelled:", 0), 0u) << r.error;
      EXPECT_FALSE(r.trace.complete);
    } else if (r.ok) {
      ++ok;
      EXPECT_TRUE(r.trace.complete);
    } else {
      ++failed;
    }
    // wait() after drain() must hand back the same outcome, not a
    // second (duplicated) completion.
    const JobResult again = server.wait(r.id);
    EXPECT_EQ(again.ok, r.ok);
    EXPECT_EQ(again.cancelled, r.cancelled);
  }
  EXPECT_EQ(ok, st.completed);
  EXPECT_EQ(failed, st.failed);
  EXPECT_EQ(cancelled, st.cancelled);
  // No tight relation between cancels_won and st.cancelled is valid:
  // a cancel() that caught a *running* job returns true yet can still
  // lose to completion (the flag is polled per diagonal and between
  // waves), and
  // deadline expiries are server-side cancellations with no cancel()
  // call at all. Conservation above is the invariant; this is just a
  // breadcrumb for the log on failure.
  SCOPED_TRACE("cancels_won=" + std::to_string(cancels_won));

  // The randomized phase cannot guarantee a successful cancel landed,
  // so pin one deterministically: a slow blocker occupies workers
  // while a victim sits queued long enough to cancel for sure.
  std::vector<int> blockers;
  JobRequest slow;
  slow.kind = JobKind::kSweep;
  slow.text = kSlowDeck;
  slow.mode = RunMode::kTraceDriven;
  for (int i = 0; i < cfg.tenants; ++i) {
    slow.name = "blocker-" + std::to_string(i);
    blockers.push_back(server.submit(slow));
  }
  JobRequest victim;
  victim.kind = JobKind::kSweep;
  victim.text = kTinyDeck;
  victim.mode = RunMode::kTraceDriven;
  victim.name = "victim";
  const int victim_id = server.submit(victim);
  EXPECT_TRUE(server.cancel(victim_id));
  const JobResult vr = server.wait(victim_id);
  EXPECT_TRUE(vr.cancelled);
  // The blockers run under the armed fault plan, so exhausted DMA
  // retries may legitimately fail them -- they just must not be
  // cancelled (nobody cancelled them).
  for (int id : blockers) EXPECT_FALSE(server.wait(id).cancelled);

  const SolveServer::Stats fin = server.stats();
  EXPECT_GE(fin.cancelled, 1u);
  EXPECT_EQ(fin.completed + fin.failed + fin.cancelled, fin.submitted);
}

// The deadline knob alone, at soak scale: a queue full of 1 ms
// deadlines behind slow blockers. Every doomed job must resolve as
// cancelled-by-deadline -- never run, never counted failed -- and the
// conservation law must survive a pure-deadline storm.
TEST(SolveServerSoak, DeadlineStormResolvesEveryDoomedJob) {
  ServerConfig cfg;
  cfg.tenants = 2;
  cfg.queue_limit = 64;
  SolveServer server(cfg);

  JobRequest slow;
  slow.kind = JobKind::kSweep;
  slow.text = kSlowDeck;
  slow.mode = RunMode::kTraceDriven;
  std::vector<int> blockers;
  for (int i = 0; i < cfg.tenants; ++i) {
    slow.name = "blocker-" + std::to_string(i);
    blockers.push_back(server.submit(slow));
  }

  std::vector<int> doomed;
  JobRequest d;
  d.kind = JobKind::kSweep;
  d.text = kTinyDeck;
  d.mode = RunMode::kTraceDriven;
  d.deadline_ms = 1;
  for (int i = 0; i < 16; ++i) {
    d.name = "doomed-" + std::to_string(i);
    doomed.push_back(server.submit(d));
  }

  for (int id : blockers) EXPECT_TRUE(server.wait(id).ok);
  std::uint64_t expired = 0;
  for (int id : doomed) {
    const JobResult r = server.wait(id);
    if (!r.cancelled) continue;  // dequeued in time after all
    ++expired;
    EXPECT_NE(r.error.find("deadline"), std::string::npos) << r.error;
    EXPECT_FALSE(r.trace.reached(r.trace.run_start_s));
  }
  // The blockers hold both workers for tens of ms; 1 ms deadlines
  // cannot all survive that.
  EXPECT_GE(expired, 1u);

  const SolveServer::Stats st = server.stats();
  EXPECT_EQ(st.cancelled, expired);
  EXPECT_EQ(st.completed + st.failed + st.cancelled, st.submitted);
}

}  // namespace
}  // namespace cellsweep::core
