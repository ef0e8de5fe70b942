// core::StreamingPipeline under a synthetic identity workload: chunks
// with hand-written transfer plans and kernel prices, so every
// invariant of the streaming discipline (counter partition, hazard
// cleanliness, observability purity) is checked independently of any
// real workload's arithmetic.
#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/diagnostics.h"
#include "analysis/hazard.h"
#include "cellsim/local_store.h"
#include "core/spe_allocator.h"
#include "core/streaming_pipeline.h"
#include "sim/trace.h"

namespace cellsweep {
namespace {

core::TransferPlan tiny_plan() {
  core::TransferPlan plan;
  plan.row_bytes = 512;
  plan.bulk_get_rows = 8;
  plan.face_get_rows = 2;
  plan.put_rows = 4;
  plan.extra_get_bytes = 64;
  plan.extra_put_bytes = 16;
  plan.ls_buffer_bytes = 16 * 1024;
  return plan;
}

/// A batch of @p n identical chunks: fixed kernel price, one unit of
/// work each. The "identity" workload -- no physics, pure streaming.
std::vector<core::StreamChunkSpec> identity_batch(int n) {
  std::vector<core::StreamChunkSpec> specs;
  specs.reserve(static_cast<std::size_t>(n));
  for (int c = 0; c < n; ++c) {
    core::StreamChunkSpec s;
    s.index = c;
    s.plan = tiny_plan();
    s.kernel_cycles = 5000;
    s.kernel_name = "identity";
    s.flops = 1000;
    s.work_units = 1;
    s.stats.kernels = 1;
    s.stats.cycles = 5000;
    s.stats.instructions = 1200;
    s.stats.issue_cycles = 900;
    s.stats.dual_issues = 300;
    s.stats.even_pipe_insts = 800;
    s.stats.odd_pipe_insts = 400;
    s.stats.dep_stall_cycles = 4100;
    s.stats.flops = 1000;
    specs.push_back(s);
  }
  return specs;
}

/// Chain dependency: chunk c of a batch waits on chunk c of the
/// previous batch (plus the barrier floor, plus the protocol hop).
sim::Tick chain_deps(const core::UpstreamView& u, int c) {
  if (u.ready.empty()) return u.barrier;
  return std::max(u.barrier, u.ready[static_cast<std::size_t>(c)] + u.hop);
}

/// Trace sink that calls `on_kernel` with every kernel span (category
/// "compute": the pipeline emits one per chunk as it schedules the
/// chunk's kernel) and forwards every event to `next` when set.
struct KernelTap final : sim::TraceSink {
  std::function<void(sim::Tick, sim::Tick)> on_kernel;
  sim::TraceSink* next = nullptr;

  int track(const std::string& name) override {
    return next ? next->track(name) : 0;
  }
  void span(int track, const char* name, const char* category,
            sim::Tick start, sim::Tick end) override {
    if (std::string_view(category) == "compute") on_kernel(start, end);
    if (next) next->span(track, name, category, start, end);
  }
  void instant(int track, const char* name, const char* category,
               sim::Tick at) override {
    if (next) next->instant(track, name, category, at);
  }
  void counter(int track, const char* name, sim::Tick at,
               double value) override {
    if (next) next->counter(track, name, at, value);
  }
};

core::RunReport run_identity(const core::StreamConfig& cfg,
                             int batches = 4, int chunks = 24) {
  core::LsPlacement placement;
  placement.resident.emplace_back("identity-constants", 2048);
  placement.buffer_bytes = tiny_plan().ls_buffer_bytes;
  core::StreamingPipeline pipeline(cfg, placement);
  const std::vector<core::StreamChunkSpec> batch = identity_batch(chunks);
  for (int b = 0; b < batches; ++b) {
    if (b == batches / 2) pipeline.memory_pass("identity-pass", 1 << 20);
    pipeline.run_batch(batch, chain_deps, b == 0);
  }
  return pipeline.finish();
}

TEST(StreamingPipeline, CountersExactlyPartitionRunTicks) {
  const core::RunReport r = run_identity(core::StreamConfig{});
  const double run_ticks = r.counters.value("run_ticks");
  ASSERT_GT(run_ticks, 0.0);
  // Tick arithmetic stays far below 2^53, so the per-SPE engine buckets
  // must partition the run EXACTLY -- any drift is an accounting leak.
  int spes = 0;
  for (const sim::CounterSet& child : r.counters.children()) {
    if (child.name().rfind("spe", 0) != 0 || child.name() == "spe_total")
      continue;
    ++spes;
    const double accounted =
        child.value("busy_ticks") + child.value("dma_wait_ticks") +
        child.value("sync_wait_ticks") + child.value("idle_ticks");
    EXPECT_EQ(accounted, run_ticks) << child.name();
  }
  EXPECT_EQ(spes, core::StreamConfig{}.chip.num_spes);
  // Workload totals flow through unchanged.
  EXPECT_EQ(r.counters.value("chunks"), 4.0 * 24.0);
  EXPECT_EQ(r.counters.value("cell_solves"), 4.0 * 24.0);
  EXPECT_EQ(r.counters.value("flops"), 4.0 * 24.0 * 1000.0);
  EXPECT_EQ(r.cell_solves, 4u * 24u);
}

TEST(StreamingPipeline, HazardCleanUnderEveryProtocol) {
  for (cell::SyncProtocol sync :
       {cell::SyncProtocol::kMailbox, cell::SyncProtocol::kLsPoke,
        cell::SyncProtocol::kAtomicDistributed}) {
    core::StreamConfig cfg;
    cfg.sync = sync;
    analysis::Diagnostics diags;
    analysis::HazardChecker checker(&diags, cfg.chip);
    cfg.hazard = &checker;
    run_identity(cfg);
    EXPECT_FALSE(diags.has_errors())
        << "protocol " << cell::sync_protocol_name(sync) << ": "
        << (diags.entries().empty() ? "" : diags.entries()[0].to_string());
  }
}

TEST(StreamingPipeline, SinksDoNotPerturbTiming) {
  const core::RunReport bare = run_identity(core::StreamConfig{});

  // The whole observability stack: a kernel tap in front of a
  // profiler in front of a trace writer.
  core::StreamConfig cfg;
  sim::ChromeTraceWriter writer;
  sim::TimeSlicedProfiler profiler(32);
  profiler.forward_to(&writer);
  std::uint64_t kernels = 0;
  KernelTap tap;
  tap.on_kernel = [&kernels](sim::Tick start, sim::Tick end) {
    ++kernels;
    EXPECT_LT(start, end);
  };
  tap.next = &profiler;
  cfg.trace_sink = &tap;
  const core::RunReport traced = run_identity(cfg);

  // Observation only: every simulated number is bit-identical with the
  // full observability stack attached.
  EXPECT_EQ(traced.seconds, bare.seconds);
  EXPECT_EQ(traced.counters.value("run_ticks"),
            bare.counters.value("run_ticks"));
  EXPECT_EQ(traced.traffic_bytes, bare.traffic_bytes);
  EXPECT_EQ(traced.dma_commands, bare.dma_commands);
  EXPECT_EQ(kernels, 4u * 24u);
  EXPECT_GT(writer.event_count(), 0u);
  EXPECT_FALSE(profiler.profile().empty());
}

TEST(StreamingPipeline, HorizonIsMonotoneAndGated) {
  core::LsPlacement placement;
  placement.buffer_bytes = tiny_plan().ls_buffer_bytes;
  core::StreamingPipeline pipeline(core::StreamConfig{}, placement);
  const std::vector<core::StreamChunkSpec> batch = identity_batch(8);
  pipeline.run_batch(batch, chain_deps, true);
  const sim::Tick after_first = pipeline.horizon();
  EXPECT_GT(after_first, 0);
  pipeline.gate(after_first + 12345);
  EXPECT_GE(pipeline.horizon(), after_first + 12345);
  pipeline.run_batch(batch, chain_deps, false);
  EXPECT_GT(pipeline.horizon(), after_first + 12345);
  pipeline.finish();
}

TEST(StreamingPipeline, SoloAllocatorRunIsByteIdenticalToNoAllocator) {
  const core::RunReport bare = run_identity(core::StreamConfig{});

  // A solo tenant on a shared allocator keeps the whole chip (no
  // pressure, no shrink), so every simulated number must be
  // bit-identical to the allocator-free build -- the contract that
  // keeps the single-tenant perf baselines valid.
  core::StreamConfig cfg;
  core::SpeAllocator alloc(cfg.chip.num_spes);
  cfg.spe_allocator = &alloc;
  const core::RunReport shared = run_identity(cfg);
  EXPECT_EQ(shared.seconds, bare.seconds);
  EXPECT_EQ(shared.traffic_bytes, bare.traffic_bytes);
  EXPECT_EQ(shared.dma_commands, bare.dma_commands);
  EXPECT_EQ(shared.counters.value("run_ticks"),
            bare.counters.value("run_ticks"));
  EXPECT_EQ(alloc.free_count(), cfg.chip.num_spes);  // released at finish

  // The allocator counter subtree is gated exactly like "faults": only
  // an allocator-attached run grows one.
  EXPECT_EQ(bare.counters.find_child("allocator"), nullptr);
  const sim::CounterSet* a = shared.counters.find_child("allocator");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->value("spes_final"), cfg.chip.num_spes);
  EXPECT_EQ(a->value("spes_min"), cfg.chip.num_spes);
  EXPECT_EQ(a->value("spes_max"), cfg.chip.num_spes);
  EXPECT_EQ(a->value("rebalance_shrinks"), 0.0);
}

TEST(StreamingPipeline, SqueezedTenantStillCompletesAllWork) {
  // Pin half the chip under a blocker claim: the pipeline must run the
  // identity workload to completion on the remaining SPEs, slower but
  // with identical workload totals.
  const core::RunReport bare = run_identity(core::StreamConfig{});
  core::StreamConfig cfg;
  core::SpeAllocator alloc(cfg.chip.num_spes);
  core::SpeAllocator::Claim blocker =
      alloc.claim(cfg.chip.num_spes / 2, cfg.chip.num_spes / 2);
  cfg.spe_allocator = &alloc;
  const core::RunReport squeezed = run_identity(cfg);
  alloc.release(blocker);
  EXPECT_EQ(squeezed.chunks, bare.chunks);
  EXPECT_EQ(squeezed.flops, bare.flops);
  EXPECT_EQ(squeezed.traffic_bytes, bare.traffic_bytes);
  EXPECT_GE(squeezed.seconds, bare.seconds);
  const sim::CounterSet* a = squeezed.counters.find_child("allocator");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->value("spes_max"), cfg.chip.num_spes / 2.0);
}

TEST(StreamingPipeline, AllocatorWidthMismatchThrows) {
  core::StreamConfig cfg;
  core::SpeAllocator narrow(cfg.chip.num_spes + 1);
  cfg.spe_allocator = &narrow;
  core::LsPlacement placement;
  placement.buffer_bytes = tiny_plan().ls_buffer_bytes;
  EXPECT_THROW(core::StreamingPipeline(cfg, placement),
               std::invalid_argument);
}

TEST(StreamingPipeline, TwoPipelinesShareOneChipUnderPressure) {
  // Two tenants on one allocator, run from two host threads. Timing
  // depends on host interleaving (who yields when), but both runs must
  // complete all their work and release every SPE.
  core::SpeAllocator alloc(core::StreamConfig{}.chip.num_spes);
  core::RunReport r1, r2;
  std::thread t1([&] {
    core::StreamConfig cfg;
    cfg.spe_allocator = &alloc;
    r1 = run_identity(cfg, 8, 24);
  });
  std::thread t2([&] {
    core::StreamConfig cfg;
    cfg.spe_allocator = &alloc;
    r2 = run_identity(cfg, 8, 24);
  });
  t1.join();
  t2.join();
  const core::RunReport bare = run_identity(core::StreamConfig{}, 8, 24);
  for (const core::RunReport* r : {&r1, &r2}) {
    EXPECT_EQ(r->chunks, bare.chunks);
    EXPECT_EQ(r->flops, bare.flops);
    EXPECT_EQ(r->traffic_bytes, bare.traffic_bytes);
  }
  EXPECT_EQ(alloc.free_count(), alloc.num_spes());
  EXPECT_GE(alloc.stats().claims, 2u);
}

TEST(StreamingPipeline, CancelFlagAbortsBetweenWavesAndReleasesTheChip) {
  core::SpeAllocator alloc(core::StreamConfig{}.chip.num_spes);
  core::StreamConfig cfg;
  cfg.spe_allocator = &alloc;
  std::atomic<bool> cancel{false};
  cfg.cancel = &cancel;

  // An armed-but-never-set flag changes nothing observable.
  const core::RunReport bare = run_identity(core::StreamConfig{});
  const core::RunReport flagged = run_identity(cfg);
  EXPECT_EQ(flagged.seconds, bare.seconds);
  EXPECT_EQ(flagged.counters.value("run_ticks"),
            bare.counters.value("run_ticks"));

  // A set flag aborts at the first wave boundary; the claim must still
  // be released on the unwind path (no SPE leaks past the exception).
  cancel.store(true);
  core::LsPlacement placement;
  placement.resident.emplace_back("identity-constants", 2048);
  placement.buffer_bytes = tiny_plan().ls_buffer_bytes;
  {
    core::StreamingPipeline pipeline(cfg, placement);
    const std::vector<core::StreamChunkSpec> batch = identity_batch(24);
    EXPECT_THROW(pipeline.run_batch(batch, chain_deps, true),
                 core::RunCancelled);
  }
  EXPECT_EQ(alloc.free_count(), alloc.num_spes());
}

TEST(StreamingPipeline, HigherWeightWaiterPreemptsBetweenChunks) {
  // A weight-1 run holds the chip; a weight-3 claim arrives while a
  // batch is in flight (a claim queued *before* the batch would be
  // served by the batch-boundary rebalance instead). The pipeline must
  // yield within the batch -- chunk granularity, not the next batch
  // boundary -- finish all its work on the narrowed claim, and count
  // the preemption.
  core::SpeAllocator alloc(core::StreamConfig{}.chip.num_spes);
  core::SpeAllocator::Claim heavy;
  std::atomic<bool> granted{false};
  std::thread claimant;
  std::uint64_t chunks_seen = 0;
  // The tap runs host-side between simulated chunks: launch the heavy
  // claim a few chunks into the first wave, then hold the pipeline
  // thread (pure host time, no simulated tick) until the claimant is
  // visibly queued -- so the next inter-wave check reliably sees it.
  KernelTap tap;
  tap.on_kernel = [&](sim::Tick, sim::Tick) {
    if (++chunks_seen != 4) return;
    claimant = std::thread([&] {
      heavy = alloc.claim(1, 4, /*weight=*/3);
      granted.store(true);
    });
    for (int spin = 0; spin < 10000 && !alloc.pressure(); ++spin)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };
  core::StreamConfig cfg;
  cfg.spe_allocator = &alloc;
  cfg.claim_weight = 1;
  cfg.trace_sink = &tap;

  core::LsPlacement placement;
  placement.resident.emplace_back("identity-constants", 2048);
  placement.buffer_bytes = tiny_plan().ls_buffer_bytes;
  core::StreamingPipeline pipeline(cfg, placement);  // claims all 8
  const std::vector<core::StreamChunkSpec> batch = identity_batch(24);
  for (int b = 0; b < 4; ++b) pipeline.run_batch(batch, chain_deps, b == 0);
  const core::RunReport r = pipeline.finish();
  claimant.join();
  EXPECT_TRUE(granted.load());
  alloc.release(heavy);

  // All work completed despite the mid-batch squeeze...
  EXPECT_EQ(r.chunks, 4u * 24u);
  EXPECT_EQ(r.flops, 4u * 24u * 1000u);
  // ... and the preemption is visible in the allocator subtree: the
  // run shrank below the full chip at least once, between chunks.
  const sim::CounterSet* a = r.counters.find_child("allocator");
  ASSERT_NE(a, nullptr);
  EXPECT_GE(a->value("preempt_yields"), 1.0);
  EXPECT_LT(a->value("spes_min"), core::StreamConfig{}.chip.num_spes);
  EXPECT_EQ(alloc.free_count(), alloc.num_spes());
}

TEST(StreamingPipeline, OverfullPlacementThrows) {
  core::StreamConfig cfg;
  core::LsPlacement placement;
  placement.buffer_bytes = cfg.chip.local_store_bytes;  // cannot fit
  EXPECT_THROW(core::StreamingPipeline(cfg, placement),
               cell::LocalStoreOverflow);
}

}  // namespace
}  // namespace cellsweep
