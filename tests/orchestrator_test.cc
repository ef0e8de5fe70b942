// Tests for the Cell orchestrator: configuration mapping, timing-engine
// invariants, mode equivalence, optimization-ladder properties and the
// local-store budget.
#include <gtest/gtest.h>

#include "cellsim/local_store.h"
#include "core/orchestrator.h"

namespace cellsweep::core {
namespace {

RunReport run_stage(OptimizationStage stage, int cube = 16,
                    RunMode mode = RunMode::kTraceDriven,
                    int iterations = 2) {
  const sweep::Problem p = sweep::Problem::benchmark_cube(cube);
  CellSweepConfig cfg = CellSweepConfig::from_stage(stage);
  cfg.sweep.max_iterations = iterations;
  cfg.sweep.fixup_from_iteration = iterations - 1;
  cfg.sweep.mk = std::min(cfg.sweep.mk, cube);
  while (cube % cfg.sweep.mk != 0) --cfg.sweep.mk;
  CellSweep3D runner(p, cfg);
  return runner.run(mode);
}

TEST(Config, StageMappingIsCumulative) {
  using OS = OptimizationStage;
  const auto initial = CellSweepConfig::from_stage(OS::kSpeInitial);
  EXPECT_TRUE(initial.use_spes);
  EXPECT_EQ(initial.kernel, sweep::KernelKind::kScalar);
  EXPECT_FALSE(initial.aligned_rows);
  EXPECT_FALSE(initial.gotos_eliminated);
  EXPECT_EQ(initial.buffers, 1);
  EXPECT_FALSE(initial.dma_lists);
  EXPECT_EQ(initial.sync, cell::SyncProtocol::kMailbox);

  const auto shipped = CellSweepConfig::from_stage(OS::kSpeLsPoke);
  EXPECT_EQ(shipped.kernel, sweep::KernelKind::kSimd);
  EXPECT_TRUE(shipped.aligned_rows);
  EXPECT_EQ(shipped.buffers, 2);
  EXPECT_TRUE(shipped.dma_lists);
  EXPECT_TRUE(shipped.bank_offsets);
  EXPECT_EQ(shipped.sync, cell::SyncProtocol::kLsPoke);
  EXPECT_EQ(shipped.dma_granularity, 512u);

  const auto ppe = CellSweepConfig::from_stage(OS::kPpeGcc);
  EXPECT_FALSE(ppe.use_spes);
  EXPECT_FALSE(ppe.xlc);

  const auto pipelined = CellSweepConfig::from_stage(OS::kFuturePipelinedDp);
  EXPECT_EQ(pipelined.chip.dp_issue_block_cycles, 1);
  const auto sp = CellSweepConfig::from_stage(OS::kFutureSingle);
  EXPECT_EQ(sp.precision, Precision::kSingle);
}

TEST(Config, StageNamesDistinct) {
  using OS = OptimizationStage;
  EXPECT_STRNE(stage_name(OS::kPpeGcc), stage_name(OS::kPpeXlc));
  EXPECT_NE(std::string(stage_name(OS::kFutureSingle)).find("single"),
            std::string::npos);
}

TEST(Orchestrator, FunctionalAndTraceDrivenTimingIdentical) {
  // The execution-driven and trace-driven modes must produce the same
  // simulated time: the timing depends only on the workload stream.
  const sweep::Problem p = sweep::Problem::benchmark_cube(10);
  CellSweepConfig cfg =
      CellSweepConfig::from_stage(OptimizationStage::kSpeLsPoke);
  cfg.sweep.mk = 5;
  cfg.sweep.max_iterations = 2;
  cfg.sweep.fixup_from_iteration = 1;

  CellSweep3D a(p, cfg), b(p, cfg);
  const RunReport trace = a.run(RunMode::kTraceDriven);
  const RunReport func = b.run(RunMode::kFunctional);
  EXPECT_DOUBLE_EQ(trace.seconds, func.seconds);
  EXPECT_DOUBLE_EQ(trace.traffic_bytes, func.traffic_bytes);
  EXPECT_EQ(trace.chunks, func.chunks);
  EXPECT_FALSE(trace.solve.has_value());
  ASSERT_TRUE(func.solve.has_value());
  EXPECT_EQ(func.solve->iterations, 2);
  EXPECT_GT(func.absorption, 0.0);

  // A solve that converges early is timed over the iterations it ran,
  // on the PPE as on the SPEs: the same as a trace-driven replay of
  // exactly that many iterations.
  using OS = OptimizationStage;
  for (OS stage : {OS::kPpeXlc, OS::kSpeInitial, OS::kSpeLsPoke}) {
    CellSweepConfig conv = CellSweepConfig::from_stage(stage);
    conv.sweep.mk = 5;
    conv.sweep.max_iterations = 30;
    conv.sweep.fixup_from_iteration = 1;
    conv.sweep.epsilon = 1e-3;
    CellSweep3D c(p, conv);
    const RunReport early = c.run(RunMode::kFunctional);
    ASSERT_TRUE(early.solve.has_value()) << stage_name(stage);
    EXPECT_TRUE(early.solve->converged) << stage_name(stage);
    ASSERT_LT(early.solve->iterations, conv.sweep.max_iterations)
        << stage_name(stage);

    conv.sweep.max_iterations = early.solve->iterations;
    CellSweep3D d(p, conv);
    const RunReport replay = d.run(RunMode::kTraceDriven);
    EXPECT_DOUBLE_EQ(replay.seconds, early.seconds) << stage_name(stage);
    EXPECT_DOUBLE_EQ(replay.traffic_bytes, early.traffic_bytes)
        << stage_name(stage);
    EXPECT_EQ(replay.chunks, early.chunks) << stage_name(stage);
  }
}

TEST(Orchestrator, TimingIsDeterministic) {
  const RunReport a = run_stage(OptimizationStage::kSpeLsPoke);
  const RunReport b = run_stage(OptimizationStage::kSpeLsPoke);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.traffic_bytes, b.traffic_bytes);
}

TEST(Orchestrator, LadderIsMonotone) {
  // Each cumulative optimization must not slow the run down.
  using OS = OptimizationStage;
  const OS ladder[] = {OS::kSpeInitial,  OS::kSpeAligned, OS::kSpeBuffered,
                       OS::kSpeSimd,     OS::kSpeDmaLists, OS::kSpeLsPoke};
  double prev = 1e30;
  for (OS s : ladder) {
    const double t = run_stage(s).seconds;
    EXPECT_LE(t, prev * 1.02) << stage_name(s);
    prev = t;
  }
}

TEST(Orchestrator, PpeStagesMuchSlowerThanSpes) {
  const double ppe = run_stage(OptimizationStage::kPpeXlc).seconds;
  const double spe = run_stage(OptimizationStage::kSpeLsPoke).seconds;
  EXPECT_GT(ppe / spe, 5.0);
}

TEST(Orchestrator, XlcBeatsGcc) {
  EXPECT_LT(run_stage(OptimizationStage::kPpeXlc).seconds,
            run_stage(OptimizationStage::kPpeGcc).seconds);
}

TEST(Orchestrator, SimdKernelSpeedsUpRun) {
  EXPECT_LT(run_stage(OptimizationStage::kSpeSimd).seconds,
            run_stage(OptimizationStage::kSpeBuffered).seconds);
}

TEST(Orchestrator, SinglePrecisionBeatsDoubleStages) {
  const double sp = run_stage(OptimizationStage::kFutureSingle).seconds;
  using OS = OptimizationStage;
  for (OS s : {OS::kSpeLsPoke, OS::kFutureBigDma, OS::kFutureDistributed})
    EXPECT_LT(sp, run_stage(s).seconds) << stage_name(s);
}

TEST(Orchestrator, BoundsAreLowerBounds) {
  const RunReport r = run_stage(OptimizationStage::kSpeLsPoke);
  EXPECT_GT(r.memory_bound_s, 0.0);
  EXPECT_GT(r.compute_bound_s, 0.0);
  EXPECT_GE(r.seconds, r.memory_bound_s);
  EXPECT_GE(r.seconds, r.compute_bound_s);
  EXPECT_GE(r.seconds, r.compute_busy_s);
}

TEST(Orchestrator, ReportAccounting) {
  const RunReport r = run_stage(OptimizationStage::kSpeLsPoke, 16,
                                RunMode::kTraceDriven, 3);
  EXPECT_EQ(r.cell_solves, 16ull * 16 * 16 * 48 * 3);
  EXPECT_GT(r.chunks, 0u);
  EXPECT_GT(r.flops, 0u);
  EXPECT_GT(r.dma_commands, 0u);
  EXPECT_GE(r.dma_transfers, r.dma_commands);
  EXPECT_NEAR(r.grind_seconds, r.seconds / r.cell_solves, 1e-15);
  EXPECT_GT(r.achieved_flops_per_s, 0.0);
  EXPECT_GT(r.ls_high_water, 0u);
  EXPECT_LE(r.ls_high_water, 256u * 1024u);
}

TEST(Orchestrator, DmaListsReduceCommandCount) {
  const RunReport lists = run_stage(OptimizationStage::kSpeDmaLists);
  const RunReport indiv = run_stage(OptimizationStage::kSpeSimd);
  EXPECT_LT(lists.dma_commands, indiv.dma_commands / 4);
  // Same logical traffic either way.
  EXPECT_NEAR(lists.traffic_bytes / indiv.traffic_bytes, 1.0, 0.02);
}

TEST(Orchestrator, LocalStoreOverflowDetected) {
  // A line too long for double-buffered staging must throw.
  sweep::Grid g{512, 4, 4, 0.01, 0.01, 0.01};
  sweep::Material m{"m", 1.0, {0.5}, 1.0};
  const sweep::Problem p(g, {m},
                         std::vector<std::uint8_t>(g.cells(), 0));
  CellSweepConfig cfg =
      CellSweepConfig::from_stage(OptimizationStage::kSpeLsPoke);
  cfg.sweep.mk = 4;
  cfg.sweep.max_iterations = 1;
  CellSweep3D runner(p, cfg);
  EXPECT_THROW(runner.run(RunMode::kTraceDriven), cell::LocalStoreOverflow);
}

TEST(Orchestrator, SingleBufferUsesLessLocalStore) {
  const sweep::Problem p = sweep::Problem::benchmark_cube(16);
  CellSweepConfig two =
      CellSweepConfig::from_stage(OptimizationStage::kSpeLsPoke);
  two.sweep.mk = 8;
  two.sweep.max_iterations = 1;
  CellSweepConfig one = two;
  one.buffers = 1;
  CellSweep3D a(p, two), b(p, one);
  const RunReport ra = a.run();
  const RunReport rb = b.run();
  EXPECT_GT(ra.ls_high_water, rb.ls_high_water);
}

TEST(Orchestrator, ValidatesBlocking) {
  const sweep::Problem p = sweep::Problem::benchmark_cube(10);
  CellSweepConfig cfg =
      CellSweepConfig::from_stage(OptimizationStage::kSpeLsPoke);
  cfg.sweep.mk = 3;  // does not divide 10
  EXPECT_THROW(CellSweep3D(p, cfg), std::invalid_argument);
}

TEST(Orchestrator, FunctionalModeSolvesPhysics) {
  const RunReport r = run_stage(OptimizationStage::kSpeLsPoke, 8,
                                RunMode::kFunctional, 3);
  ASSERT_TRUE(r.solve.has_value());
  EXPECT_EQ(r.solve->iterations, 3);
  EXPECT_GT(r.absorption, 0.0);
  EXPECT_GT(r.leakage.total(), 0.0);
}

TEST(Orchestrator, PipelinedDpCutsComputeNotTraffic) {
  const RunReport base = run_stage(OptimizationStage::kFutureDistributed);
  const RunReport fast = run_stage(OptimizationStage::kFuturePipelinedDp);
  EXPECT_LT(fast.compute_busy_s, base.compute_busy_s * 0.7);
  EXPECT_NEAR(fast.traffic_bytes / base.traffic_bytes, 1.0, 0.01);
}

TEST(Orchestrator, FaultFreeRunHasNoFaultSurface) {
  // The fault subsystem must be invisible unless armed: no faults/
  // counter subtree and (pinned in tests/fault_test.cc) byte-identical
  // metrics to a run built before the subsystem existed. This is the
  // contract that keeps bench/baselines/ valid.
  const RunReport r = run_stage(OptimizationStage::kSpeLsPoke);
  EXPECT_EQ(r.counters.find_child("faults"), nullptr);
}

}  // namespace
}  // namespace cellsweep::core
