// Tests for the workload model: the standalone enumerator must emit
// exactly the diagonal stream the functional sweeper emits, and the
// transfer plans must reproduce the paper's byte audit.
#include <gtest/gtest.h>

#include <vector>

#include "core/workload.h"
#include "sweep/problem.h"
#include "sweep/sweeper.h"

namespace cellsweep::core {
namespace {

TEST(TransferPlan, RowInventoryPerLine) {
  // Per line: bulk gets = 2*nm+1 rows, faces = 2, puts = nm+2.
  const TransferPlan plan = plan_chunk(ChunkShape{4, 50, 6, 8, true});
  EXPECT_EQ(plan.bulk_get_rows, 4 * 13);
  EXPECT_EQ(plan.face_get_rows, 4 * 2);
  EXPECT_EQ(plan.put_rows, 4 * 8);
  EXPECT_EQ(plan.row_bytes, 512u);  // padded 50-double row
}

TEST(TransferPlan, UnalignedRowsAre16ByteMultiples) {
  const TransferPlan plan = plan_chunk(ChunkShape{4, 50, 6, 8, false});
  EXPECT_EQ(plan.row_bytes, 400u);
  const TransferPlan odd = plan_chunk(ChunkShape{4, 45, 6, 8, false});
  EXPECT_EQ(odd.row_bytes % 16, 0u);
}

TEST(TransferPlan, BytesAddUp) {
  const TransferPlan plan = plan_chunk(ChunkShape{4, 50, 6, 8, true});
  EXPECT_EQ(plan.get_bytes(), plan.bulk_get_bytes() + plan.face_get_bytes());
  EXPECT_EQ(plan.total_bytes(), plan.get_bytes() + plan.put_bytes());
  EXPECT_GT(plan.ls_buffer_bytes, plan.bulk_get_bytes());
}

TEST(TransferPlan, SinglePrecisionHalvesRows) {
  const TransferPlan dp = plan_chunk(ChunkShape{4, 50, 6, 8, true});
  const TransferPlan sp = plan_chunk(ChunkShape{4, 50, 6, 4, true});
  EXPECT_EQ(sp.row_bytes, 256u);
  EXPECT_EQ(sp.bulk_get_rows, dp.bulk_get_rows);  // same row count
  EXPECT_LT(sp.total_bytes(), dp.total_bytes());
}

TEST(ChunkSplitting, MatchesBundleSize) {
  EXPECT_EQ(sweep::ChunkPlan::chunk_count(1), 1);
  EXPECT_EQ(sweep::ChunkPlan::chunk_count(4), 1);
  EXPECT_EQ(sweep::ChunkPlan::chunk_count(5), 2);
  EXPECT_EQ(sweep::ChunkPlan::chunk_count(60), 15);
}

TEST(Enumerator, MatchesFunctionalSweeperStream) {
  // The trace-driven enumerator must produce the identical DiagonalWork
  // stream as the functional sweep (same order, same fields).
  const sweep::Problem p = sweep::Problem::benchmark_cube(10);
  sweep::SnQuadrature quad(6);
  sweep::SweepConfig cfg;
  cfg.mk = 5;
  cfg.mmi = 3;

  std::vector<sweep::DiagonalWork> functional;
  sweep::SweepState<double> state(p, quad, 2, sweep::kBenchmarkMoments);
  state.build_source();
  state.sweep(cfg, /*fixup=*/true,
              [&](const sweep::DiagonalWork& w) { functional.push_back(w); });

  std::vector<sweep::DiagonalWork> enumerated;
  enumerate_sweep(p.grid(), quad.angles_per_octant(), cfg, /*fixup=*/true,
                  [&](const sweep::DiagonalWork& w) {
                    enumerated.push_back(w);
                  });

  ASSERT_EQ(functional.size(), enumerated.size());
  for (std::size_t d = 0; d < functional.size(); ++d) {
    EXPECT_EQ(functional[d].octant, enumerated[d].octant) << d;
    EXPECT_EQ(functional[d].ablock, enumerated[d].ablock) << d;
    EXPECT_EQ(functional[d].kblock, enumerated[d].kblock) << d;
    EXPECT_EQ(functional[d].diagonal, enumerated[d].diagonal) << d;
    EXPECT_EQ(functional[d].nlines, enumerated[d].nlines) << d;
    EXPECT_EQ(functional[d].it, enumerated[d].it) << d;
    EXPECT_EQ(functional[d].fixup, enumerated[d].fixup) << d;
  }
}

TEST(Enumerator, LineCountInvariantAcrossBlocking) {
  const sweep::Grid g = sweep::Grid::cube(12);
  for (auto [mk, mmi] : {std::pair{1, 1}, {4, 3}, {12, 6}, {6, 2}}) {
    sweep::SweepConfig cfg;
    cfg.mk = mk;
    cfg.mmi = mmi;
    std::uint64_t lines = 0;
    enumerate_sweep(g, 6, cfg, false, [&](const sweep::DiagonalWork& w) {
      lines += w.nlines;
    });
    EXPECT_EQ(lines, 8u * 6u * 12u * 12u) << mk << "," << mmi;
  }
}

TEST(Enumerator, DiagonalWidthBounded) {
  const sweep::Grid g = sweep::Grid::cube(20);
  sweep::SweepConfig cfg;
  cfg.mk = 10;
  cfg.mmi = 3;
  int max_width = 0;
  enumerate_sweep(g, 6, cfg, false, [&](const sweep::DiagonalWork& w) {
    max_width = std::max(max_width, w.nlines);
  });
  EXPECT_EQ(max_width, cfg.mk * cfg.mmi);
}

TEST(Audit, FiftyCubedTrafficMatchesPaper) {
  // The Section 6 audit: "the SPEs transfer 17.6 Gbytes of data" for
  // the 50-cubed run. Our moment set reproduces that within ~5%.
  CellSweepConfig cfg = CellSweepConfig::from_stage(
      OptimizationStage::kSpeLsPoke);
  const WorkloadTotals totals = audit_workload(
      sweep::Grid::cube(50), 6, cfg, sweep::kBenchmarkMoments);
  EXPECT_NEAR(totals.bytes / 1e9, 17.6, 1.5);
  EXPECT_EQ(totals.cell_solves, 125000ull * 48 * 12);
  EXPECT_EQ(totals.lines, 50ull * 50 * 48 * 12);
}

TEST(Audit, FixupScheduleCountsInFlops) {
  CellSweepConfig cfg =
      CellSweepConfig::from_stage(OptimizationStage::kSpeLsPoke);
  cfg.sweep.max_iterations = 4;
  cfg.sweep.fixup_from_iteration = 2;
  const WorkloadTotals with_fixups =
      audit_workload(sweep::Grid::cube(10), 6, cfg, 6);
  cfg.sweep.fixup_from_iteration = 99;
  const WorkloadTotals without =
      audit_workload(sweep::Grid::cube(10), 6, cfg, 6);
  EXPECT_GT(with_fixups.flops, without.flops);
  EXPECT_EQ(with_fixups.bytes, without.bytes);
}

TEST(Audit, SinglePrecisionHalvesTraffic) {
  CellSweepConfig dp =
      CellSweepConfig::from_stage(OptimizationStage::kSpeLsPoke);
  CellSweepConfig sp = dp;
  sp.precision = Precision::kSingle;
  const WorkloadTotals tdp = audit_workload(sweep::Grid::cube(20), 6, dp, 6);
  const WorkloadTotals tsp = audit_workload(sweep::Grid::cube(20), 6, sp, 6);
  EXPECT_NEAR(tsp.bytes / tdp.bytes, 0.5, 0.05);
}

}  // namespace
}  // namespace cellsweep::core
