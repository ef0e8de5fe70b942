// Tests for the workload model: the standalone enumerator must emit
// exactly the diagonal stream the functional sweeper emits, and the
// transfer plans must reproduce the paper's byte audit.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/workload.h"
#include "sweep/kernel.h"
#include "sweep/problem.h"
#include "sweep/sweeper.h"
#include "util/rng.h"

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

/// The audit the slow way: every iteration, block and diagonal, the
/// diagonal's lines counted cell by cell and its chunks planned one by
/// one.
WorkloadTotals walk_every_diagonal(const sweep::Grid& g, int angles,
                                   const CellSweepConfig& cfg, int nm) {
  WorkloadTotals t;
  const sweep::SweepConfig& sc = cfg.sweep;
  for (int iter = 0; iter < sc.max_iterations; ++iter) {
    const bool fixup = iter >= sc.fixup_from_iteration;
    for (int block = 0; block < 8 * (angles / sc.mmi) * (g.kt / sc.mk);
         ++block)
      for (int d = 0; d < g.jt + sc.mk + sc.mmi - 2; ++d) {
        int lines = 0;
        for (int mh = 0; mh < sc.mmi; ++mh)
          for (int kk = 0; kk < sc.mk; ++kk)
            lines += d - mh - kk >= 0 && d - mh - kk < g.jt ? 1 : 0;
        if (lines == 0) continue;
        ++t.diagonals;
        t.lines += lines;
        t.cell_solves += static_cast<std::uint64_t>(lines) * g.it;
        t.flops += static_cast<std::uint64_t>(lines) * g.it *
                   sweep::flops_per_cell_solve(nm, fixup);
        for (int first = 0; first < lines; first += sweep::kBundleLines) {
          ++t.chunks;
          const ChunkShape shape{std::min(sweep::kBundleLines, lines - first),
                                 g.it, nm,
                                 real_bytes_of(cfg.precision),
                                 cfg.aligned_rows};
          t.bytes += static_cast<double>(plan_chunk(shape).total_bytes());
        }
      }
  }
  return t;
}

TEST(Audit, ClosedFormMatchesDiagonalWalk) {
  // Seeded random shapes: non-cubic grids of 2-11 cells a side,
  // MK | KT, MMI | angles, S2-S8, 1-9 moments, DP and SP, aligned rows
  // on and off, 1-14 iterations, fixups from iteration 0-15.
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    util::SplitMix64 rng(0xa0d17ULL + seed);
    auto in = [&rng](int lo, int hi) {
      return lo + static_cast<int>(rng.next_below(
                      static_cast<std::uint64_t>(hi - lo + 1)));
    };
    auto divisor_of = [&in](int n) {
      std::vector<int> d;
      for (int k = 1; k <= n; ++k)
        if (n % k == 0) d.push_back(k);
      return d[static_cast<std::size_t>(
          in(0, static_cast<int>(d.size()) - 1))];
    };
    sweep::Grid g = sweep::Grid::cube(2);
    g.it = in(2, 11);
    g.jt = in(2, 11);
    g.kt = in(2, 11);
    if (g.it == g.jt && g.jt == g.kt) g.it = g.it == 11 ? 10 : g.it + 1;
    const int sn = 2 * in(1, 4);
    const int angles = sn * (sn + 2) / 8;
    CellSweepConfig cfg =
        CellSweepConfig::from_stage(OptimizationStage::kSpeLsPoke);
    cfg.sweep.mk = divisor_of(g.kt);
    cfg.sweep.mmi = divisor_of(angles);
    const int nm = in(1, 9);
    cfg.precision = in(0, 1) == 0 ? Precision::kDouble : Precision::kSingle;
    cfg.aligned_rows = in(0, 1) == 1;
    cfg.sweep.max_iterations = in(1, 14);
    cfg.sweep.fixup_from_iteration = in(0, 15);

    const WorkloadTotals want = walk_every_diagonal(g, angles, cfg, nm);
    const WorkloadTotals got = audit_workload(g, angles, cfg, nm);
    const std::string what = "seed " + std::to_string(seed);
    EXPECT_EQ(got.lines, want.lines) << what;
    EXPECT_EQ(got.chunks, want.chunks) << what;
    EXPECT_EQ(got.cell_solves, want.cell_solves) << what;
    EXPECT_EQ(got.diagonals, want.diagonals) << what;
    EXPECT_TRUE(got.bytes == want.bytes)
        << what << ": " << got.bytes << " != " << want.bytes;
    EXPECT_EQ(got.flops, want.flops) << what;
    if (HasFailure()) return;  // the first failing seed is enough
  }
}

}  // namespace
}  // namespace cellsweep::core
