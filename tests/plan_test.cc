// Property tests for the shared chunk-plan layer: the plan must cover
// every I-line of every pipeline block exactly once, bundle lines into
// chunks of at most kBundleLines, put a line on every diagonal the block
// walker yields, and agree with the trace-driven enumerator (the other
// historical source of this arithmetic).
#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <vector>

#include "core/workload.h"
#include "sweep/kernel_simd.h"
#include "sweep/plan.h"

namespace cellsweep::sweep {
namespace {

SweepConfig make_cfg(int mk, int mmi) {
  SweepConfig cfg;
  cfg.mk = mk;
  cfg.mmi = mmi;
  return cfg;
}

TEST(ChunkPlan, CoversEveryLineOfEveryBlockExactlyOnce) {
  for (auto [mk, mmi, jt] : {std::tuple{10, 3, 50}, {1, 1, 7}, {5, 6, 12},
                             {4, 2, 1}, {2, 3, 9}}) {
    const SweepConfig cfg = make_cfg(mk, mmi);
    std::set<std::tuple<int, int, int>> seen;
    const int ndiags = ChunkPlan::diagonals_per_block(cfg, jt);
    for (int d = 0; d < ndiags; ++d) {
      const ChunkPlan plan(cfg, jt, d);
      for (const LineCoord& lc : plan.lines()) {
        EXPECT_EQ(lc.mh + lc.kk + lc.jj, d);
        EXPECT_TRUE(lc.mh >= 0 && lc.mh < mmi);
        EXPECT_TRUE(lc.kk >= 0 && lc.kk < mk);
        EXPECT_TRUE(lc.jj >= 0 && lc.jj < jt);
        const bool fresh =
            seen.insert(std::tuple{lc.mh, lc.kk, lc.jj}).second;
        EXPECT_TRUE(fresh) << "line visited twice: mh=" << lc.mh
                           << " kk=" << lc.kk << " jj=" << lc.jj;
      }
    }
    EXPECT_EQ(seen.size(),
              static_cast<std::size_t>(mk) * mmi * jt)
        << "mk=" << mk << " mmi=" << mmi << " jt=" << jt;
    // Diagonals past the block's far corner must be empty, and the
    // last in-range diagonal non-empty.
    EXPECT_GT(ChunkPlan::lines_on_diagonal(cfg, jt, ndiags - 1), 0);
    EXPECT_EQ(ChunkPlan::lines_on_diagonal(cfg, jt, ndiags), 0);
  }
}

TEST(ChunkPlan, ChunksPartitionLinesWithBoundedWidth) {
  const SweepConfig cfg = make_cfg(10, 3);
  for (int d = 0; d < ChunkPlan::diagonals_per_block(cfg, 50); ++d) {
    const ChunkPlan plan(cfg, 50, d);
    int next = 0;
    for (const ChunkDesc& ch : plan.chunks()) {
      EXPECT_EQ(ch.index, &ch - plan.chunks().data());
      EXPECT_EQ(ch.first_line, next);
      EXPECT_GE(ch.nlines, 1);
      EXPECT_LE(ch.nlines, kBundleLines);
      // Only the last chunk may be a partial bundle.
      if (ch.index + 1 < static_cast<int>(plan.chunks().size()))
        EXPECT_EQ(ch.nlines, kBundleLines);
      next += ch.nlines;
    }
    EXPECT_EQ(next, plan.nlines());
    EXPECT_EQ(static_cast<int>(plan.chunks().size()),
              ChunkPlan::chunk_count(plan.nlines()));
  }
}

TEST(ChunkPlan, StaticHelpersAgreeWithBuiltPlan) {
  const SweepConfig cfg = make_cfg(5, 6);
  for (int d = 0; d < ChunkPlan::diagonals_per_block(cfg, 12); ++d) {
    const ChunkPlan plan(cfg, 12, d);
    EXPECT_EQ(plan.nlines(), ChunkPlan::lines_on_diagonal(cfg, 12, d));
    for (const ChunkDesc& ch : plan.chunks())
      EXPECT_EQ(ch.nlines, ChunkPlan::chunk_width(plan.nlines(), ch.index));
  }
  EXPECT_EQ(ChunkPlan::chunk_count(0), 0);
  EXPECT_EQ(ChunkPlan::chunk_count(1), 1);
  EXPECT_EQ(ChunkPlan::chunk_count(4), 1);
  EXPECT_EQ(ChunkPlan::chunk_count(5), 2);
  EXPECT_EQ(ChunkPlan::chunk_count(60), 15);
}

TEST(ChunkPlan, EveryDiagonalOfABlockHasALine) {
  // The block walker yields every diagonal in [0, diagonals_per_block)
  // in order, and each holds a line (so a chunk): neither the sweeper
  // nor the walker needs an empty-diagonal case. Every small blocking.
  for (int mk = 1; mk <= 6; ++mk)
    for (int mmi = 1; mmi <= 6; ++mmi)
      for (int jt = 1; jt <= 12; ++jt) {
        const SweepConfig cfg = make_cfg(mk, mmi);
        const int ndiags = ChunkPlan::diagonals_per_block(cfg, jt);
        int next = 0;
        int lines = 0;
        ChunkPlan::for_each_diagonal(
            cfg, jt, DiagonalWork{}, [&](const DiagonalWork& w) {
              EXPECT_EQ(w.diagonal, next++);
              EXPECT_GT(w.nlines, 0);
              EXPECT_EQ(w.nlines, ChunkPlan(cfg, jt, w.diagonal).nlines());
              EXPECT_GT(ChunkPlan::chunk_count(w.nlines), 0);
              lines += w.nlines;
            });
        EXPECT_EQ(next, ndiags);
        EXPECT_EQ(lines, mk * mmi * jt);
        EXPECT_EQ(ChunkPlan::lines_on_diagonal(cfg, jt, ndiags), 0);
        if (HasFailure()) {
          ADD_FAILURE() << "mk=" << mk << " mmi=" << mmi << " jt=" << jt;
          return;
        }
      }
}

TEST(ChunkPlan, AgreesWithTraceDrivenEnumerator) {
  // The enumerator (workload.cc) and the plan layer must report the
  // same line count for every emitted diagonal -- the agreement that
  // keeps on_diagonal's block-contract check silent in correct runs.
  const Grid g = Grid::cube(12);
  const SweepConfig cfg = make_cfg(6, 2);
  core::enumerate_sweep(g, 6, cfg, false, [&](const DiagonalWork& w) {
    EXPECT_EQ(w.nlines, ChunkPlan::lines_on_diagonal(cfg, g.jt, w.diagonal));
    EXPECT_EQ(w.nlines, ChunkPlan(cfg, g.jt, w.diagonal).nlines());
  });
}

}  // namespace
}  // namespace cellsweep::sweep
