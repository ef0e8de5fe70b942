// Tests for the trace-driven kernel cost model: the component behind
// the paper's Section 5.1 cycle counts.
#include <gtest/gtest.h>

#include <latch>
#include <thread>
#include <tuple>
#include <vector>

#include "core/kernel_timing.h"

namespace cellsweep::core {
namespace {

class KernelTimingTest : public ::testing::Test {
 protected:
  cell::CellSpec spec_;
  KernelCostModel model_{spec_};
};

TEST_F(KernelTimingTest, SimdTraceHasExpectedComposition) {
  spu::Trace trace;
  model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false, &trace);
  EXPECT_GT(trace.count(spu::Op::kFmaDouble), 0u);
  EXPECT_GT(trace.count(spu::Op::kLoad), 0u);
  EXPECT_GT(trace.count(spu::Op::kStore), 0u);
  EXPECT_GT(trace.count(spu::Op::kShuffle), 0u);
  EXPECT_EQ(trace.count(spu::Op::kFmaSingle), 0u);  // DP chunk
  EXPECT_GT(trace.flops, 0u);
}

TEST_F(KernelTimingTest, Section51CycleShape) {
  // Paper: the DP kernel executes 216 flops in 590 cycles per
  // four-cell step with fixups off, 1690 with fixups on, and roughly
  // 5% of cycles dual-issue. Our trace-driven reproduction must land
  // in the same regime (documented in EXPERIMENTS.md).
  const auto off =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  const double cyc_per_step = static_cast<double>(off.cycles) / 50.0;
  const double flops_per_step = static_cast<double>(off.flops) / 50.0;
  EXPECT_GT(cyc_per_step, 400.0);
  EXPECT_LT(cyc_per_step, 800.0);
  EXPECT_GT(flops_per_step, 140.0);
  EXPECT_LT(flops_per_step, 260.0);

  const auto on =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, true);
  const double on_per_step = static_cast<double>(on.cycles) / 50.0;
  EXPECT_GT(on_per_step, 2.0 * cyc_per_step);   // fixups are expensive
  EXPECT_LT(on_per_step, 4.0 * cyc_per_step);
}

TEST_F(KernelTimingTest, DpEfficiencyNearPaper) {
  // 64% of the DP peak (4 flops / 7 cycles) with fixups off.
  const auto off =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  const double peak = 4.0 / 7.0;
  const double eff = off.flops_per_cycle() / peak;
  EXPECT_GT(eff, 0.40);
  EXPECT_LT(eff, 0.80);
}

TEST_F(KernelTimingTest, SinglePrecisionMuchFaster) {
  const auto dp =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  const auto sp =
      model_.schedule_simd_chunk(Precision::kSingle, 4, 50, 6, false);
  EXPECT_LT(sp.cycles * 3, dp.cycles);  // SP is fully pipelined
}

TEST_F(KernelTimingTest, ScalarSlowerThanSimd) {
  const auto simd =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  const auto scalar = model_.schedule_scalar_chunk(Precision::kDouble, 4, 50,
                                                   6, false, true);
  EXPECT_GT(scalar.cycles, 2 * simd.cycles);
}

TEST_F(KernelTimingTest, GotoEliminationHelpsScalar) {
  const auto with_gotos = model_.schedule_scalar_chunk(
      Precision::kDouble, 4, 50, 6, false, /*gotos_eliminated=*/false);
  const auto without = model_.schedule_scalar_chunk(
      Precision::kDouble, 4, 50, 6, false, /*gotos_eliminated=*/true);
  EXPECT_GT(with_gotos.cycles, without.cycles);
  // The difference is the branch-flush penalty: order 100 cycles/cell.
  const double per_cell =
      static_cast<double>(with_gotos.cycles - without.cycles) / 200.0;
  EXPECT_GT(per_cell, 50.0);
  EXPECT_LT(per_cell, 300.0);
}

TEST_F(KernelTimingTest, FullyPipelinedDpCutsCycles) {
  KernelCostModel fast(cell::fully_pipelined_dp_spec());
  const auto slow_r =
      model_.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  const auto fast_r =
      fast.schedule_simd_chunk(Precision::kDouble, 4, 50, 6, false);
  EXPECT_LT(fast_r.cycles, slow_r.cycles * 0.7);
}

TEST_F(KernelTimingTest, CostCacheConsistent) {
  const ChunkCost& a = model_.chunk_cost(sweep::KernelKind::kSimd,
                                         Precision::kDouble, 4, 50, 6, false,
                                         true);
  const ChunkCost& b = model_.chunk_cost(sweep::KernelKind::kSimd,
                                         Precision::kDouble, 4, 50, 6, false,
                                         true);
  EXPECT_EQ(&a, &b);  // cached entry reused
  EXPECT_GT(a.cycles, 0.0);
  EXPECT_GT(a.flops, 0u);
}

TEST_F(KernelTimingTest, CyclesScaleWithLines) {
  const ChunkCost& one = model_.chunk_cost(
      sweep::KernelKind::kSimd, Precision::kDouble, 1, 50, 6, false, true);
  const ChunkCost& four = model_.chunk_cost(
      sweep::KernelKind::kSimd, Precision::kDouble, 4, 50, 6, false, true);
  // A one-line bundle still executes full-width vector ops (inactive
  // lanes carry dummies), so flops scale sublinearly with lines...
  EXPECT_GT(four.flops, one.flops);
  EXPECT_LE(four.flops, 4 * one.flops);
  // ...and four bundled lines cost far less than 4x one line (the whole
  // point of the logical-thread vectorization).
  EXPECT_LT(four.cycles, 3.0 * one.cycles);
}

TEST_F(KernelTimingTest, CyclesScaleWithLineLength) {
  const ChunkCost& short_line = model_.chunk_cost(
      sweep::KernelKind::kSimd, Precision::kDouble, 4, 10, 6, false, true);
  const ChunkCost& long_line = model_.chunk_cost(
      sweep::KernelKind::kSimd, Precision::kDouble, 4, 100, 6, false, true);
  EXPECT_NEAR(long_line.cycles / short_line.cycles, 10.0, 3.0);
}

TEST_F(KernelTimingTest, TraceIsDeterministic) {
  const spu::Trace a = record_simd_chunk_trace(Precision::kDouble, 4, 30, 6,
                                               false);
  const spu::Trace b = record_simd_chunk_trace(Precision::kDouble, 4, 30, 6,
                                               false);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.flops, b.flops);
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a.insts[i].op, b.insts[i].op) << i;
}

TEST_F(KernelTimingTest, FixupTraceTriggersEveryCell) {
  // The synthetic fixup-recording data drives every cell down the
  // fixup path, giving the worst-case kernel the paper measured.
  const spu::Trace off = record_simd_chunk_trace(Precision::kDouble, 4, 20, 6,
                                                 false);
  const spu::Trace on = record_simd_chunk_trace(Precision::kDouble, 4, 20, 6,
                                                true);
  EXPECT_GT(on.size(), off.size());
  EXPECT_GT(on.count(spu::Op::kCmpDouble), 0u);
  EXPECT_EQ(off.count(spu::Op::kCmpDouble), 0u);
}

TEST_F(KernelTimingTest, ScalarTraceUsesQuadwordRmw) {
  // Scalar code on the SPU pays load+shuffle+store per scalar store.
  const spu::Trace t = record_scalar_chunk_trace(Precision::kDouble, 1, 10, 6,
                                                 false, true);
  EXPECT_GT(t.count(spu::Op::kShuffle), t.count(spu::Op::kStore));
  EXPECT_GT(t.count(spu::Op::kLoad), t.count(spu::Op::kStore));
}

/// Every counter of @p s, for field-by-field comparison.
auto fields(const cell::PipelineStats& s) {
  return std::tie(s.kernels, s.cycles, s.issue_cycles, s.instructions,
                  s.dual_issues, s.even_pipe_insts, s.odd_pipe_insts,
                  s.dep_stall_cycles, s.block_stall_cycles, s.flops);
}

// A solve server shares one model across its tenants: threads that
// miss the same fresh shapes at once must price each exactly once, and
// every cost must equal a cold model's, field for field.
TEST(SharedKernelCostModel, ConcurrentMissesPriceEachShapeOnce) {
  struct Shape {
    sweep::KernelKind kind;
    int nlines, it, nm;
    bool fixup, gotos;
  };
  std::vector<Shape> shapes;
  for (const int it : {8, 12})
    for (int nlines = 1; nlines <= sweep::kBundleLines; ++nlines)
      for (const bool fixup : {false, true})
        shapes.push_back(
            {sweep::KernelKind::kSimd, nlines, it, 4, fixup, true});
  shapes.push_back({sweep::KernelKind::kScalar, 2, 8, 4, false, false});
  shapes.push_back({sweep::KernelKind::kScalar, 2, 8, 4, true, true});

  const cell::CellSpec spec;
  const KernelCostModel shared(spec);
  constexpr int kThreads = 4;
  const int n = static_cast<int>(shapes.size());
  std::vector<std::vector<char>> priced(kThreads, std::vector<char>(n, 0));
  std::vector<std::vector<const ChunkCost*>> got(
      kThreads, std::vector<const ChunkCost*>(n, nullptr));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Each thread walks the shapes from its own offset, so every
      // shape sees racing first requests.
      for (int k = 0; k < n; ++k) {
        const int i = (k + t * n / kThreads) % n;
        const Shape& s = shapes[i];
        bool p = false;
        got[t][i] = &shared.chunk_cost(s.kind, Precision::kDouble, s.nlines,
                                       s.it, s.nm, s.fixup, s.gotos, &p);
        priced[t][i] = p;
      }
    });
  for (std::thread& th : threads) th.join();

  const KernelCostModel cold(spec);
  for (int i = 0; i < n; ++i) {
    const Shape& s = shapes[i];
    int pricings = 0;
    for (int t = 0; t < kThreads; ++t) {
      pricings += priced[t][i];
      EXPECT_EQ(got[t][i], got[0][i]) << "shape " << i;  // one entry
    }
    EXPECT_EQ(pricings, 1) << "shape " << i;
    const ChunkCost& a = *got[0][i];
    const ChunkCost& b = cold.chunk_cost(s.kind, Precision::kDouble, s.nlines,
                                         s.it, s.nm, s.fixup, s.gotos);
    EXPECT_EQ(a.cycles, b.cycles) << "shape " << i;
    EXPECT_EQ(a.flops, b.flops) << "shape " << i;
    EXPECT_EQ(a.instructions, b.instructions) << "shape " << i;
    EXPECT_EQ(a.dual_issues, b.dual_issues) << "shape " << i;
    EXPECT_EQ(fields(a.stats), fields(b.stats)) << "shape " << i;
  }
  // A warm model reports a lookup as nothing priced.
  bool p = true;
  shared.chunk_cost(shapes[0].kind, Precision::kDouble, shapes[0].nlines,
                    shapes[0].it, shapes[0].nm, shapes[0].fixup,
                    shapes[0].gotos, &p);
  EXPECT_FALSE(p);
}

}  // namespace
}  // namespace cellsweep::core
