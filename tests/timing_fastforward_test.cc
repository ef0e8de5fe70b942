// Iteration fast-forward in core::TimingEngine: a run that skips
// repeated source iterations must report, byte for byte, what a full
// replay of every chunk reports. Attaching any trace sink forces the
// full replay (StreamingPipeline::replays_in_full), so a no-op sink
// gives the reference run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cellsim/observer.h"
#include "core/cluster.h"
#include "core/metrics.h"
#include "core/orchestrator.h"
#include "core/spe_allocator.h"
#include "core/workload.h"
#include "sim/counters.h"
#include "sim/trace.h"
#include "sweep/deck.h"
#include "sweep/quadrature.h"

namespace cellsweep::core {
namespace {

// examples/decks/benchmark50.deck: the paper's deck.
const char* const kBenchmark50 =
    "it 50  jt 50  kt 50\n"
    "dx 0.04  dy 0.04  dz 0.04\n"
    "mk 10  mmi 3\n"
    "sn 6  moments 6\n"
    "iterations 12  fixup_from 10\n"
    "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";

// examples/decks/shield_reflected.deck: converges at iteration 13.
const char* const kShield =
    "it 32  jt 32  kt 32\n"
    "dx 0.125  dy 0.125  dz 0.125\n"
    "mk 8  mmi 3\n"
    "iterations 40  fixup_from 0  epsilon 1e-8\n"
    "material air    0.05 0.04 0.01 source 0.0\n"
    "material source 0.8  0.3  0.1  source 10.0\n"
    "material shield 8.0  0.4  0.0  source 0.0\n"
    "region 1 0 6 0 6 0 6\n"
    "region 2 12 20 0 32 0 32\n"
    "bc bottom reflective\n";

// examples/decks/tiny8.deck.
const char* const kTiny8 =
    "it 8  jt 8  kt 8\n"
    "dx 0.04  dy 0.04  dz 0.04\n"
    "mk 4  mmi 3\n"
    "sn 6  moments 6\n"
    "iterations 2  fixup_from 1\n"
    "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";

// A non-cubic S4 deck, one angle per block.
const char* const kS4 =
    "it 13  jt 11  kt 9\n"
    "dx 0.05  dy 0.06  dz 0.07\n"
    "mk 3  mmi 1\n"
    "sn 4  moments 4\n"
    "iterations 2  fixup_from 1\n"
    "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";

// An S8 deck with wide diagonals (up to 30 lines).
const char* const kS8 =
    "it 12  jt 12  kt 12\n"
    "dx 0.05  dy 0.05  dz 0.05\n"
    "mk 6  mmi 5\n"
    "sn 8  moments 9\n"
    "iterations 2  fixup_from 1\n"
    "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";

using OS = OptimizationStage;

/// The six Figure 5 SPE stages.
const std::vector<OS> kSpeStages = {OS::kSpeInitial,  OS::kSpeAligned,
                                    OS::kSpeBuffered, OS::kSpeSimd,
                                    OS::kSpeDmaLists, OS::kSpeLsPoke};

/// The Figure 5 SPE stages and the four Figure 10 projections.
std::vector<OS> all_configs() {
  std::vector<OS> c = kSpeStages;
  c.insert(c.end(), {OS::kFutureBigDma, OS::kFutureDistributed,
                     OS::kFuturePipelinedDp, OS::kFutureSingle});
  return c;
}

const int kFixupFrom[] = {0, 1, 3, 100};

/// The hazard-checked CI job sets this: every pipeline then owns a
/// checker, so fast-forward runs replay in full too.
bool hazard_env() { return std::getenv("CELLSWEEP_HAZARD_CHECK") != nullptr; }

struct NullSink final : sim::TraceSink {
  int track(const std::string&) override { return 0; }
  void span(int, const char*, const char*, sim::Tick, sim::Tick) override {}
  void instant(int, const char*, const char*, sim::Tick) override {}
  void counter(int, const char*, sim::Tick, double) override {}
};

std::string metrics_json(const RunReport& r) {
  std::ostringstream os;
  write_metrics_json(os, r);
  return os.str();
}

/// A deck with its stage config, moment count and angles per octant.
/// The config carries a kernel cost model calibrated for every chunk
/// shape, so each engine copies it instead of recording the kernel
/// traces again (warm and cold engines report the same bytes).
struct Case {
  sweep::Deck deck;
  CellSweepConfig cfg;
  int nm = 0;
  int angles = 0;
  std::unique_ptr<KernelCostModel> kernels;
};

Case make_case(const char* deck_text, OS stage) {
  Case c{sweep::parse_deck_string(deck_text),
         CellSweepConfig::from_stage(stage), 0, 0, nullptr};
  c.cfg.sweep = c.deck.sweep;
  c.cfg.sweep.kernel = c.cfg.kernel;
  const sweep::SnQuadrature quad(c.deck.sn_order);
  c.nm = sweep::MomentTable(quad, 2, c.deck.nm_cap).nm();
  c.angles = quad.angles_per_octant();
  c.kernels = std::make_unique<KernelCostModel>(c.cfg.chip);
  for (const bool fixup : {false, true})
    for (int nlines = 1; nlines <= sweep::kBundleLines; ++nlines)
      c.kernels->chunk_cost(c.cfg.kernel, c.cfg.precision, nlines,
                            c.deck.problem.grid().it, c.nm, fixup,
                            c.cfg.gotos_eliminated);
  c.cfg.warm_kernels = c.kernels.get();
  return c;
}

/// For each n of @p lengths: an engine with fast-forward and one
/// replaying in full, both fed the first n iterations of one diagonal
/// stream. The full engines hold sink_'s address, so pairs never move.
class EnginePairs {
 public:
  EnginePairs(const Case& c, const CellSweepConfig& cfg,
              std::vector<int> lengths)
      : lengths_(std::move(lengths)) {
    CellSweepConfig full = cfg;
    full.trace_sink = &sink_;
    for (std::size_t k = 0; k < lengths_.size(); ++k) {
      fast_.push_back(
          std::make_unique<TimingEngine>(cfg, c.deck.problem.grid(), c.nm));
      full_.push_back(
          std::make_unique<TimingEngine>(full, c.deck.problem.grid(), c.nm));
    }
  }
  EnginePairs(const EnginePairs&) = delete;
  EnginePairs& operator=(const EnginePairs&) = delete;

  void on_diagonal(const sweep::DiagonalWork& w) {
    if (w.octant == 0 && w.ablock == 0 && w.kblock == 0 && w.diagonal == 0)
      ++iteration_;
    for (std::size_t k = 0; k < lengths_.size(); ++k) {
      if (iteration_ > lengths_[k]) continue;
      fast_[k]->on_diagonal(w);
      full_[k]->on_diagonal(w);
    }
  }

  /// Finishes every pair, expecting identical metrics JSON; returns
  /// the iterations each fast engine skipped.
  std::vector<int> finish_and_compare(const std::string& what) {
    std::vector<int> skipped;
    for (std::size_t k = 0; k < lengths_.size(); ++k) {
      skipped.push_back(fast_[k]->iterations_fast_forwarded());
      EXPECT_EQ(full_[k]->iterations_fast_forwarded(), 0);
      EXPECT_EQ(metrics_json(fast_[k]->finish()),
                metrics_json(full_[k]->finish()))
          << what << ", " << lengths_[k] << " iteration(s)";
    }
    return skipped;
  }

 private:
  std::vector<int> lengths_;
  NullSink sink_;
  std::vector<std::unique_ptr<TimingEngine>> fast_;
  std::vector<std::unique_ptr<TimingEngine>> full_;
  int iteration_ = 0;
};

std::string label(OS stage, int fixup_from) {
  return std::string(stage_name(stage)) + ", fixup_from " +
         std::to_string(fixup_from);
}

/// @p c's config running @p iterations iterations with fixups from
/// iteration @p fixup_from.
CellSweepConfig schedule(const Case& c, int iterations, int fixup_from) {
  CellSweepConfig cfg = c.cfg;
  cfg.sweep.max_iterations = iterations;
  cfg.sweep.fixup_from_iteration = fixup_from;
  return cfg;
}

/// Trace-driven pairs for each iteration count of @p lengths, fixups
/// from iteration @p fixup_from; returns the skip counts.
std::vector<int> trace_driven(const Case& c, OS stage,
                              const std::vector<int>& lengths,
                              int fixup_from) {
  const CellSweepConfig cfg = schedule(
      c, *std::max_element(lengths.begin(), lengths.end()), fixup_from);
  EnginePairs pairs(c, cfg, lengths);
  for (int iter = 0; iter < cfg.sweep.max_iterations; ++iter)
    enumerate_sweep(
        c.deck.problem.grid(), c.angles, cfg.sweep, iter >= fixup_from,
        [&](const sweep::DiagonalWork& w) { pairs.on_diagonal(w); });
  return pairs.finish_and_compare(label(stage, fixup_from));
}

/// Solves @p c's deck functionally under @p sweep_cfg, feeding every
/// diagonal to @p observer.
void solve(const Case& c, const sweep::SweepConfig& sweep_cfg,
           const sweep::DiagonalObserver& observer) {
  const sweep::SnQuadrature quad(c.deck.sn_order);
  sweep::SweepState<double> state(c.deck.problem, quad, 2, c.deck.nm_cap);
  sweep::solve_source_iteration(state, sweep_cfg, observer);
}

TEST(TimingFastForward, TraceDrivenMatchesFullReplay) {
  // Every configuration on three small decks. A run ends after a
  // priced iteration (1, 2, or the first fixup ones) or after a
  // skipped one; the fixup schedules put the first fixup iteration
  // first, second, fourth or never. Full replays dominate the cost
  // (the sanitizer jobs run this too), so the larger decks run fewer
  // lengths and schedules.
  for (const OS stage : all_configs()) {
    const Case tiny = make_case(kTiny8, stage);
    for (const int fixup_from : kFixupFrom) {
      const std::vector<int> skipped =
          trace_driven(tiny, stage, {1, 2, 3, 14}, fixup_from);
      if (!hazard_env() && fixup_from == 100) {
        EXPECT_EQ(skipped.back(), 12) << stage_name(stage);
      }
    }
    const Case s4 = make_case(kS4, stage);
    for (const int fixup_from : {1, 3})
      trace_driven(s4, stage, {3, 14}, fixup_from);
    trace_driven(make_case(kS8, stage), stage, {14}, 3);
  }
}

TEST(TimingFastForward, FunctionalMatchesFullReplay) {
  // Every configuration on two small decks, fed by the physics solver.
  // Its diagonal stream depends on the deck and the fixup schedule
  // only (the kernel kind is a label the stream carries), so one solve
  // per schedule feeds the engine pairs of every configuration.
  for (const char* deck : {kTiny8, kS4}) {
    std::vector<Case> cases;
    for (const OS stage : all_configs()) cases.push_back(make_case(deck, stage));
    for (const int fixup_from : kFixupFrom) {
      std::vector<std::unique_ptr<EnginePairs>> pairs;
      for (const Case& c : cases)
        pairs.push_back(std::make_unique<EnginePairs>(
            c, schedule(c, 6, fixup_from), std::vector{2, 6}));
      solve(cases.front(), schedule(cases.front(), 6, fixup_from).sweep,
            [&](const sweep::DiagonalWork& w) {
              for (std::size_t i = 0; i < cases.size(); ++i) {
                sweep::DiagonalWork labelled = w;
                labelled.kernel = cases[i].cfg.kernel;
                pairs[i]->on_diagonal(labelled);
              }
            });
      for (std::size_t i = 0; i < cases.size(); ++i)
        pairs[i]->finish_and_compare(label(all_configs()[i], fixup_from) +
                                     ", functional");
    }
  }
}

TEST(TimingFastForward, Benchmark50PricesFourOfTwelveIterations) {
  // Iterations 2-11 start from one canonical state and iteration 12
  // from the state a fixup iteration leaves: 1, 2, 11 and 12 are
  // priced, the other eight fast-forwarded.
  for (const OS stage : kSpeStages) {
    Case c = make_case(kBenchmark50, stage);
    const int n = c.cfg.sweep.max_iterations;
    ASSERT_EQ(n, 12);
    TimingEngine fast(c.cfg, c.deck.problem.grid(), c.nm);
    NullSink sink;
    CellSweepConfig full_cfg = c.cfg;
    full_cfg.trace_sink = &sink;
    TimingEngine full(full_cfg, c.deck.problem.grid(), c.nm);
    for (int iter = 0; iter < n; ++iter)
      enumerate_sweep(c.deck.problem.grid(), c.angles, c.cfg.sweep,
                      iter >= c.cfg.sweep.fixup_from_iteration,
                      [&](const sweep::DiagonalWork& w) {
                        fast.on_diagonal(w);
                        full.on_diagonal(w);
                      });
    EXPECT_EQ(fast.iterations_fast_forwarded(), hazard_env() ? 0 : 8)
        << stage_name(stage);
    EXPECT_EQ(metrics_json(fast.finish()), metrics_json(full.finish()))
        << stage_name(stage);
  }
}

TEST(TimingFastForward, ConvergingShieldDeckSkipsElevenOfThirteen) {
  // Functional at the final stage, as deck_runner runs it: the solve
  // converges at iteration 13, all of them fixup iterations.
  const Case c = make_case(kShield, OS::kSpeLsPoke);
  EnginePairs pairs(c, c.cfg, {c.cfg.sweep.max_iterations});
  solve(c, c.cfg.sweep,
        [&](const sweep::DiagonalWork& w) { pairs.on_diagonal(w); });
  EXPECT_EQ(pairs.finish_and_compare("shield_reflected").front(),
            hazard_env() ? 0 : 11);
}

TEST(TimingFastForward, ClusterMatchesItsFullReplay) {
  // simulate_cluster's isolated-chip runs fast-forward; its ranks gate
  // each other, which turns fast-forward off for the rest of a run.
  const sweep::Grid g = sweep::Grid::cube(20);
  const std::pair<int, int> grids[] = {{1, 1}, {2, 1}, {2, 2}};
  for (const auto& [px, py] : grids) {
    ClusterConfig c;
    c.px = px;
    c.py = py;
    c.chip = CellSweepConfig::from_stage(OS::kSpeLsPoke);
    c.chip.sweep.max_iterations = 6;
    c.chip.sweep.fixup_from_iteration = 4;
    c.chip.sweep.mk = 5;
    c.chip.sweep.mmi = 3;
    ClusterConfig full = c;
    NullSink sink;
    full.chip.trace_sink = &sink;
    const ClusterReport a = simulate_cluster(g, c);
    const ClusterReport b = simulate_cluster(g, full);
    const std::string what =
        std::to_string(px) + "x" + std::to_string(py) + " grid";
    EXPECT_EQ(a.seconds, b.seconds) << what;
    EXPECT_EQ(a.tile_seconds, b.tile_seconds) << what;
    EXPECT_EQ(a.wavefront_efficiency, b.wavefront_efficiency) << what;
    EXPECT_EQ(a.speedup_vs_one_chip, b.speedup_vs_one_chip) << what;
    EXPECT_EQ(a.rank_seconds, b.rank_seconds) << what;
    EXPECT_EQ(a.messages, b.messages) << what;
    EXPECT_EQ(a.message_bytes, b.message_bytes) << what;
  }
}

/// Skip count of a 6-iteration trace-driven tiny8 run with @p tweak
/// applied to its config, gated before the first diagonal if @p gate.
int skipped_with(const std::function<void(CellSweepConfig&)>& tweak,
                 bool gate = false) {
  Case c = make_case(kTiny8, OS::kSpeLsPoke);
  c.cfg.sweep.max_iterations = 6;
  c.cfg.sweep.fixup_from_iteration = 100;
  tweak(c.cfg);
  TimingEngine engine(c.cfg, c.deck.problem.grid(), c.nm);
  if (gate) engine.gate(1);
  for (int iter = 0; iter < 6; ++iter)
    enumerate_sweep(
        c.deck.problem.grid(), c.angles, c.cfg.sweep, false,
        [&](const sweep::DiagonalWork& w) { engine.on_diagonal(w); });
  const int skipped = engine.iterations_fast_forwarded();
  engine.finish();
  return skipped;
}

TEST(TimingFastForward, EveryFullReplayConditionSkipsNothing) {
  if (!hazard_env()) {
    EXPECT_GT(skipped_with([](CellSweepConfig&) {}), 0);
  }

  NullSink sink;
  EXPECT_EQ(skipped_with([&](CellSweepConfig& c) { c.trace_sink = &sink; }),
            0);
  sim::TimeSlicedProfiler profiler;
  EXPECT_EQ(skipped_with([&](CellSweepConfig& c) { c.profiler = &profiler; }),
            0);
  cell::MachineObserver observer;
  EXPECT_EQ(skipped_with([&](CellSweepConfig& c) { c.hazard = &observer; }),
            0);
  EXPECT_EQ(skipped_with([](CellSweepConfig& c) {
              c.faults = sim::parse_fault_spec("seed=42,dma=0.001");
            }),
            0);
  SpeAllocator allocator(8);
  EXPECT_EQ(
      skipped_with([&](CellSweepConfig& c) { c.spe_allocator = &allocator; }),
      0);
  const std::atomic<bool> cancel{false};
  EXPECT_EQ(skipped_with([&](CellSweepConfig& c) { c.cancel = &cancel; }), 0);
  EXPECT_EQ(skipped_with([](CellSweepConfig&) {}, /*gate=*/true), 0);

  // A chunk hook can only be set on a bare pipeline.
  const Case c = make_case(kTiny8, OS::kSpeLsPoke);
  StreamingPipeline pipeline(c.cfg, sweep_placement(c.cfg, 8, c.nm));
  const bool plain = pipeline.replays_in_full();
  pipeline.set_chunk_hook(
      [](const StreamChunkSpec&, sim::Tick, sim::Tick) {});
  EXPECT_EQ(plain, hazard_env());
  EXPECT_TRUE(pipeline.replays_in_full());
}

TEST(TimingFastForward, DriftInAFastForwardedIterationStillThrows) {
  Case c = make_case(kTiny8, OS::kSpeLsPoke);
  TimingEngine engine(c.cfg, c.deck.problem.grid(), c.nm);
  std::vector<sweep::DiagonalWork> stream;
  enumerate_sweep(c.deck.problem.grid(), c.angles, c.cfg.sweep, false,
                  [&](const sweep::DiagonalWork& w) { stream.push_back(w); });
  for (int iter = 0; iter < 4; ++iter)
    for (const sweep::DiagonalWork& w : stream) engine.on_diagonal(w);
  if (hazard_env()) return;  // nothing is fast-forwarded under the checker
  ASSERT_GT(engine.iterations_fast_forwarded(), 0);
  // The last iteration was skipped, but a diagonal reporting the wrong
  // line count is still the ChunkPlan drift error...
  sweep::DiagonalWork bad = stream[1];
  bad.nlines += 1;
  EXPECT_THROW(engine.on_diagonal(bad), std::logic_error);
  // ...and a skipped iteration fed a different stream is caught when
  // it ends.
  EXPECT_THROW(engine.finish(), std::logic_error);
}

}  // namespace
}  // namespace cellsweep::core
