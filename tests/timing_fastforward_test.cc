// Block fast-forward in core::TimingEngine: a run that skips repeated
// (octant, angle-block, K-block) blocks must report, byte for byte,
// what a full replay of every chunk reports, whether it is fed one
// diagonal at a time (on_diagonal) or one block at a time (on_block,
// the trace-driven feed). Attaching any trace sink forces the full
// replay (StreamingPipeline::open_block), so a no-op sink gives the
// reference run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
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
#include "sweep/plan.h"
#include "sweep/quadrature.h"
#include "util/rng.h"

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

/// What a finished engine reports: the blocks it fast-forwarded and
/// its metrics JSON.
struct Finished {
  int skipped = 0;
  std::string json;
};

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

  TimingEngine& fast(std::size_t k) { return *fast_[k]; }
  TimingEngine& full(std::size_t k) { return *full_[k]; }

  void on_diagonal(const sweep::DiagonalWork& w) {
    if (w.octant == 0 && w.ablock == 0 && w.kblock == 0 && w.diagonal == 0)
      ++iteration_;
    for (std::size_t k = 0; k < lengths_.size(); ++k) {
      if (iteration_ > lengths_[k]) continue;
      fast_[k]->on_diagonal(w);
      full_[k]->on_diagonal(w);
    }
  }

  /// Finishes every pair, expecting identical metrics JSON; returns,
  /// per length, the blocks the fast engine skipped and the JSON.
  std::vector<Finished> finish_and_compare(const std::string& what) {
    std::vector<Finished> out;
    for (std::size_t k = 0; k < lengths_.size(); ++k) {
      EXPECT_EQ(full_[k]->blocks_fast_forwarded(), 0);
      const Finished fast{fast_[k]->blocks_fast_forwarded(),
                          metrics_json(fast_[k]->finish())};
      EXPECT_EQ(fast.json, metrics_json(full_[k]->finish()))
          << what << ", " << lengths_[k] << " iteration(s)";
      out.push_back(fast);
    }
    return out;
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

/// An engine with fast-forward fed @p cfg's whole schedule through the
/// block call, one on_block per block in sweep order (as
/// trace_driven_run feeds it).
Finished block_fed(const Case& c, const CellSweepConfig& cfg) {
  const sweep::Grid& g = c.deck.problem.grid();
  TimingEngine engine(cfg, g, c.nm);
  for (int iter = 0; iter < cfg.sweep.max_iterations; ++iter)
    for (int iq = 0; iq < 8; ++iq)
      for (int ab = 0; ab < c.angles / cfg.sweep.mmi; ++ab)
        for (int kb = 0; kb < g.kt / cfg.sweep.mk; ++kb)
          engine.on_block(iq, ab, kb,
                          iter >= cfg.sweep.fixup_from_iteration);
  const int skipped = engine.blocks_fast_forwarded();
  return {skipped, metrics_json(engine.finish())};
}

/// Trace-driven pairs for each iteration count of @p lengths, fixups
/// from iteration @p fixup_from; returns the skip counts. Each length
/// also runs through the block call, which must skip the same blocks
/// and report the full replay's JSON. A mismatch names @p what.
std::vector<int> trace_driven(const Case& c, const std::vector<int>& lengths,
                              int fixup_from, const std::string& what) {
  const CellSweepConfig cfg = schedule(
      c, *std::max_element(lengths.begin(), lengths.end()), fixup_from);
  EnginePairs pairs(c, cfg, lengths);
  for (int iter = 0; iter < cfg.sweep.max_iterations; ++iter)
    enumerate_sweep(
        c.deck.problem.grid(), c.angles, cfg.sweep, iter >= fixup_from,
        [&](const sweep::DiagonalWork& w) { pairs.on_diagonal(w); });
  const std::vector<Finished> per_diagonal = pairs.finish_and_compare(what);
  std::vector<int> skipped;
  for (std::size_t k = 0; k < lengths.size(); ++k) {
    skipped.push_back(per_diagonal[k].skipped);
    if (hazard_env()) continue;  // the block call would replay in full too
    const Finished block = block_fed(c, schedule(c, lengths[k], fixup_from));
    EXPECT_EQ(block.skipped, per_diagonal[k].skipped)
        << what << ", " << lengths[k] << " iteration(s), block call";
    EXPECT_EQ(block.json, per_diagonal[k].json)
        << what << ", " << lengths[k] << " iteration(s), block call";
  }
  return skipped;
}

/// Solves @p c's deck functionally under @p sweep_cfg, feeding every
/// diagonal to @p observer.
void solve(const Case& c, const sweep::SweepConfig& sweep_cfg,
           const sweep::DiagonalObserver& observer) {
  const sweep::SnQuadrature quad(c.deck.sn_order);
  sweep::SweepState<double> state(c.deck.problem, quad, 2, c.deck.nm_cap);
  sweep::solve_source_iteration(state, sweep_cfg, observer);
}

/// Blocks tiny8 prices in its first 1, 2, 3 and 14 iterations under
/// @p cfg, fixups from iteration @p fixup_from. The first iteration
/// prices f blocks (f = 9 single-buffered, 17 double-buffered); each
/// fixup flag keys its own blocks, so a schedule that switches it
/// prices about twice as many.
std::vector<int> tiny8_priced(const CellSweepConfig& cfg, int fixup_from) {
  const int f = cfg.buffers == 1 ? 9 : 17;
  switch (fixup_from) {
    case 1:
      return {f, 2 * f, 2 * f + 1, 2 * f + 1};
    case 3:
      return {f, f + 1, f + 1, 2 * f + 2};
    default:  // one fixup flag throughout
      return {f, f + 1, f + 1, f + 1};
  }
}

/// Blocks of one source iteration of @p c's deck.
int blocks_per_iteration(const Case& c) {
  return 8 * (c.angles / c.cfg.sweep.mmi) *
         (c.deck.problem.grid().kt / c.cfg.sweep.mk);
}

TEST(TimingFastForward, TraceDrivenMatchesFullReplay) {
  // Every configuration on three small decks. A run ends after a
  // priced iteration (1, 2, or the first fixup ones) or after a
  // skipped one; the fixup schedules put the first fixup iteration
  // first, second, fourth or never. Full replays dominate the cost
  // (the sanitizer jobs run this too), so the larger decks run fewer
  // lengths and schedules. tiny8's skip counts are pinned (32 blocks
  // an iteration).
  for (const OS stage : all_configs()) {
    const Case tiny = make_case(kTiny8, stage);
    ASSERT_EQ(blocks_per_iteration(tiny), 32);
    for (const int fixup_from : kFixupFrom) {
      const std::vector<int> skipped = trace_driven(
          tiny, {1, 2, 3, 14}, fixup_from, label(stage, fixup_from));
      if (hazard_env()) continue;
      const std::vector<int> priced = {32 - skipped[0], 64 - skipped[1],
                                       96 - skipped[2], 448 - skipped[3]};
      EXPECT_EQ(priced, tiny8_priced(tiny.cfg, fixup_from))
          << label(stage, fixup_from);
    }
    const Case s4 = make_case(kS4, stage);
    for (const int fixup_from : {1, 3})
      trace_driven(s4, {3, 14}, fixup_from, label(stage, fixup_from));
    trace_driven(make_case(kS8, stage), {14}, 3, label(stage, 3));
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

TEST(TimingFastForward, Benchmark50PricesAtMostTwelveOf960Blocks) {
  // 12 iterations of 80 blocks. Every block of a run feeds the same
  // diagonal stream, so only the canonical start states differ: the
  // single-buffered stages (initial, + gotos) price 8 blocks, every
  // other SPE stage and Fig. 10 projection 12, fed by diagonal or by
  // block. The six Fig. 5 stages are also compared with their full
  // replay.
  for (const OS stage : all_configs()) {
    Case c = make_case(kBenchmark50, stage);
    const int n = c.cfg.sweep.max_iterations;
    ASSERT_EQ(n, 12);
    ASSERT_EQ(blocks_per_iteration(c), 80);
    const bool compare =
        std::find(kSpeStages.begin(), kSpeStages.end(), stage) !=
        kSpeStages.end();
    TimingEngine fast(c.cfg, c.deck.problem.grid(), c.nm);
    NullSink sink;
    CellSweepConfig full_cfg = c.cfg;
    full_cfg.trace_sink = &sink;
    std::optional<TimingEngine> full;
    if (compare) full.emplace(full_cfg, c.deck.problem.grid(), c.nm);
    for (int iter = 0; iter < n; ++iter)
      enumerate_sweep(c.deck.problem.grid(), c.angles, c.cfg.sweep,
                      iter >= c.cfg.sweep.fixup_from_iteration,
                      [&](const sweep::DiagonalWork& w) {
                        fast.on_diagonal(w);
                        if (full) full->on_diagonal(w);
                      });
    const int skips = hazard_env() ? 0 : c.cfg.buffers == 1 ? 952 : 948;
    EXPECT_EQ(fast.blocks_fast_forwarded(), skips) << stage_name(stage);
    const std::string json = metrics_json(fast.finish());
    if (full) {
      EXPECT_EQ(json, metrics_json(full->finish())) << stage_name(stage);
    }
    if (hazard_env()) continue;  // the block call would replay in full too
    const Finished block = block_fed(c, c.cfg);
    EXPECT_EQ(block.skipped, skips) << stage_name(stage) << ", block call";
    EXPECT_EQ(block.json, json) << stage_name(stage) << ", block call";
  }
}

TEST(TimingFastForward, ConvergingShieldDeckSkips828Of832Blocks) {
  // Functional at the final stage, as deck_runner runs it: the solve
  // converges at iteration 13 of 64 blocks, all of them fixup
  // iterations.
  const Case c = make_case(kShield, OS::kSpeLsPoke);
  ASSERT_EQ(blocks_per_iteration(c), 64);
  EnginePairs pairs(c, c.cfg, {c.cfg.sweep.max_iterations});
  solve(c, c.cfg.sweep,
        [&](const sweep::DiagonalWork& w) { pairs.on_diagonal(w); });
  EXPECT_EQ(pairs.finish_and_compare("shield_reflected").front().skipped,
            hazard_env() ? 0 : 828);
}

/// Splitmix64: a portable seeded stream, so a seed names the same deck
/// on every standard library.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [lo, hi].
  int in(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(
                                              hi - lo + 1));
  }
  /// A random divisor of @p n.
  int divisor_of(int n) {
    std::vector<int> d;
    for (int k = 1; k <= n; ++k)
      if (n % k == 0) d.push_back(k);
    return d[static_cast<std::size_t>(in(0, static_cast<int>(d.size()) - 1))];
  }
};

/// Deck @p seed of the differential test: a non-cubic grid of 2-11
/// cells a side, MK | KT, MMI | angles per octant, S2-S8, 1-9
/// moments, 1-14 iterations and fixups from iteration 0-15 (never,
/// past the last). One deck in three stops at a convergence epsilon of
/// 1e-2 to 1e-6 (some before their last iteration), and one in four
/// accelerates.
std::string random_deck(std::uint64_t seed) {
  Rng rng{seed};
  int it = rng.in(2, 11);
  const int jt = rng.in(2, 11);
  const int kt = rng.in(2, 11);
  if (it == jt && jt == kt) it = it == 11 ? 10 : it + 1;
  const int sn = 2 * rng.in(1, 4);
  const int angles = sn * (sn + 2) / 8;
  std::ostringstream os;
  os << "it " << it << "  jt " << jt << "  kt " << kt << "\n"
     << "dx 0.0" << rng.in(2, 9) << "  dy 0.0" << rng.in(2, 9) << "  dz 0.0"
     << rng.in(2, 9) << "\n"
     << "mk " << rng.divisor_of(kt) << "  mmi " << rng.divisor_of(angles)
     << "\n"
     << "sn " << sn << "  moments " << rng.in(1, 9) << "\n"
     << "iterations " << rng.in(1, 14) << "  fixup_from " << rng.in(0, 15)
     << "\n"
     << "material benchmark 1.0 0.5 0.2 0.05 source 1.0\n";
  if (rng.in(0, 2) == 0) os << "epsilon 1e-" << rng.in(2, 6) << "\n";
  if (rng.in(0, 3) == 0) os << "accelerate 1\n";
  return os.str();
}

/// Expects @p c's deck to time the same functional, through
/// CellSweep3D::run, and trace-driven over the iterations the solve
/// ran (a converging deck stops early). A mismatch names @p what.
void expect_functional_equals_trace_driven(const Case& c,
                                           const std::string& what) {
  const RunReport functional =
      CellSweep3D(c.deck.problem, c.cfg, c.deck.sn_order, 2, c.deck.nm_cap)
          .run(RunMode::kFunctional);
  ASSERT_TRUE(functional.solve) << what;
  CellSweepConfig cfg = c.cfg;
  cfg.sweep.max_iterations = functional.solve->iterations;
  EXPECT_EQ(metrics_json(functional),
            metrics_json(trace_driven_run(cfg, c.deck.problem.grid(), c.nm,
                                          c.angles)))
      << what << "functional vs trace-driven, "
      << functional.solve->iterations << " iteration(s)";
}

TEST(TimingFastForward, RandomDecksMatchFullReplay) {
  // Seeded differential test: block fast-forward == full replay on
  // random decks, at every SPE stage and Fig. 10 projection, fed by
  // diagonal and by block (trace_driven). Every third deck is also
  // solved, feeding one functional stream to the pairs of every
  // configuration, and run through CellSweep3D::run(kFunctional) at
  // every configuration, which must time what trace_driven_run times
  // over the iterations it solved. Decks run in seed order until the
  // time box closes (the sanitizer jobs run this too); the first
  // kMinDecks always run. A failure names the seed and the deck.
  constexpr std::uint64_t kMinDecks = 6;
  constexpr std::uint64_t kMaxDecks = 60;
  const auto box = std::chrono::seconds(8);
  const auto opened = std::chrono::steady_clock::now();
  std::uint64_t seed = 1;
  for (; seed <= kMaxDecks; ++seed) {
    if (seed > kMinDecks && std::chrono::steady_clock::now() - opened > box)
      break;
    const std::string text = random_deck(seed);
    const std::string what = "seed " + std::to_string(seed) + ":\n" + text;
    std::vector<Case> cases;
    for (const OS stage : all_configs())
      cases.push_back(make_case(text.c_str(), stage));
    const sweep::SweepConfig& sc = cases.front().cfg.sweep;
    for (std::size_t i = 0; i < cases.size(); ++i)
      trace_driven(cases[i], {sc.max_iterations}, sc.fixup_from_iteration,
                   std::string(stage_name(all_configs()[i])) + ", " + what);
    if (HasFailure()) return;  // the first failing deck is enough
    if (seed % 3 != 0) continue;
    std::vector<std::unique_ptr<EnginePairs>> pairs;
    for (const Case& c : cases)
      pairs.push_back(std::make_unique<EnginePairs>(
          c, c.cfg, std::vector{sc.max_iterations}));
    solve(cases.front(), sc, [&](const sweep::DiagonalWork& w) {
      for (std::size_t i = 0; i < cases.size(); ++i) {
        sweep::DiagonalWork labelled = w;
        labelled.kernel = cases[i].cfg.kernel;
        pairs[i]->on_diagonal(labelled);
      }
    });
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const std::string config = std::string(stage_name(all_configs()[i]));
      pairs[i]->finish_and_compare(config + ", functional, " + what);
      expect_functional_equals_trace_driven(cases[i], config + ", " + what);
    }
    if (HasFailure()) return;
  }
  std::cout << "[ differential ] " << seed - 1 << " random decks\n";
}

TEST(TimingFastForward, ClusterMatchesItsFullReplay) {
  // simulate_cluster's isolated-chip runs fast-forward, and so do its
  // ranks, which gate each other between blocks (the gate lands in the
  // next block's key).
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
/// applied to its config.
int skipped_with(const std::function<void(CellSweepConfig&)>& tweak) {
  Case c = make_case(kTiny8, OS::kSpeLsPoke);
  c.cfg.sweep.max_iterations = 6;
  c.cfg.sweep.fixup_from_iteration = 100;
  tweak(c.cfg);
  TimingEngine engine(c.cfg, c.deck.problem.grid(), c.nm);
  for (int iter = 0; iter < 6; ++iter)
    enumerate_sweep(
        c.deck.problem.grid(), c.angles, c.cfg.sweep, false,
        [&](const sweep::DiagonalWork& w) { engine.on_diagonal(w); });
  const int skipped = engine.blocks_fast_forwarded();
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
  EXPECT_EQ(
      skipped_with([&](CellSweepConfig& c) { c.trace_sink = &profiler; }), 0);
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
}

TEST(TimingFastForward, GatedBeforeEveryBlockMatchesFullReplay) {
  // Gated as simulate_cluster gates its ranks: before every block, here
  // at the horizon plus a delay of 0-3 us that cycles with the block
  // count, so a gate is sometimes a no-op and the delays recur. A gate
  // raises only the horizon and the reports horizon, both in the next
  // block's key, so gated blocks still fast-forward.
  const Case c = make_case(kTiny8, OS::kSpeLsPoke);
  const CellSweepConfig cfg = schedule(c, 6, 3);
  EnginePairs pairs(c, cfg, {6});
  TimingEngine& fast = pairs.fast(0);
  TimingEngine& full = pairs.full(0);
  const sim::Tick us = sim::ticks_from_seconds(1e-6);
  int blocks = 0;
  for (int iter = 0; iter < 6; ++iter)
    enumerate_sweep(c.deck.problem.grid(), c.angles, cfg.sweep, iter >= 3,
                    [&](const sweep::DiagonalWork& w) {
                      if (w.diagonal == 0) {
                        ASSERT_EQ(fast.horizon(), full.horizon());
                        const sim::Tick at =
                            fast.horizon() + (blocks++ % 4) * us;
                        fast.gate(at);
                        full.gate(at);
                      }
                      pairs.on_diagonal(w);
                    });
  ASSERT_EQ(blocks, 6 * blocks_per_iteration(c));
  // 156 of the 192 blocks.
  const std::vector<Finished> done =
      pairs.finish_and_compare("tiny8 gated before every block");
  EXPECT_EQ(done.front().skipped, hazard_env() ? 0 : 156);
}

TEST(TimingFastForward, RandomGatesMatchFullReplay) {
  // Gated before every block at the horizon plus a seeded random delay
  // of 0-3 us, fed by diagonal and by block. A gate changes the next
  // block's key, so it must drop the pipeline's successor link; a delay
  // pattern that repeats with the blocks could hide a stale link, a
  // random one does not.
  const Case c = make_case(kTiny8, OS::kSpeLsPoke);
  const CellSweepConfig cfg = schedule(c, 6, 3);
  EnginePairs pairs(c, cfg, {6});
  TimingEngine& fast = pairs.fast(0);
  TimingEngine& full = pairs.full(0);
  TimingEngine block(cfg, c.deck.problem.grid(), c.nm);
  const sim::Tick us = sim::ticks_from_seconds(1e-6);
  util::SplitMix64 rng(0x6a7e5);
  for (int iter = 0; iter < 6; ++iter)
    enumerate_sweep(c.deck.problem.grid(), c.angles, cfg.sweep, iter >= 3,
                    [&](const sweep::DiagonalWork& w) {
                      if (w.diagonal == 0) {
                        ASSERT_EQ(fast.horizon(), full.horizon());
                        ASSERT_EQ(block.horizon(), full.horizon());
                        const sim::Tick at =
                            fast.horizon() +
                            static_cast<sim::Tick>(rng.next_below(4)) * us;
                        fast.gate(at);
                        full.gate(at);
                        block.gate(at);
                        block.on_block(w.octant, w.ablock, w.kblock, w.fixup);
                      }
                      pairs.on_diagonal(w);
                    });
  const int skipped = block.blocks_fast_forwarded();
  const std::string json = metrics_json(block.finish());
  const Finished fast_run =
      pairs.finish_and_compare("tiny8, random gates").front();
  EXPECT_EQ(skipped, fast_run.skipped);
  EXPECT_EQ(json, fast_run.json) << "tiny8, random gates, block call";
  if (!hazard_env()) {
    EXPECT_GT(skipped, 0);
  }
}

/// One trace-driven source iteration of tiny8 (fixups off) at the
/// final stage.
std::vector<sweep::DiagonalWork> tiny8_iteration(const Case& c) {
  std::vector<sweep::DiagonalWork> stream;
  enumerate_sweep(c.deck.problem.grid(), c.angles, c.cfg.sweep, false,
                  [&](const sweep::DiagonalWork& w) { stream.push_back(w); });
  return stream;
}

/// Diagonals of the first block of @p stream.
std::size_t first_block_length(const std::vector<sweep::DiagonalWork>& s) {
  std::size_t n = 0;
  while (n < s.size() && s[n].octant == 0 && s[n].ablock == 0 &&
         s[n].kblock == 0)
    ++n;
  return n;
}

TEST(TimingFastForward, GateAfterASkippedBlockMatchesFullReplay) {
  // Two iterations, then the first block of a third -- skipped -- then
  // a gate on both engines: the gate closes the skipped block, and the
  // fast engine keeps skipping the blocks after it.
  const Case c = make_case(kTiny8, OS::kSpeLsPoke);
  const std::vector<sweep::DiagonalWork> stream = tiny8_iteration(c);
  const std::size_t first = first_block_length(stream);
  ASSERT_GT(first, 1u);
  EnginePairs pairs(c, c.cfg, {4});
  TimingEngine& fast = pairs.fast(0);
  TimingEngine& full = pairs.full(0);
  for (int iter = 0; iter < 2; ++iter)
    for (const sweep::DiagonalWork& w : stream) pairs.on_diagonal(w);
  const int before = fast.blocks_fast_forwarded();
  for (std::size_t d = 0; d < first; ++d) pairs.on_diagonal(stream[d]);
  if (!hazard_env()) {
    ASSERT_EQ(fast.blocks_fast_forwarded(), before + 1);
  }
  ASSERT_EQ(fast.horizon(), full.horizon());
  const sim::Tick at = fast.horizon() + 12345;
  fast.gate(at);
  full.gate(at);
  for (std::size_t d = first; d < stream.size(); ++d)
    pairs.on_diagonal(stream[d]);
  for (const sweep::DiagonalWork& w : stream) pairs.on_diagonal(w);
  // 109 of the 128 blocks: 47 up to the gate, then each of the 63
  // after it but the first, whose key the gate changed.
  EXPECT_EQ(pairs.finish_and_compare("gated tiny8").front().skipped,
            hazard_env() ? 0 : 109);
}

TEST(TimingFastForward, GateInsideASkippedBlockThrows) {
  // A block is open from its diagonal 0 to its last: gate, on_block and
  // finish throw inside it, fast-forwarded or replayed.
  const Case c = make_case(kTiny8, OS::kSpeLsPoke);
  const std::vector<sweep::DiagonalWork> stream = tiny8_iteration(c);
  TimingEngine engine(c.cfg, c.deck.problem.grid(), c.nm);
  engine.on_diagonal(stream[0]);
  ASSERT_EQ(engine.blocks_fast_forwarded(), 0);
  EXPECT_THROW(engine.gate(engine.horizon() + 1), std::logic_error);
  EXPECT_THROW(engine.on_block(0, 0, 1, false), std::logic_error);
  EXPECT_THROW(engine.finish(), std::logic_error);
  for (std::size_t d = 1; d < stream.size(); ++d) engine.on_diagonal(stream[d]);
  for (const sweep::DiagonalWork& w : stream) engine.on_diagonal(w);
  const int before = engine.blocks_fast_forwarded();
  engine.on_diagonal(stream[0]);
  if (hazard_env()) return;  // nothing is fast-forwarded under the checker
  ASSERT_EQ(engine.blocks_fast_forwarded(), before + 1);
  EXPECT_THROW(engine.gate(engine.horizon() + 1), std::logic_error);
  EXPECT_THROW(engine.on_block(0, 0, 1, false), std::logic_error);
  EXPECT_THROW(engine.finish(), std::logic_error);
}

TEST(TimingFastForward, DriftInAFastForwardedBlockStillThrows) {
  const Case c = make_case(kTiny8, OS::kSpeLsPoke);
  const std::vector<sweep::DiagonalWork> stream = tiny8_iteration(c);
  TimingEngine engine(c.cfg, c.deck.problem.grid(), c.nm);
  for (int iter = 0; iter < 2; ++iter)
    for (const sweep::DiagonalWork& w : stream) engine.on_diagonal(w);
  const int before = engine.blocks_fast_forwarded();
  engine.on_diagonal(stream[0]);
  if (hazard_env()) return;  // nothing is fast-forwarded under the checker
  ASSERT_EQ(engine.blocks_fast_forwarded(), before + 1);
  // The block was skipped, but a diagonal reporting the wrong line
  // count is not the block walker's next one: it throws where it is
  // fed, and leaves the block unfinished, so the run cannot end.
  sweep::DiagonalWork bad = stream[1];
  bad.nlines += 1;
  EXPECT_THROW(engine.on_diagonal(bad), std::logic_error);
  EXPECT_THROW(engine.gate(engine.horizon()), std::logic_error);
  EXPECT_THROW(engine.finish(), std::logic_error);
}

/// The ways a diagonal stream can drift from the block walker.
enum class Drift {
  kIndex,
  kLines,
  kBlock,
  kFixup,
  kLength,
  kKernel,
  kDrop,
  kRepeat
};

constexpr Drift kDrifts[] = {Drift::kIndex, Drift::kLines,  Drift::kBlock,
                             Drift::kFixup, Drift::kLength, Drift::kKernel,
                             Drift::kDrop,  Drift::kRepeat};

const char* drift_name(Drift drift) {
  switch (drift) {
    case Drift::kIndex:
      return "wrong index";
    case Drift::kLines:
      return "wrong line count";
    case Drift::kBlock:
      return "wrong block";
    case Drift::kFixup:
      return "wrong fixup flag";
    case Drift::kLength:
      return "wrong it";
    case Drift::kKernel:
      return "wrong kernel";
    case Drift::kDrop:
      return "dropped";
    case Drift::kRepeat:
      return "repeated";
  }
  return "?";
}

/// Applies @p drift to diagonal @p at of @p s; returns the index, in
/// the mutated stream, of the diagonal the engine must refuse (its size
/// when only finish can tell). A block or fixup flag changed at a
/// block's diagonal 0 opens another block, so the contract refuses the
/// block's diagonal 1.
std::size_t mutate(std::vector<sweep::DiagonalWork>& s, std::size_t at,
                   Drift drift) {
  sweep::DiagonalWork& w = s[at];
  const std::size_t opens = w.diagonal == 0 ? 1 : 0;
  switch (drift) {
    case Drift::kIndex:
      ++w.diagonal;
      return at;
    case Drift::kLines:
      ++w.nlines;
      return at;
    case Drift::kBlock:
      ++w.kblock;
      return at + opens;
    case Drift::kFixup:
      w.fixup = !w.fixup;
      return at + opens;
    case Drift::kLength:
      ++w.it;
      return at;
    case Drift::kKernel:
      w.kernel = w.kernel == sweep::KernelKind::kSimd
                     ? sweep::KernelKind::kScalar
                     : sweep::KernelKind::kSimd;
      return at;
    case Drift::kDrop:
      s.erase(s.begin() + static_cast<std::ptrdiff_t>(at));
      return at;
    case Drift::kRepeat: {
      const sweep::DiagonalWork copy = w;
      s.insert(s.begin() + static_cast<std::ptrdiff_t>(at) + 1, copy);
      return at + 1;
    }
  }
  return s.size();
}

/// Feeds @p s to a fresh engine: every diagonal before @p refused must
/// be accepted and that one refused with std::logic_error; gate and
/// finish must then throw too. Returns the blocks fast-forwarded.
int expect_refused_at(const Case& c, const CellSweepConfig& cfg,
                      const std::vector<sweep::DiagonalWork>& s,
                      std::size_t refused, const std::string& what) {
  TimingEngine engine(cfg, c.deck.problem.grid(), c.nm);
  for (std::size_t i = 0; i < refused && i < s.size(); ++i) {
    try {
      engine.on_diagonal(s[i]);
    } catch (const std::logic_error& e) {
      ADD_FAILURE() << what << ": refused diagonal " << i << " of " << s.size()
                    << ", expected " << refused << ": " << e.what();
      return engine.blocks_fast_forwarded();
    }
  }
  if (refused < s.size()) {
    EXPECT_THROW(engine.on_diagonal(s[refused]), std::logic_error)
        << what << ": accepted diagonal " << refused;
  }
  EXPECT_THROW(engine.gate(engine.horizon()), std::logic_error) << what;
  EXPECT_THROW(engine.finish(), std::logic_error) << what;
  return engine.blocks_fast_forwarded();
}

/// @p cfg's whole trace-driven diagonal stream of @p c's deck.
std::vector<sweep::DiagonalWork> full_stream(const Case& c,
                                             const CellSweepConfig& cfg) {
  std::vector<sweep::DiagonalWork> s;
  for (int iter = 0; iter < cfg.sweep.max_iterations; ++iter)
    enumerate_sweep(c.deck.problem.grid(), c.angles, cfg.sweep,
                    iter >= cfg.sweep.fixup_from_iteration,
                    [&](const sweep::DiagonalWork& w) { s.push_back(w); });
  return s;
}

TEST(TimingFastForward, EveryDriftThrowsAtItsDiagonal) {
  // Seeded mutation test of the block contract. Each seed takes a
  // random deck and configuration, three iterations, and one block the
  // engine replays and one it fast-forwards (random among them); in
  // each it mutates one diagonal at a random position in every way a
  // stream can drift. The engine must accept every diagonal before the
  // mutation and refuse the mutated one, and gate and finish must throw
  // after it. Positions are drawn so that the refusal falls inside the
  // target block (its replay or skip is checked); the boundary cases --
  // a block or fixup flag changed at diagonal 0, the last diagonal
  // repeated or dropped -- run on top. A failure names the seed and the
  // deck.
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng{seed * 0x9e37u};
    const std::string text = random_deck(seed);
    const OS stage = all_configs()[static_cast<std::size_t>(
        rng.in(0, static_cast<int>(all_configs().size()) - 1))];
    const Case c = make_case(text.c_str(), stage);
    const CellSweepConfig cfg = schedule(c, 3, rng.in(0, 3));
    const std::vector<sweep::DiagonalWork> stream = full_stream(c, cfg);
    const std::size_t ndiags = static_cast<std::size_t>(
        sweep::ChunkPlan::diagonals_per_block(cfg.sweep,
                                              c.deck.problem.grid().jt));
    ASSERT_GE(ndiags, 2u);
    // Which blocks a clean run skips.
    std::vector<bool> skipped;
    {
      TimingEngine engine(cfg, c.deck.problem.grid(), c.nm);
      for (const sweep::DiagonalWork& w : stream) {
        const int before = engine.blocks_fast_forwarded();
        engine.on_diagonal(w);
        if (w.diagonal == 0)
          skipped.push_back(engine.blocks_fast_forwarded() > before);
      }
      engine.finish();
    }
    ASSERT_EQ(skipped.size() * ndiags, stream.size());
    for (const bool ff : {false, true}) {
      std::vector<std::size_t> targets;
      for (std::size_t b = 0; b < skipped.size(); ++b)
        if (skipped[b] == ff) targets.push_back(b);
      if (targets.empty()) {
        EXPECT_TRUE(ff && hazard_env()) << "seed " << seed;
        continue;
      }
      const std::size_t b = targets[static_cast<std::size_t>(
          rng.in(0, static_cast<int>(targets.size()) - 1))];
      const int skipped_before = static_cast<int>(
          std::count(skipped.begin(),
                     skipped.begin() + static_cast<std::ptrdiff_t>(b), true));
      const std::size_t first = b * ndiags;
      for (const Drift drift : kDrifts) {
        // The block and fixup flag are the walker's from diagonal 1 on;
        // a repeated diagonal must not be the block's last.
        const int lo = drift == Drift::kBlock || drift == Drift::kFixup;
        const int hi =
            static_cast<int>(ndiags) - (drift == Drift::kRepeat ? 2 : 1);
        const std::size_t at = first + static_cast<std::size_t>(rng.in(lo, hi));
        std::vector<sweep::DiagonalWork> s = stream;
        const std::size_t refused = mutate(s, at, drift);
        const std::string what = "seed " + std::to_string(seed) + ", " +
                                 stage_name(stage) + ", " + drift_name(drift) +
                                 " diagonal " + std::to_string(at) + " in a " +
                                 (ff ? "fast-forwarded" : "replayed") +
                                 " block:\n" + text;
        const int skips = expect_refused_at(c, cfg, s, refused, what);
        EXPECT_EQ(skips, skipped_before + (ff ? 1 : 0)) << what;
      }
      // Boundary cases: a block or fixup flag changed at diagonal 0
      // opens another block, a repeated last diagonal opens one at a
      // diagonal past 0, and a dropped last diagonal leaves the block
      // waiting (at the stream's end only finish can tell).
      for (const auto& [drift, at] :
           {std::pair{Drift::kBlock, first}, std::pair{Drift::kFixup, first},
            std::pair{Drift::kRepeat, first + ndiags - 1},
            std::pair{Drift::kDrop, first + ndiags - 1}}) {
        std::vector<sweep::DiagonalWork> s = stream;
        const std::size_t refused = mutate(s, at, drift);
        expect_refused_at(c, cfg, s, refused,
                          "seed " + std::to_string(seed) + ", boundary " +
                              drift_name(drift) +
                              " diagonal " + std::to_string(at) + ":\n" +
                              text);
      }
      if (HasFailure()) return;  // the first failing seed is enough
    }
  }
}

TEST(TimingFastForward, RepeatedDriftThrowsWhereItStarts) {
  // A drift that every block repeats: each block still matches the
  // block before it, so only the block walker can tell. tiny8 at the
  // final stage, four iterations.
  const Case c = make_case(kTiny8, OS::kSpeLsPoke);
  const CellSweepConfig cfg = schedule(c, 4, 1);
  const std::vector<sweep::DiagonalWork> stream = full_stream(c, cfg);
  const std::size_t ndiags = static_cast<std::size_t>(
      sweep::ChunkPlan::diagonals_per_block(cfg.sweep,
                                            c.deck.problem.grid().jt));
  // Every block's last diagonal dropped: the second block's diagonal 0
  // is refused, as its first block still waits for its last diagonal.
  std::vector<sweep::DiagonalWork> dropped;
  for (const sweep::DiagonalWork& w : stream)
    if (w.diagonal + 1 != static_cast<int>(ndiags)) dropped.push_back(w);
  expect_refused_at(c, cfg, dropped, ndiags - 1,
                    "tiny8, the last diagonal of every block dropped");
  // Every diagonal one cell longer: refused at the first.
  std::vector<sweep::DiagonalWork> longer = stream;
  for (sweep::DiagonalWork& w : longer) ++w.it;
  expect_refused_at(c, cfg, longer, 0, "tiny8, it + 1 on every diagonal");
}

}  // namespace
}  // namespace cellsweep::core
