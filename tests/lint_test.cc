// Tests for the static deck linter: a clean deck lints clean, and
// decks that would blow the local-store budget, the tag-group space or
// the CBEA DMA rules are rejected before any simulation runs. Seeded
// shapes then pin that the linter, solve server admission and the
// runners agree on what fits in the local store.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <string>

#include "analysis/lint.h"
#include "cellsim/local_store.h"
#include "core/config.h"
#include "core/orchestrator.h"
#include "server/solve_server.h"
#include "sweep/deck.h"
#include "util/rng.h"
#include "workloads/stencil/stencil.h"

namespace cellsweep {
namespace {

const char* kGoodDeck = R"(
it 32  jt 32  kt 32
dx 0.125  dy 0.125  dz 0.125
mk 8  mmi 3
sn 6  moments 6
iterations 4  fixup_from 2
material m 1.0 0.5 0.2 0.05 source 1.0
)";

sweep::Deck deck_with(const std::string& extra) {
  return sweep::parse_deck_string(std::string(kGoodDeck) + extra);
}

core::CellSweepConfig final_stage() {
  return core::CellSweepConfig::from_stage(
      core::OptimizationStage::kSpeLsPoke);
}

bool has_rule(const analysis::Diagnostics& diags, const std::string& rule) {
  for (const analysis::Diagnostic& d : diags.entries())
    if (d.rule == rule) return true;
  return false;
}

TEST(Lint, CleanDeckLintsClean) {
  const sweep::Deck deck = deck_with("");
  const analysis::Diagnostics diags = analysis::lint_deck(deck, final_stage());
  EXPECT_TRUE(diags.empty()) << diags.summary();
}

TEST(Lint, EveryLadderStageAcceptsTheBenchmarkDeck) {
  const sweep::Deck deck = sweep::parse_deck_string(R"(
it 50  jt 50  kt 50
dx 0.04  dy 0.04  dz 0.04
mk 10  mmi 3
sn 6  moments 6
iterations 12  fixup_from 10
material benchmark 1.0 0.5 0.2 0.05 source 1.0
)");
  for (const core::OptimizationStage stage : {
           core::OptimizationStage::kPpeXlc,
           core::OptimizationStage::kSpeInitial,
           core::OptimizationStage::kSpeBuffered,
           core::OptimizationStage::kSpeLsPoke,
           core::OptimizationStage::kFutureBigDma,
           core::OptimizationStage::kFutureDistributed,
       }) {
    core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(stage);
    cfg.sweep = deck.sweep;
    const analysis::Diagnostics diags = analysis::lint_deck(deck, cfg);
    EXPECT_TRUE(diags.empty())
        << core::stage_name(stage) << ":\n"
        << diags.summary();
  }
}

TEST(Lint, OversizedChunkBlowsLsBudget) {
  // A 4000-cell I axis makes one chunk's staging buffer alone exceed
  // 256 KB -- the paper's Section 2 budgeting failure mode. The
  // diagnostic must name the byte counts and the buffer count.
  const sweep::Deck deck = sweep::parse_deck_string(R"(
it 4000  jt 8  kt 8
dx 0.04  dy 0.04  dz 0.04
mk 8  mmi 3
sn 6  moments 6
iterations 2  fixup_from 1
material m 1.0 0.5 0.2 0.05 source 1.0
)");
  const analysis::Diagnostics diags = analysis::lint_deck(deck, final_stage());
  ASSERT_TRUE(has_rule(diags, "ls-budget")) << diags.summary();
  EXPECT_TRUE(diags.has_errors());
  for (const analysis::Diagnostic& d : diags.entries()) {
    if (d.rule != "ls-budget") continue;
    EXPECT_NE(d.message.find("staging buffer"), std::string::npos);
    EXPECT_NE(d.message.find("local store"), std::string::npos);
    EXPECT_NE(d.where.find("it 4000"), std::string::npos);
  }
}

TEST(Lint, BadBlockingFactorRejected) {
  // MK must divide KT; the linter reuses the sweep validator. The deck
  // parser catches this for files, but a programmatically built deck
  // (or a future parser change) must still fail lint, not simulation.
  sweep::Deck deck = deck_with("");
  deck.sweep.mk = 7;  // kt = 32
  const analysis::Diagnostics diags = analysis::lint_deck(deck, final_stage());
  ASSERT_TRUE(has_rule(diags, "blocking")) << diags.summary();
  for (const analysis::Diagnostic& d : diags.entries())
    if (d.rule == "blocking")
      EXPECT_NE(d.where.find("mk 7"), std::string::npos) << d.where;
}

TEST(Lint, TagBudgetBoundsBufferCount) {
  core::CellSweepConfig cfg = final_stage();
  cfg.buffers = 20;  // needs 40 tag groups; the CBEA has 32
  const analysis::Diagnostics diags =
      analysis::lint_deck(deck_with(""), cfg);
  EXPECT_TRUE(has_rule(diags, "tag-budget")) << diags.summary();
}

TEST(Lint, GranularityMustBeQuadwordMultiple) {
  core::CellSweepConfig cfg = final_stage();
  cfg.dma_granularity = 520;  // not a multiple of 16
  const analysis::Diagnostics diags =
      analysis::lint_deck(deck_with(""), cfg);
  EXPECT_TRUE(has_rule(diags, "dma-granularity")) << diags.summary();
}

TEST(Lint, LoadedDeckCarriesItsSource) {
  // load_deck stamps the path; string decks stay "<string>". The
  // deck_runner lint path prefixes findings with it.
  EXPECT_EQ(deck_with("").source, "<string>");
}

// ---------------------------------------------------------------------
// Lint, admission and the runners agree on what fits in the LS
// ---------------------------------------------------------------------

/// One seeded input: a sweep deck or stencil spec, run under a ladder
/// stage that fixes precision, row alignment and buffer count.
struct FitCase {
  core::JobKind kind;
  std::string text;
  core::OptimizationStage stage;
};

/// Double and single precision, aligned and unaligned rows, one and two
/// staging buffers.
constexpr core::OptimizationStage kFitStages[] = {
    core::OptimizationStage::kSpeInitial,    // 1 buffer, unaligned rows
    core::OptimizationStage::kSpeAligned,    // 1 buffer, 128-byte rows
    core::OptimizationStage::kSpeLsPoke,     // 2 buffers, double
    core::OptimizationStage::kFutureSingle,  // 2 buffers, single
};

/// Seeds cycle through kFitStages; row lengths and block sizes are
/// drawn to straddle the 256 KB budget under each of them.
FitCase fit_case(core::JobKind kind, std::uint64_t seed) {
  util::SplitMix64 rng(seed);
  const auto pick = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<std::uint64_t>(
                                             hi - lo + 1));
  };
  FitCase c{kind, "", kFitStages[seed % std::size(kFitStages)]};
  if (kind == core::JobKind::kSweep) {
    c.text = "it " + std::to_string(pick(24, 900)) +
             "  jt 2  kt 2\ndx 0.04  dy 0.04  dz 0.04\nmk 2  mmi 3\n"
             "sn 6  moments " + std::to_string(pick(1, 6)) +
             "\niterations 1  fixup_from 1\n"
             "material m 1.0 0.5 0.2 0.05 source 1.0\n";
  } else {
    const int bx = pick(2, 40), by = pick(2, 28), bz = pick(2, 28);
    c.text = "nx " + std::to_string(2 * bx) + "  ny " +
             std::to_string(2 * by) + "  nz " + std::to_string(2 * bz) +
             "\nbx " + std::to_string(bx) + "  by " + std::to_string(by) +
             "  bz " + std::to_string(bz) + "\niterations 1\n";
  }
  return c;
}

bool lint_flags_ls_budget(const FitCase& c) {
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(c.stage);
  if (c.kind == core::JobKind::kStencil)
    return has_rule(
        analysis::lint_stencil(stencil::parse_spec_string(c.text), cfg),
        "ls-budget");
  const sweep::Deck deck = sweep::parse_deck_string(c.text);
  cfg.sweep = deck.sweep;
  return has_rule(analysis::lint_deck(deck, cfg), "ls-budget");
}

/// LS high-water mark of a solo trace-driven run, exactly as
/// deck_runner runs it; throws cell::LocalStoreOverflow when the
/// placement does not fit.
std::size_t run_high_water(const FitCase& c) {
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(c.stage);
  if (c.kind == core::JobKind::kStencil)
    return stencil::CellStencil(stencil::parse_spec_string(c.text), cfg)
        .run()
        .run.ls_high_water;
  const sweep::Deck deck = sweep::parse_deck_string(c.text);
  cfg.sweep = deck.sweep;
  return core::CellSweep3D(deck.problem, cfg, deck.sn_order, 2, deck.nm_cap)
      .run()
      .ls_high_water;
}

/// Admission verdict of a one-tenant server with @p ls_budget bytes
/// (nullopt = admitted).
std::optional<core::AdmissionError::Reason> admission(const FitCase& c,
                                                      std::size_t ls_budget) {
  core::ServerConfig cfg;
  cfg.tenants = 1;
  cfg.stage = c.stage;
  cfg.ls_budget_bytes = ls_budget;
  core::SolveServer server(cfg);
  core::JobRequest req;
  req.kind = c.kind;
  req.text = c.text;
  try {
    server.wait(server.submit(req));
  } catch (const core::AdmissionError& e) {
    return e.reason();
  }
  return std::nullopt;
}

TEST(LintAgreement, LintAdmissionAndRunnerAgreeOnLsFit) {
  for (const core::JobKind kind :
       {core::JobKind::kSweep, core::JobKind::kStencil}) {
    int fits = 0, overflows = 0;
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      const FitCase c = fit_case(kind, seed);
      SCOPED_TRACE(std::string(core::job_kind_name(kind)) + " seed " +
                   std::to_string(seed) + " (" + core::stage_name(c.stage) +
                   "):\n" + c.text);
      std::optional<std::size_t> high_water;
      try {
        high_water = run_high_water(c);
      } catch (const cell::LocalStoreOverflow&) {
      }
      // lint reports ls-budget exactly when the pipeline overflows.
      EXPECT_EQ(lint_flags_ls_budget(c), !high_water.has_value());
      if (!high_water) {
        ++overflows;
        EXPECT_EQ(admission(c, 0), core::AdmissionError::Reason::kLint);
        continue;
      }
      ++fits;
      // Admission's footprint plus the code reserve is the run's LS
      // high-water mark: a budget of exactly that admits, one byte
      // less bounces.
      const std::size_t footprint = *high_water - cell::kLsCodeReserveBytes;
      EXPECT_EQ(admission(c, footprint), std::nullopt);
      EXPECT_EQ(admission(c, footprint - 1),
                core::AdmissionError::Reason::kLsBudget);
    }
    // The seeded shapes land on both sides of the 256 KB budget.
    EXPECT_GT(fits, 0) << core::job_kind_name(kind);
    EXPECT_GT(overflows, 0) << core::job_kind_name(kind);
  }
}

TEST(LintAgreement, LintAdmissionAndRunAgreeOnMomentCount) {
  // Every deck runs at P2 (sweep::deck_moments), whatever order its
  // material scatters at: lint, admission and the solo run accept
  // moments 1-9 and refuse the rest, for materials with one to five
  // scattering moments (P0-P4).
  const char* const kScatter[] = {"0.5", "0.2", "0.05", "0.01", "0.005"};
  for (int orders = 1; orders <= 5; ++orders) {
    for (int moments = 1; moments <= 16; ++moments) {
      std::string text = "it 40  jt 4  kt 4\nsn 6  moments " +
                         std::to_string(moments) +
                         "\niterations 1\nmaterial m 1.0";
      for (int l = 0; l < orders; ++l) text += std::string(" ") + kScatter[l];
      text += " source 1.0\n";
      SCOPED_TRACE(text);
      const bool runs = moments <= 9;
      const FitCase c{core::JobKind::kSweep, text,
                      core::OptimizationStage::kSpeLsPoke};
      const core::JobInput input(c.kind, text, "<test>");
      const core::CellSweepConfig cfg =
          core::CellSweepConfig::from_stage(c.stage);
      const analysis::Diagnostics diags = input.lint(cfg);
      EXPECT_EQ(diags.has_errors(), !runs) << diags.summary();
      EXPECT_EQ(has_rule(diags, "moments"), !runs) << diags.summary();
      bool ran = true;
      try {
        input.run(cfg, core::RunMode::kFunctional, nullptr);
      } catch (const std::invalid_argument&) {
        ran = false;
      }
      EXPECT_EQ(ran, runs);
      EXPECT_EQ(admission(c, 0),
                runs ? std::nullopt
                     : std::optional(core::AdmissionError::Reason::kLint));
    }
  }
}

}  // namespace
}  // namespace cellsweep
