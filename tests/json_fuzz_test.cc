// Seeded fuzz / property tests for the five text parsers.
//
// Property under test: for any input -- valid, mutated, truncated or
// pure garbage -- util::parse_json either returns a value or throws
// util::JsonError, sweep::parse_deck_string either returns a deck or
// throws sweep::DeckError, stencil::parse_spec_string either returns a
// spec that passes validate() or throws stencil::StencilError, and the
// --faults and --arrivals spec grammars either yield a plan or throw
// sim::FaultSpecError / core::ArrivalSpecError. None may crash, hang,
// allocate unboundedly, or leak a foreign exception type. All
// randomness flows through util::SplitMix64, so every failure
// reproduces from the case number printed in the assertion message.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "core/arrival.h"
#include "sim/fault.h"
#include "sweep/deck.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/units.h"
#include "workloads/stencil/spec.h"

namespace cellsweep {
namespace {

// ---------------------------------------------------------------------------
// Shared fuzz plumbing.

/// Outcome of one parse attempt, for determinism comparisons.
enum class Outcome : unsigned char { kOk, kTypedError, kForeignError };

/// Structural bytes of the JSON grammar, which inserts favour.
constexpr std::string_view kJsonBytes = "{}[]\",:0123456789.eE+-tfn \\";

/// Mutates @p text in place: byte flips, inserts (biased toward
/// @p alphabet), deletes, span duplication and truncation, all drawn
/// from @p rng.
void mutate(std::string& text, util::SplitMix64& rng,
            std::string_view alphabet = kJsonBytes) {
  const int edits = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < edits; ++e) {
    if (text.empty()) {
      text.push_back(static_cast<char>(rng.next_below(256)));
      continue;
    }
    const std::size_t pos = rng.next_below(text.size());
    switch (rng.next_below(5)) {
      case 0:  // flip one byte to an arbitrary value
        text[pos] = static_cast<char>(rng.next_below(256));
        break;
      case 1:  // insert a byte biased toward structural characters
        text.insert(pos, 1, alphabet[rng.next_below(alphabet.size())]);
        break;
      case 2:  // delete a short span
        text.erase(pos, 1 + rng.next_below(4));
        break;
      case 3: {  // duplicate a short span elsewhere
        const std::size_t len =
            std::min<std::size_t>(1 + rng.next_below(8), text.size() - pos);
        text.insert(rng.next_below(text.size()), text.substr(pos, len));
        break;
      }
      default:  // truncate the tail
        text.resize(pos);
        break;
    }
  }
}

// ---------------------------------------------------------------------------
// util::parse_json

/// Corpus of valid documents in the shapes this repo actually emits
/// (metrics JSON, BENCH_*.json): nested objects, arrays of numbers,
/// escaped strings, null, bools, exponents and negative values.
const char* const kJsonCorpus[] = {
    R"({"schema":"cellsweep-metrics-v4","seconds":1.25e-3,"faults":null})",
    R"({"counters":{"mfc/retries":0,"spe0":{"busy_s":0.125,"idle_s":1}}})",
    R"([1,-2,3.5,4e8,0.0625,[true,false,null],"text with \"quotes\""])",
    R"({"runs":[{"name":"healthy","ok":true},{"name":"spe7_down","ok":true}]})",
    R"("a string with A escapes \n and \\ slashes")",
    R"({"empty_obj":{},"empty_arr":[],"nested":[[[0]]],"neg":-0.5})",
    "  -17.5e-2  ",
    "null",
};

/// Parses @p text under the fuzz contract: success or JsonError only.
Outcome parse_json_outcome(const std::string& text, const char* label) {
  try {
    (void)util::parse_json(text);
    return Outcome::kOk;
  } catch (const util::JsonError&) {
    return Outcome::kTypedError;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": foreign exception " << e.what()
                  << " for input: " << text;
  } catch (...) {
    ADD_FAILURE() << label << ": non-std exception for input: " << text;
  }
  return Outcome::kForeignError;
}

TEST(JsonFuzz, CorpusParsesClean) {
  for (const char* doc : kJsonCorpus)
    EXPECT_NO_THROW((void)util::parse_json(doc)) << doc;
}

TEST(JsonFuzz, MutatedDocumentsThrowTypedErrorOrParse) {
  for (std::uint64_t seed = 0; seed < 400; ++seed) {
    util::SplitMix64 rng(0xfadedbee00ULL + seed);
    std::string doc =
        kJsonCorpus[rng.next_below(std::size(kJsonCorpus))];
    mutate(doc, rng);
    const std::string label = "json mutation seed " + std::to_string(seed);
    EXPECT_NE(parse_json_outcome(doc, label.c_str()), Outcome::kForeignError);
  }
}

TEST(JsonFuzz, EveryPrefixOfAValidDocumentIsHandled) {
  for (const char* doc : kJsonCorpus) {
    const std::string full(doc);
    for (std::size_t len = 0; len < full.size(); ++len)
      (void)parse_json_outcome(full.substr(0, len), "json prefix");
  }
}

TEST(JsonFuzz, RandomGarbageNeverCrashes) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    util::SplitMix64 rng(0x6a7b6a7bULL ^ (seed * 977));
    std::string junk(rng.next_below(120), '\0');
    for (char& c : junk) c = static_cast<char>(rng.next_below(256));
    (void)parse_json_outcome(junk, "json garbage");
  }
}

/// @p depth nested arrays: "[[[...]]]", optionally left unclosed.
std::string nested_arrays(std::size_t depth, bool closed = true) {
  std::string doc(depth, '[');
  if (closed) doc.append(depth, ']');
  return doc;
}

TEST(JsonFuzz, NestingUpToTheDepthCapParses) {
  EXPECT_NO_THROW((void)util::parse_json(nested_arrays(1)));
  EXPECT_NO_THROW(
      (void)util::parse_json(nested_arrays(util::kMaxJsonDepth - 1)));
  EXPECT_NO_THROW(
      (void)util::parse_json(nested_arrays(util::kMaxJsonDepth)));
}

TEST(JsonFuzz, NestingJustPastTheCapThrowsTypedError) {
  EXPECT_THROW((void)util::parse_json(nested_arrays(util::kMaxJsonDepth + 1)),
               util::JsonError);
}

TEST(JsonFuzz, PathologicalDepthFailsInsteadOfOverflowingTheStack) {
  // Before the depth cap this was a stack overflow (one C++ frame per
  // '['), i.e. a crash any client feeding untrusted JSON could trigger.
  // Unclosed input makes the point sharper: the parser must reject at
  // the cap on the way *down*, not after matching brackets.
  EXPECT_THROW((void)util::parse_json(nested_arrays(200000, false)),
               util::JsonError);
  EXPECT_THROW((void)util::parse_json(nested_arrays(200000)),
               util::JsonError);
}

TEST(JsonFuzz, MixedObjectArrayNestingCountsBothContainerKinds) {
  // Each "{"k":[" pair opens two containers; the cap counts them all.
  std::string under, over;
  for (std::size_t i = 0; i < util::kMaxJsonDepth / 2; ++i)
    under += R"({"k":[)";
  over = under + R"({"k":[)";
  std::string under_closed = under + "0";
  std::string over_closed = over + "0";
  for (std::size_t i = 0; i < util::kMaxJsonDepth / 2; ++i)
    under_closed += "]}";
  for (std::size_t i = 0; i < util::kMaxJsonDepth / 2 + 1; ++i)
    over_closed += "]}";
  EXPECT_NO_THROW((void)util::parse_json(under_closed));
  EXPECT_THROW((void)util::parse_json(over_closed), util::JsonError);
}

TEST(JsonFuzz, DepthErrorMessageNamesTheCap) {
  try {
    (void)util::parse_json(nested_arrays(util::kMaxJsonDepth + 1));
    FAIL() << "depth cap not enforced";
  } catch (const util::JsonError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  std::to_string(util::kMaxJsonDepth)),
              std::string::npos)
        << e.what();
  }
}

TEST(JsonFuzz, OutcomesAreDeterministicPerSeed) {
  auto sweep_outcomes = [] {
    std::vector<Outcome> out;
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
      util::SplitMix64 rng(0xd00dfeedULL + seed);
      std::string doc =
          kJsonCorpus[rng.next_below(std::size(kJsonCorpus))];
      mutate(doc, rng);
      out.push_back(parse_json_outcome(doc, "json determinism"));
    }
    return out;
  };
  EXPECT_EQ(sweep_outcomes(), sweep_outcomes());
}

// ---------------------------------------------------------------------------
// sweep::parse_deck_string

const char* const kDeckCorpus[] = {
    // The paper's benchmark deck shape.
    "it 16  jt 16  kt 16\n"
    "dx 0.04  dy 0.04  dz 0.04\n"
    "mk 4\nmmi 3\nsn 6\nmoments 4\niterations 4\nfixup_from 2\n"
    "material benchmark 1.0 0.5 0.2 source 1.0\n",
    // Regions, boundaries and comments.
    "# shielded block\nit 8 jt 8 kt 8\n"
    "material air 0.1 0.05 source 0.0\n"
    "material shield 8.0 0.4 source 0.0\n"
    "region 1 2 6 0 8 0 8\n"
    "bc west reflective\nbc top vacuum\n",
    // Keys sharing lines, acceleration toggle.
    "it 8 jt 10 kt 12 epsilon 1e-5 accelerate 1\n"
    "material m 1.0 0.5 source 1.0\n",
};

Outcome parse_deck_outcome(const std::string& text, const char* label) {
  try {
    (void)sweep::parse_deck_string(text);
    return Outcome::kOk;
  } catch (const sweep::DeckError&) {
    return Outcome::kTypedError;
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": foreign exception " << e.what()
                  << " for deck: " << text;
  } catch (...) {
    ADD_FAILURE() << label << ": non-std exception for deck: " << text;
  }
  return Outcome::kForeignError;
}

TEST(DeckFuzz, CorpusParsesClean) {
  for (const char* deck : kDeckCorpus)
    EXPECT_NO_THROW((void)sweep::parse_deck_string(deck)) << deck;
}

TEST(DeckFuzz, MutatedDecksThrowDeckErrorOrParse) {
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    util::SplitMix64 rng(0xdecdecdecULL + seed);
    std::string deck =
        kDeckCorpus[rng.next_below(std::size(kDeckCorpus))];
    mutate(deck, rng);
    const std::string label = "deck mutation seed " + std::to_string(seed);
    EXPECT_NE(parse_deck_outcome(deck, label.c_str()), Outcome::kForeignError);
  }
}

TEST(DeckFuzz, RandomTokenSoupNeverCrashes) {
  // Decks assembled from the parser's own vocabulary plus junk: this
  // reaches deeper than byte noise because most lines pass the keyword
  // switch and die (or survive) in the value handling instead.
  const char* const vocab[] = {
      "it",     "jt",       "kt",       "dx",         "dy",     "dz",
      "mk",     "mmi",      "sn",       "moments",    "region", "material",
      "bc",     "west",     "top",      "reflective", "vacuum", "source",
      "epsilon", "iterations", "accelerate", "fixup_from",
      "8",      "0",        "-3",       "1.0",        "1e99",   "nan",
      "0.5",    "99999999999999999999", "zz",         "#",
  };
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    util::SplitMix64 rng(0x50a1ad00ULL + seed * 31);
    std::string deck;
    const int tokens = 2 + static_cast<int>(rng.next_below(40));
    for (int t = 0; t < tokens; ++t) {
      deck += vocab[rng.next_below(std::size(vocab))];
      deck += rng.next_below(5) == 0 ? '\n' : ' ';
    }
    const std::string label = "deck soup seed " + std::to_string(seed);
    (void)parse_deck_outcome(deck, label.c_str());
  }
}

TEST(DeckFuzz, OversizedGridsAreRejectedBeforeAllocation) {
  // The robustness caps must fire as DeckError, not as bad_alloc or an
  // overflowed cells() product.
  EXPECT_THROW((void)sweep::parse_deck_string(
                   "it 100000 jt 100000 kt 100000\n"
                   "material m 1.0 0.5 source 1.0\n"),
               sweep::DeckError);
  EXPECT_THROW((void)sweep::parse_deck_string(
                   "it 4096 jt 4096 kt 4096\n"
                   "material m 1.0 0.5 source 1.0\n"),
               sweep::DeckError);
  EXPECT_THROW((void)sweep::parse_deck_string(
                   "it 8 jt 8 kt 8 moments 5000\n"
                   "material m 1.0 0.5 source 1.0\n"),
               sweep::DeckError);
}

// ---------------------------------------------------------------------------
// The --faults and --arrivals spec grammars: sim::parse_fault_spec +
// sim::FaultPlan, core::parse_arrival_spec + core::ArrivalPlan.

/// Runs @p Digest on @p text under the fuzz contract: it returns a
/// digest of the plan's first scheduled decisions, or throws @p Error,
/// which becomes "error: <message>". One seed must produce the same
/// text on every run. Any other exception fails the test under
/// @p label, which names the seed.
template <typename Error, std::string (*Digest)(const std::string&)>
std::string outcome_of(const std::string& text, const std::string& label) {
  try {
    return Digest(text);
  } catch (const Error& e) {
    return std::string("error: ") + e.what();
  } catch (const std::exception& e) {
    ADD_FAILURE() << label << ": foreign exception " << e.what()
                  << " for spec: " << text;
  } catch (...) {
    ADD_FAILURE() << label << ": non-std exception for spec: " << text;
  }
  return "foreign";
}

std::string hex(double v) { return util::cformat("%a", v); }

std::string fault_digest(const std::string& text) {
  const sim::FaultPlan plan(sim::parse_fault_spec(text));
  std::string d = "ok";
  for (std::uint64_t seq = 0; seq < 16; ++seq) {
    const int unit = static_cast<int>(seq % 8);
    d += ' ' + std::to_string(plan.dma_failures(unit, seq)) +
         (plan.tag_timeout(unit, seq) ? 't' : '-') +
         std::to_string(plan.dispatch_drops(seq)) +
         (plan.mic_throttle(seq) ? 'm' : '-');
  }
  d += " x" + hex(plan.mic_throttle_factor());
  for (int spe = 0; spe < 8; ++spe)
    d += ' ' + std::to_string(plan.spe_fail_after(spe)) + '/' +
         hex(plan.spe_compute_scale(spe));
  return d;
}

std::string arrival_digest(const std::string& text) {
  const core::ArrivalPlan plan(core::parse_arrival_spec(text));
  std::string d = "ok " + std::to_string(plan.total());
  for (const core::TenantArrivals& t : plan.spec().tenants)
    for (std::uint64_t seq = 0; seq < std::min<std::uint64_t>(t.count, 4);
         ++seq)
      d += ' ' + hex(plan.arrival_s(t.tenant, seq));
  return d;
}

/// One comma-separated key=value grammar under fuzz.
struct SpecGrammar {
  const char* name;
  std::vector<std::string> corpus;  ///< valid specs
  std::vector<std::string> keys;    ///< entry keys, real and junk
  std::vector<std::string> values;  ///< ':'-separated value fields
  std::string (*outcome)(const std::string& text, const std::string& label);
};

const SpecGrammar kFaultGrammar{
    "faults",
    {"seed=42,dma=0.001,spe=7:down",
     "seed=7,dma=0.05,timeout=0.01,drop=0.02,throttle=0.5:0.25,retries=3",
     "spe=0:after:120,spe=3:slow:2.5,,",
     "throttle=1,retries=0,seed=18446744073709551615"},
    {"seed", "dma", "timeout", "drop", "throttle", "retries", "spe", "zz", ""},
    {"0", "1", "7", "30", "31", "255", "256", "0.5", "0.001", "2.5", "1e-3",
     "-1", "nan", "inf", "down", "after", "slow", "99999999999999999999",
     " 1", ""},
    outcome_of<sim::FaultSpecError, fault_digest>};

const SpecGrammar kArrivalGrammar{
    "arrivals",
    {"seed=42,tenant=0:rate:50:6,tenant=1:burst:4",
     "tenant=0:rate:8:24:0.5,tenant=1:burst:6:0.25",
     "seed=3,tenant=2:trace:0.1;0.5;0.9,"},
    {"seed", "tenant", "zz", ""},
    {"0", "1", "2", "8", "4095", "4096", "0.5", "1e-9", "1e9", "1e10", "-1",
     "nan", "inf", "rate", "burst", "trace", "0.1;0.5", "0.5;0.1", "1;",
     "1048576", "1048577", "99999999999999999999", " 1", ""},
    outcome_of<core::ArrivalSpecError, arrival_digest>};

const SpecGrammar* const kSpecGrammars[] = {&kFaultGrammar, &kArrivalGrammar};

/// Spec case @p seed of @p g: a mutated corpus entry (even seeds), or
/// 1-4 entries of a key and 1-4 value fields drawn from the grammar's
/// own tokens (odd seeds).
std::string spec_case(const SpecGrammar& g, std::uint64_t seed) {
  util::SplitMix64 rng(0x5bec5bec00ULL + seed);
  std::string text;
  if (seed % 2 == 0) {
    text = g.corpus[rng.next_below(g.corpus.size())];
    mutate(text, rng, "=,:;.0123456789-e ");
    return text;
  }
  const int entries = 1 + static_cast<int>(rng.next_below(4));
  for (int e = 0; e < entries; ++e) {
    text += (e > 0 ? "," : "") + g.keys[rng.next_below(g.keys.size())] + '=';
    const int fields = 1 + static_cast<int>(rng.next_below(4));
    for (int f = 0; f < fields; ++f)
      text += (f > 0 ? ":" : "") + g.values[rng.next_below(g.values.size())];
  }
  return text;
}

/// Every case outcome of @p g for seeds [0, n), in seed order.
std::vector<std::string> spec_outcomes(const SpecGrammar& g,
                                       std::uint64_t n) {
  std::vector<std::string> out;
  for (std::uint64_t seed = 0; seed < n; ++seed)
    out.push_back(g.outcome(spec_case(g, seed),
                            std::string(g.name) + " case seed " +
                                std::to_string(seed)));
  return out;
}

TEST(SpecFuzz, CorporaParseClean) {
  for (const SpecGrammar* g : kSpecGrammars)
    for (const std::string& spec : g->corpus)
      EXPECT_EQ(g->outcome(spec, g->name).rfind("ok", 0), 0u)
          << g->name << ": " << spec;
}

TEST(SpecFuzz, CasesYieldAPlanOrTheTypedError) {
  for (const SpecGrammar* g : kSpecGrammars) {
    int ok = 0, errors = 0;
    for (const std::string& o : spec_outcomes(*g, 600)) {
      ok += o.rfind("ok", 0) == 0 ? 1 : 0;
      errors += o.rfind("error: ", 0) == 0 ? 1 : 0;
    }
    EXPECT_EQ(ok + errors, 600) << g->name;
    // Both sides of the grammar are exercised.
    EXPECT_GT(ok, 0) << g->name;
    EXPECT_GT(errors, 0) << g->name;
  }
}

TEST(SpecFuzz, OutcomesAreDeterministicPerSeed) {
  for (const SpecGrammar* g : kSpecGrammars) {
    const std::vector<std::string> a = spec_outcomes(*g, 200);
    const std::vector<std::string> b = spec_outcomes(*g, 200);
    for (std::size_t seed = 0; seed < a.size(); ++seed)
      EXPECT_EQ(a[seed], b[seed]) << g->name << " case seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// stencil::parse_spec_string: the .stencil grammar.

/// examples/decks/tiny8.stencil and examples/decks/heat32.stencil.
const std::vector<std::string> kStencilCorpus = {
    "# Smallest useful stencil spec: one 8^3 grid of 2^3 blocks.\n"
    "# Used as the CI smoke input for the stencil workload path.\n"
    "\n"
    "nx 8  ny 8  nz 8\n"
    "bx 4  by 4  bz 4\n"
    "iterations 2\n",
    "# Red-black Gauss-Seidel relaxation of the Poisson equation\n"
    "# -6 u = h^2 f on a 32^3 grid with Dirichlet zero boundaries --\n"
    "# the lattice-QCD-style streaming shape (arXiv:0710.2442) ported\n"
    "# onto the same Cell machine model as the sweep.\n"
    "#\n"
    "#   $ ./deck_runner examples/decks/heat32.stencil\n"
    "\n"
    "nx 32  ny 32  nz 32\n"
    "bx 8   by 8   bz 8\n"
    "iterations 4\n"
    "h 1.0\n"
    "source 1.0\n",
};

/// A parsed spec, field by field, once validate() has passed again.
std::string stencil_digest(const std::string& text) {
  const stencil::StencilSpec spec = stencil::parse_spec_string(text);
  spec.validate();
  std::string d = "ok";
  for (const int v : {spec.nx, spec.ny, spec.nz, spec.bx, spec.by, spec.bz,
                      spec.iterations})
    d += ' ' + std::to_string(v);
  return d + ' ' + hex(spec.h) + ' ' + hex(spec.source);
}

/// @p text's outcome under the fuzz contract (outcome_of).
std::string stencil_outcome(const std::string& text,
                            const std::string& label) {
  return outcome_of<stencil::StencilError, stencil_digest>(text, label);
}

/// Stencil case @p seed: a mutated corpus spec (even seeds), or 1-12
/// keys and values drawn from the grammar's own tokens and junk,
/// separated by spaces and line breaks (odd seeds).
std::string stencil_case(std::uint64_t seed) {
  util::SplitMix64 rng(0x57e2c11ULL + seed);
  if (seed % 2 == 0) {
    std::string text = kStencilCorpus[rng.next_below(kStencilCorpus.size())];
    mutate(text, rng, "0123456789 \n#.-+e");
    return text;
  }
  const char* const keys[] = {"nx", "ny",     "nz", "bx", "by",
                              "bz", "iterations", "h", "source", "zz", "#"};
  const char* const values[] = {
      "0",    "1",    "2",    "3",   "4",    "8",    "16",   "32",
      "1024", "1025", "-8",   "0.5", "1e-3", "-1.0", "nan",  "inf",
      "1e999", "10000", "10001", "99999999999999999999", "x", ""};
  std::string text;
  const int pairs = 1 + static_cast<int>(rng.next_below(12));
  for (int p = 0; p < pairs; ++p) {
    text += keys[rng.next_below(std::size(keys))];
    text += ' ';
    text += values[rng.next_below(std::size(values))];
    text += rng.next_below(3) == 0 ? "\n" : "  ";
  }
  return text;
}

/// Every stencil case outcome for seeds [0, n), in seed order.
std::vector<std::string> stencil_outcomes(std::uint64_t n) {
  std::vector<std::string> out;
  for (std::uint64_t seed = 0; seed < n; ++seed)
    out.push_back(stencil_outcome(stencil_case(seed),
                                  "stencil case seed " + std::to_string(seed)));
  return out;
}

TEST(StencilFuzz, CorpusParsesClean) {
  for (const std::string& spec : kStencilCorpus)
    EXPECT_EQ(stencil_outcome(spec, "corpus").rfind("ok", 0), 0u) << spec;
}

TEST(StencilFuzz, CasesYieldAValidSpecOrTheTypedError) {
  const std::vector<std::string> outcomes = stencil_outcomes(800);
  int ok = 0, errors = 0;
  for (std::size_t seed = 0; seed < outcomes.size(); ++seed) {
    const bool valid = outcomes[seed].rfind("ok", 0) == 0;
    const bool typed = outcomes[seed].rfind("error: ", 0) == 0;
    EXPECT_TRUE(valid || typed) << "stencil case seed " << seed;
    ok += valid ? 1 : 0;
    errors += typed ? 1 : 0;
  }
  // Both sides of the grammar are exercised.
  EXPECT_GT(ok, 0);
  EXPECT_GT(errors, 0);
}

TEST(StencilFuzz, OutcomesAreDeterministicPerSeed) {
  const std::vector<std::string> a = stencil_outcomes(300);
  const std::vector<std::string> b = stencil_outcomes(300);
  for (std::size_t seed = 0; seed < a.size(); ++seed)
    EXPECT_EQ(a[seed], b[seed]) << "stencil case seed " << seed;
}

}  // namespace
}  // namespace cellsweep
