// The solo workloads: paper50-functional and fig5-ladder.
#include "solo.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "analysis/lint.h"
#include "core/metrics.h"
#include "core/orchestrator.h"
#include "core/workload.h"
#include "util/json.h"
#include "workloads.h"
#include "workloads/stencil/stencil.h"

namespace perfbench {

Prepared prepare_sweep(const std::string& text, core::OptimizationStage stage,
                       Tracer& tr) {
  Prepared p = [&] {
    auto s = tr.span("sweep.deck.parse");
    return Prepared(sweep::parse_deck_string(text));
  }();
  p.cfg = core::CellSweepConfig::from_stage(stage);
  p.cfg.sweep = p.deck.sweep;
  {
    auto s = tr.span("analysis.lint");
    const auto diags = cellsweep::analysis::lint_deck(p.deck, p.cfg);
    if (diags.has_errors())
      throw std::runtime_error("deck rejected by lint:\n" + diags.summary());
  }
  p.cfg.sweep.kernel = p.cfg.kernel;
  {
    // The solve server's plan build (SolveServer::plan_for_sweep): the
    // LQn tables plus the chunk-cost cache warmed for every shape a
    // diagonal can bundle into, with and without fixups.
    auto s = tr.span("core.plan.build");
    p.quad = std::make_unique<sweep::SnQuadrature>(p.deck.sn_order);
    p.nm = sweep::MomentTable(*p.quad, 2, p.deck.nm_cap).nm();
    if (p.cfg.use_spes) {
      p.kernels = std::make_unique<core::KernelCostModel>(p.cfg.chip);
      const int it = p.deck.problem.grid().it;
      for (int fixup = 0; fixup < 2; ++fixup)
        for (int nlines = 1; nlines <= sweep::kBundleLines; ++nlines) {
          p.kernels->chunk_cost(p.cfg.kernel, p.cfg.precision, nlines, it, p.nm,
                                fixup != 0, p.cfg.gotos_eliminated);
          ++p.shapes;
        }
    }
  }
  p.cfg.quadrature = p.quad.get();
  p.cfg.warm_kernels = p.kernels.get();
  return p;
}

namespace {

std::string metrics_json(const core::RunReport& r, Tracer& tr) {
  auto s = tr.span("core.report.emit");
  std::ostringstream os;
  core::write_metrics_json(os, r);
  return os.str();
}

/// CellSweep3D::run_on_spes, one public call per span.
core::RunReport traced_spe_run(const Prepared& p, core::RunMode mode,
                               Tracer& tr, std::uint64_t& diagonals) {
  if (p.cfg.precision != core::Precision::kDouble)
    throw std::logic_error("perfbench: traced runs are double precision only");
  const sweep::Grid& grid = p.deck.problem.grid();
  const sweep::SnQuadrature& quad = *p.quad;
  core::CellSweepConfig cfg = p.cfg;
  cfg.sweep.validate(grid.kt, quad.angles_per_octant());

  std::optional<core::TimingEngine> engine;
  {
    auto s = tr.span("core.timing.init");
    engine.emplace(cfg, grid, p.nm);
  }
  const sweep::DiagonalObserver obs = [&](const sweep::DiagonalWork& w) {
    auto s = tr.span("core.timing.on_diagonal");
    ++diagonals;
    engine->on_diagonal(w);
  };

  core::RunReport functional;
  if (mode == core::RunMode::kFunctional) {
    auto s = tr.span("sweep.physics");
    sweep::SweepState<double> state(p.deck.problem, quad, 2, p.deck.nm_cap);
    functional.solve = sweep::solve_source_iteration(state, cfg.sweep, obs);
    functional.absorption = state.absorption_rate();
    functional.leakage = state.leakage();
  } else {
    for (int iter = 0; iter < cfg.sweep.max_iterations; ++iter) {
      auto s = tr.span("core.enumerate");
      core::enumerate_sweep(grid, quad.angles_per_octant(), cfg.sweep,
                            iter >= cfg.sweep.fixup_from_iteration, obs);
    }
  }
  core::RunReport r;
  {
    auto s = tr.span("core.timing.finish");
    r = engine->finish();
    engine.reset();
  }
  r.solve = functional.solve;
  r.absorption = functional.absorption;
  r.leakage = functional.leakage;
  return r;
}

}  // namespace

Solved solve_sweep(const Prepared& p, core::RunMode mode, Tracer& tr) {
  Solved out;
  if (!tr.enabled()) {
    core::CellSweep3D solver(p.deck.problem, p.cfg, p.deck.sn_order, 2,
                             p.deck.nm_cap);
    out.report = solver.run(mode);
  } else if (p.cfg.use_spes) {
    out.report = traced_spe_run(p, mode, tr, out.diagonals);
  } else {
    // PPE stages have no timing engine: the run is the workload audit,
    // which replays the sweep enumeration.
    auto s = tr.span("core.enumerate");
    core::CellSweep3D solver(p.deck.problem, p.cfg, p.deck.sn_order, 2,
                             p.deck.nm_cap);
    out.report = solver.run(mode);
  }
  out.metrics_json = metrics_json(out.report, tr);
  return out;
}

StencilSolved solve_stencil(const stencil::StencilSpec& spec,
                            const core::CellSweepConfig& cfg, Tracer& tr) {
  StencilSolved out;
  if (!tr.enabled()) {
    stencil::CellStencil runner(spec, cfg);
    const stencil::StencilReport rep = runner.run(core::RunMode::kFunctional, 1);
    out.report = rep.run;
    out.checksum = rep.checksum;
    out.residual = rep.residual;
    return out;
  }
  {
    auto s = tr.span("core.timing.stencil");
    stencil::CellStencil runner(spec, cfg);
    out.report = runner.run(core::RunMode::kTraceDriven, 1).run;
  }
  auto s = tr.span("stencil.physics");
  stencil::StencilState state(spec);
  state.run(1);
  out.checksum = state.checksum();
  out.residual = state.residual();
  return out;
}

double rank_cpus(CpuRotation& cpus, const std::string& root) {
  Tracer off(false);
  const Prepared tiny =
      prepare_sweep(read_file(root + "/examples/decks/tiny8.deck"),
                    core::OptimizationStage::kSpeLsPoke, off);
  return cpus.rank([&] { solve_sweep(tiny, core::RunMode::kFunctional, off); },
                   3);
}

void setup_layers(const LayerMap& layers, double ops, PerLayer& l,
                  std::vector<Row>& rows) {
  const auto self = [&](const char* name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_s / ops;
  };
  l.parse_s = self("sweep.deck.parse");
  l.lint_s = self("analysis.lint");
  l.plan_build_s = self("core.plan.build");
  rows = {{"sweep.deck.parse", l.parse_s},
          {"analysis.lint", l.lint_s},
          {"core.plan.build", l.plan_build_s},
          {"unattributed", self("setup")}};
}

void solve_layers(const LayerMap& layers, double ops, PerLayer& l,
                  std::vector<Row>& rows) {
  // Every span below the root is a named layer (the core.timing.* calls
  // fold into one); the root's own self time is the unattributed rest.
  std::map<std::string, double> self;
  for (const auto& [name, layer] : layers) {
    const bool timing = name.rfind("core.timing", 0) == 0;
    self[timing ? "core.timing" : name] += layer.self_s / ops;
  }
  const double unattributed = self["solve"];
  self.erase("solve");
  rows.clear();
  for (const auto& [name, seconds] : self) rows.push_back({name, seconds});
  l.physics_self_s = self["sweep.physics"];
  l.timing_self_s = self["core.timing"];
  l.enumerate_self_s = self["core.enumerate"];
  l.report_emit_s = self["core.report.emit"];
  l.unattributed_s = unattributed;
  rows.push_back({"unattributed", unattributed});
}

namespace {

constexpr const char* kPaperDeck = "examples/decks/benchmark50.deck";
constexpr const char* kFig5Baseline = "bench/baselines/BENCH_fig5.json";

// benchmark50 at the final Figure 5 stage, functional on one host
// thread: simulated seconds and physics absorption. Both are
// deterministic; EXPERIMENTS.md quotes them rounded (1.31 s, 2.72031).
constexpr double kPaper50Seconds = 1.3068665710163201;
constexpr double kPaper50Absorption = 2.7203070699453518;

constexpr int kPaperSetups = 15;

/// Runs op(i) until the budget is spent: at least @p min_ops times, and
/// another time only while the median op so far still fits.
void run_budgeted(double budget_s, int min_ops,
                  const std::function<double(int)>& op) {
  const auto start = Clock::now();
  std::vector<double> took;
  for (int i = 0;; ++i) {
    took.push_back(op(i));
    const int n = i + 1;
    if (n >= min_ops && seconds_since(start) + median(took) > budget_s) break;
  }
}

std::string describe_mismatch(const char* what, double got, double want) {
  return std::string(what) + " " + json_number(got) + " != expected " +
         json_number(want);
}

}  // namespace

Result run_paper50(const Options& o) {
  Result res;
  res.threads = {{"host_threads", 1}};
  const std::string text = read_file(o.root + "/" + kPaperDeck);

  // Setup: parse, lint, quadrature and the warmed cost model, repeated
  // so the reported figure is a median, one CPU after another. A run
  // has room for only three or four solves, so the CPUs are first
  // ranked by a short solve of the same kind and visited fastest first.
  CpuRotation rotation;
  res.note("cpu_spread", rank_cpus(rotation, o.root), "ratio");
  Tracer setup_tr(o.trace);
  std::vector<double> setup_s;
  std::optional<Prepared> p;
  int shapes = 0;
  for (int i = 0; i < kPaperSetups; ++i) {
    rotation.pin(static_cast<std::size_t>(i));
    p.reset();
    const auto t0 = Clock::now();
    {
      auto s = setup_tr.span("setup");
      p.emplace(prepare_sweep(text, core::OptimizationStage::kSpeLsPoke,
                              setup_tr));
    }
    setup_s.push_back(seconds_since(t0));
    shapes = p->shapes;
  }

  // Solves. A traced run alternates untraced and traced solves so the
  // tracing overhead is measured within one process.
  Tracer tr(o.trace);
  Tracer off(false);
  std::vector<double> plain_s, traced_s;
  std::string first_json;
  Solved last;
  run_budgeted(o.seconds, 2, [&](int i) {
    // Each solve runs on the next CPU; a traced solve on the CPU of the
    // untraced one before it.
    rotation.pin(static_cast<std::size_t>(o.trace ? i / 2 : i));
    const bool traced = o.trace && i % 2 == 1;
    Tracer& t = traced ? tr : off;
    const auto t0 = Clock::now();
    Solved s;
    {
      auto sp = t.span("solve");
      s = solve_sweep(*p, core::RunMode::kFunctional, t);
    }
    const double dt = seconds_since(t0);
    (traced ? traced_s : plain_s).push_back(dt);
    if (first_json.empty()) first_json = s.metrics_json;
    const core::RunReport& r = s.report;
    std::string why;
    if (r.seconds != kPaper50Seconds)
      why = describe_mismatch("simulated seconds", r.seconds, kPaper50Seconds);
    else if (r.absorption != kPaper50Absorption)
      why = describe_mismatch("absorption", r.absorption, kPaper50Absorption);
    else if (s.metrics_json != first_json)
      why = std::string("metrics JSON differs from the first ") +
            "solve's (traced=" + (traced ? "1" : "0") + ")";
    res.op(why.empty(), "paper50 solve " + std::to_string(i) + ": " + why);
    if (traced) last = std::move(s);
    return dt;
  });
  const double peak = peak_rss_mb();

  res.note("samples.setup", static_cast<double>(setup_s.size()), "count");
  res.note("samples.solve", static_cast<double>(plain_s.size()), "count");
  res.note("median.solve_s", median(plain_s), "s");
  if (!o.trace) {
    // The fastest solve, as for each fig5 stage: the same deterministic
    // work every time, so a slower solve measured the CPU it ran on.
    const double best = *std::min_element(plain_s.begin(), plain_s.end());
    res.metric("setup_s", median(setup_s), "s");
    res.metric("solve_s", best, "s");
    res.metric("jobs_per_s", 1.0 / best, "1/s");
    res.metric("latency_p50_s", quantile(plain_s, 0.5), "s");
    res.metric("latency_p90_s", quantile(plain_s, 0.9), "s");
    res.metric("peak_rss_mb", peak, "MB");
    return res;
  }

  const double n_traced = static_cast<double>(traced_s.size());
  PerLayer l;
  setup_layers(setup_tr.by_name(), static_cast<double>(setup_s.size()), l,
               res.attribution["setup_s"]);
  solve_layers(tr.by_name(), n_traced, l, res.attribution["solve_s"]);
  l.plan_shapes = shapes;
  l.physics_cell_solves = static_cast<double>(last.report.cell_solves);
  l.physics_grind_ns = l.physics_self_s * 1e9 / l.physics_cell_solves;
  l.timing_diagonals = static_cast<double>(last.diagonals);
  l.timing_chunks = static_cast<double>(last.report.chunks);
  l.timing_dma_commands = static_cast<double>(last.report.dma_commands);
  l.timing_ns_per_chunk = l.timing_self_s * 1e9 / l.timing_chunks;
  l.timing_sim_rate = last.report.seconds / median(plain_s);
  l.report_bytes = static_cast<double>(last.metrics_json.size());
  l.trace_overhead_s = median(traced_s) - median(plain_s);
  l.error_rate = static_cast<double>(res.failed) /
                 static_cast<double>(res.attempted);
  add_per_layer(res, l);
  res.note("traced.setup_s", median(setup_s), "s");
  res.note("traced.solve_s", median(traced_s), "s");
  res.note("untraced.solve_s", median(plain_s), "s");
  res.spans = tr.by_path();
  for (const auto& [path, layer] : setup_tr.by_path()) res.spans[path] = layer;
  return res;
}

Result run_fig5(const Options& o) {
  using Stage = core::OptimizationStage;
  static constexpr Stage kLadder[] = {
      Stage::kPpeGcc,      Stage::kPpeXlc,      Stage::kSpeInitial,
      Stage::kSpeAligned,  Stage::kSpeBuffered, Stage::kSpeSimd,
      Stage::kSpeDmaLists, Stage::kSpeLsPoke,
  };
  Result res;
  res.threads = {{"host_threads", 1}};
  const std::string text = read_file(o.root + "/" + kPaperDeck);

  // Expected simulated seconds per stage: the checked-in baseline.
  std::map<std::string, double> expected;
  {
    const auto doc =
        cellsweep::util::parse_json(read_file(o.root + "/" + kFig5Baseline));
    const auto* runs = doc.find("runs");
    if (!runs || !runs->is_array())
      throw std::runtime_error(std::string(kFig5Baseline) + ": no runs");
    for (const auto& run : runs->array_v) {
      const auto* m = run.find("metrics");
      const auto* sec = m ? m->find("seconds") : nullptr;
      if (sec && sec->is_number())
        expected[run.string_or("name", "")] = sec->number_v;
    }
  }

  Tracer setup_tr(o.trace);
  Tracer tr(o.trace);
  Tracer off(false);
  std::vector<double> setup_s, plain_s, traced_s, stage_s;
  std::vector<std::vector<double>> by_stage(std::size(kLadder));
  std::map<std::string, std::string> first_json;
  PerLayer l;
  double ladder_sim_s = 0, spe_host_s = 0;
  std::vector<Prepared> ladder;
  CpuRotation rotation;
  run_budgeted(o.seconds, 2, [&](int pass) {
    // Each pass runs on the next CPU; a traced pass stays on the CPU of
    // the untraced pass before it, so the tracing overhead is measured
    // on one CPU.
    rotation.pin(static_cast<std::size_t>(o.trace ? pass / 2 : pass));
    // Every stage plans cold: a fresh parse, lint and calibration.
    ladder.clear();
    const auto t_setup = Clock::now();
    {
      auto s = setup_tr.span("setup");
      for (const Stage st : kLadder)
        ladder.push_back(prepare_sweep(text, st, setup_tr));
    }
    setup_s.push_back(seconds_since(t_setup));
    l.plan_shapes = 0;
    for (const Prepared& p : ladder) l.plan_shapes += p.shapes;

    const bool traced = o.trace && pass % 2 == 1;
    Tracer& t = traced ? tr : off;
    double pass_s = 0, diagonals = 0, chunks = 0, dma = 0, bytes = 0;
    double spe_sim = 0, spe_host = 0;
    for (std::size_t i = 0; i < ladder.size(); ++i) {
      const std::string name = core::stage_name(kLadder[i]);
      const auto t0 = Clock::now();
      Solved s;
      {
        auto sp = t.span("solve");
        s = solve_sweep(ladder[i], core::RunMode::kTraceDriven, t);
      }
      const double dt = seconds_since(t0);
      pass_s += dt;
      if (!traced) {
        stage_s.push_back(dt);
        by_stage[i].push_back(dt);
      }
      std::string& first = first_json[name];
      if (first.empty()) first = s.metrics_json;
      const auto want = expected.find(name);
      std::string why;
      if (want == expected.end())
        why = "stage missing from " + std::string(kFig5Baseline);
      else if (s.report.seconds != want->second)
        why = describe_mismatch("simulated seconds", s.report.seconds,
                                want->second);
      else if (s.metrics_json != first)
        why = "metrics JSON differs from the first pass's";
      res.op(why.empty(), name + " (pass " + std::to_string(pass) + "): " + why);
      if (ladder[i].cfg.use_spes) {
        diagonals += static_cast<double>(s.diagonals);
        chunks += static_cast<double>(s.report.chunks);
        dma += static_cast<double>(s.report.dma_commands);
        spe_sim += s.report.seconds;
        spe_host += dt;
      }
      bytes += static_cast<double>(s.metrics_json.size());
    }
    (traced ? traced_s : plain_s).push_back(pass_s);
    if (traced) {
      l.timing_diagonals = diagonals;
      l.timing_chunks = chunks;
      l.timing_dma_commands = dma;
      l.report_bytes = bytes;
    } else {
      ladder_sim_s += spe_sim;
      spe_host_s += spe_host;
    }
    return pass_s + setup_s.back();
  });
  const double peak = peak_rss_mb();

  res.note("samples.setup", static_cast<double>(setup_s.size()), "count");
  res.note("samples.ladder", static_cast<double>(plain_s.size()), "count");
  res.note("samples.stage_solve", static_cast<double>(stage_s.size()),
           "count");
  res.note("cpus_visited",
           static_cast<double>(std::min(rotation.cpus(), plain_s.size())),
           "count");
  // Each stage's time is its fastest solve of the run. A stage is the
  // same deterministic single-thread work on every pass, so a slower
  // solve is the host, not the program: on a shared host the same pass
  // took 2.5 to 4.1 s within one run, while a latency-bound ALU loop
  // timed between passes stayed within 7%. Summed per-stage medians
  // spread 36% (IQR/median) over eight runs; summed minimums 11%.
  std::vector<double> best;
  for (std::size_t i = 0; i < by_stage.size(); ++i) {
    best.push_back(*std::min_element(by_stage[i].begin(), by_stage[i].end()));
    res.note(std::string("stage_s.") + core::stage_name(kLadder[i]), best[i],
             "s");
    res.note(std::string("stage_median_s.") + core::stage_name(kLadder[i]),
             median(by_stage[i]), "s");
  }
  if (!o.trace) {
    double ladder_s = 0;
    for (const double s : best) ladder_s += s;
    res.metric("setup_s", median(setup_s), "s");
    res.metric("solve_s", ladder_s, "s");
    res.metric("jobs_per_s", static_cast<double>(std::size(kLadder)) / ladder_s,
               "1/s");
    res.metric("latency_p50_s", quantile(best, 0.5), "s");
    res.metric("latency_p90_s", quantile(best, 0.9), "s");
    res.metric("peak_rss_mb", peak, "MB");
    return res;
  }

  const double n_traced = static_cast<double>(traced_s.size());
  setup_layers(setup_tr.by_name(), static_cast<double>(setup_s.size()), l,
               res.attribution["setup_s"]);
  solve_layers(tr.by_name(), n_traced, l, res.attribution["solve_s"]);
  l.timing_ns_per_chunk = l.timing_self_s * 1e9 / l.timing_chunks;
  l.timing_sim_rate = ladder_sim_s / spe_host_s;
  l.trace_overhead_s = median(traced_s) - median(plain_s);
  l.error_rate = static_cast<double>(res.failed) /
                 static_cast<double>(res.attempted);
  add_per_layer(res, l);
  res.note("traced.solve_s", median(traced_s), "s");
  res.note("untraced.solve_s", median(plain_s), "s");
  res.spans = tr.by_path();
  for (const auto& [path, layer] : setup_tr.by_path()) res.spans[path] = layer;
  return res;
}

}  // namespace perfbench
