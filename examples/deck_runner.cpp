// Deck runner: the classic Sweep3D workflow -- point the binary at an
// input deck, get the solve and the simulated Cell performance report.
// A ".stencil" file selects the red-black stencil workload on the same
// machine model instead. Every input, solo or served, goes through
// core::JobInput: one parse, lint and run path for deck_runner and
// core::SolveServer alike.
//
//   $ ./deck_runner examples/decks/benchmark50.deck
//   $ ./deck_runner examples/decks/shield_reflected.deck --stage=simd
//   $ ./deck_runner examples/decks/benchmark50.deck --trace trace.json
//         --metrics metrics.json     # chrome://tracing + JSON metrics
//   $ ./deck_runner examples/decks/benchmark50.deck --check   # hazard check
//   $ ./deck_runner examples/decks/heat32.stencil
//   $ ./deck_runner lint examples/decks/*.deck examples/decks/*.stencil
//   $ ./deck_runner serve --tenants=2 a.deck b.deck heat32.stencil
//   $ ./deck_runner serve --metrics-out=prom.txt --metrics-interval=200
//         --trace jobs.json --metrics server.json
//         --flight-recorder=flightrec a.deck b.deck   # server telemetry
//
// The subcommand is the first argument (lint, serve, or an input file
// for a run), and each subcommand accepts only its own flags.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <thread>

#include "analysis/diagnostics.h"
#include "analysis/hazard.h"
#include "core/arrival.h"
#include "core/job_trace.h"
#include "core/metrics.h"
#include "core/metrics_registry.h"
#include "server/arrival_driver.h"
#include "server/solve_server.h"
#include "sim/counters.h"
#include "sim/trace.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/units.h"

using namespace cellsweep;

namespace {

/// The --stage names; throws util::CliError on anything else.
core::OptimizationStage stage_from_name(const std::string& name) {
  if (name == "ppe") return core::OptimizationStage::kPpeXlc;
  if (name == "initial") return core::OptimizationStage::kSpeInitial;
  if (name == "simd") return core::OptimizationStage::kSpeSimd;
  if (name == "final") return core::OptimizationStage::kSpeLsPoke;
  throw util::CliError("unknown stage '" + name +
                       "' (valid: ppe | initial | simd | final)");
}

/// --name as a count >= 1; throws util::CliError otherwise.
int positive_flag(const util::CliParser& cli, const std::string& name) {
  const long v = cli.get_int(name);
  if (v < 1 || v > std::numeric_limits<int>::max())
    throw util::CliError("flag --" + name + ": '" + cli.get_string(name) +
                         "' is not a positive integer");
  return static_cast<int>(v);
}

/// --faults as a fault plan (empty = none); throws util::CliError.
sim::FaultSpec faults_flag(const util::CliParser& cli) {
  const std::string arg = cli.get_string("faults");
  if (arg.empty()) return {};
  try {
    return sim::parse_fault_spec(arg);
  } catch (const sim::FaultSpecError& e) {
    throw util::CliError(std::string("--faults: ") + e.what());
  }
}

/// --name as comma-separated integers (empty = none); throws
/// util::CliError on a token that is not an integer.
std::vector<int> int_list_flag(const util::CliParser& cli,
                               const std::string& name) {
  const std::string text = cli.get_string(name);
  std::vector<int> out;
  for (std::size_t from = 0; !text.empty() && from <= text.size();) {
    const std::size_t at = std::min(text.find(',', from), text.size());
    const std::string tok = text.substr(from, at - from);
    try {
      std::size_t used = 0;
      out.push_back(std::stoi(tok, &used));
      if (used != tok.size()) throw std::invalid_argument(tok);
    } catch (const std::exception&) {
      throw util::CliError("--" + name + ": '" + tok +
                           "' is not an integer");
    }
    from = at + 1;
  }
  return out;
}

/// --functional as a run mode.
core::RunMode mode_flag(const util::CliParser& cli) {
  return cli.get_bool("functional") ? core::RunMode::kFunctional
                                    : core::RunMode::kTraceDriven;
}

/// The text of file @p path, or nullopt (reported on stderr) when it
/// cannot be read.
std::optional<std::string> read_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    std::cerr << path << ": error[io]: cannot open file\n";
    return std::nullopt;
  }
  std::ostringstream text;
  text << is.rdbuf();
  return text.str();
}

/// File @p path parsed in the grammar its suffix selects, or nullopt
/// (reported on stderr) when it cannot be read or parsed.
std::optional<core::JobInput> load_input(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text) return std::nullopt;
  try {
    return core::JobInput(core::JobInput::kind_for(path), *text, path);
  } catch (const core::AdmissionError& e) {
    std::cerr << path << ": error[parse]: " << e.what() << "\n";
    return std::nullopt;
  }
}

/// `deck_runner lint <file>...`: statically validate inputs
/// (chunk/block shape vs. LS budget, grammar consistency, DMA legality)
/// without running any simulation. Exit code is the number of failing
/// files.
int run_lint(const std::vector<std::string>& paths,
             core::OptimizationStage stage) {
  int failed = 0;
  for (const std::string& path : paths) {
    const std::optional<core::JobInput> input = load_input(path);
    if (!input) {
      ++failed;
      continue;
    }
    const analysis::Diagnostics diags =
        input->lint(core::CellSweepConfig::from_stage(stage));
    for (const analysis::Diagnostic& d : diags.entries())
      std::cerr << input->source() << ": " << d.to_string() << "\n";
    if (diags.has_errors()) {
      ++failed;
    } else {
      std::cout << input->source() << ": ok\n";
    }
  }
  return failed;
}

/// Output file @p path, opened for writing; a failed stream (reported
/// on stderr) when it cannot be.
std::ofstream open_output(const std::string& path, const char* what) {
  std::ofstream os(path);
  if (!os)
    std::cerr << "deck_runner: cannot write " << what << " file " << path
              << "\n";
  return os;
}

/// The machine-side report both workloads share: headline timing, the
/// per-SPE stall breakdown, fault accounting, counter summary, and the
/// trace/metrics file outputs. Returns a process exit code.
int emit_report(const core::RunReport& rep, core::OptimizationStage stage,
                std::size_t profile_windows, const std::string& trace_path,
                const std::string& metrics_path,
                sim::ChromeTraceWriter& writer) {
  std::cout << "Cell (" << core::stage_name(stage)
            << "): " << util::format_seconds(rep.seconds) << ", "
            << util::format_bytes(rep.traffic_bytes) << " traffic, grind "
            << util::format_seconds(rep.grind_seconds) << "/solve, "
            << util::format_flops(rep.achieved_flops_per_s) << "\n";

  // Per-SPE stall breakdown: where the simulated time went.
  const std::vector<core::SpeStalls> stalls = core::spe_stalls(rep);
  if (!stalls.empty()) {
    util::TextTable table(
        {"SPE", "busy [s]", "DMA wait [s]", "sync wait [s]", "idle [s]"});
    char buf[32];
    auto f = [&](double v) {
      std::snprintf(buf, sizeof buf, "%.3f", v);
      return std::string(buf);
    };
    for (std::size_t s = 0; s < stalls.size(); ++s) {
      const core::SpeStalls& st = stalls[s];
      table.add_row({"SPE" + std::to_string(s), f(st.busy_s),
                     f(st.dma_wait_s), f(st.sync_wait_s), f(st.idle_s)});
    }
    table.print(std::cout);
    std::cout << "MIC utilization " << util::format_percent(rep.mic_utilization)
              << ", EIB utilization "
              << util::format_percent(rep.eib_utilization) << "\n";
  }

  // --faults: what the injector actually did to this run.
  if (const sim::CounterSet* f = rep.counters.find_child("faults")) {
    const auto n = [f](const char* counter) {
      return static_cast<std::uint64_t>(f->value(counter));
    };
    std::cout << "Faults: " << n("spes_disabled") << " SPE(s) disabled, "
              << n("spes_failed") << " failed mid-sweep, "
              << n("redispatched_chunks") << " chunk(s) re-dispatched; "
              << n("dma_retry_attempts") << " DMA retries, "
              << n("tag_timeouts") << " tag timeouts, "
              << n("dropped_messages") << " dropped messages, "
              << n("mic_throttled_requests") << " throttled MIC requests\n";
  }

  // --counters: the aggregate hardware-counter summary plus the profile
  // shape. The full tree is in --metrics output.
  if (profile_windows != 0) {
    const sim::CounterSet* tot = rep.counters.find_child("spe_total");
    const sim::CounterSet* pipe = tot ? tot->find_child("pipeline") : nullptr;
    const sim::CounterSet* mfc = tot ? tot->find_child("mfc") : nullptr;
    if (pipe != nullptr) {
      const double issue = pipe->value("issue_cycles");
      std::cout << "SPU pipeline: "
                << static_cast<std::uint64_t>(pipe->value("instructions"))
                << " instructions, "
                << util::format_percent(pipe->value("dual_issues") /
                                        (issue > 0 ? issue : 1.0))
                << " dual-issue, "
                << static_cast<std::uint64_t>(pipe->value("flops"))
                << " flops\n";
    }
    if (mfc != nullptr) {
      std::cout << "MFC: "
                << static_cast<std::uint64_t>(mfc->value("commands"))
                << " commands ("
                << static_cast<std::uint64_t>(mfc->value("get_commands"))
                << " get / "
                << static_cast<std::uint64_t>(mfc->value("put_commands"))
                << " put / "
                << static_cast<std::uint64_t>(mfc->value("list_commands"))
                << " list), queue-full "
                << util::format_seconds(sim::seconds_from_ticks(
                       static_cast<sim::Tick>(mfc->value("queue_full_ticks"))))
                << "\n";
    }
    std::cout << "Profile: " << rep.timeseries.window_count()
              << " windows of "
              << util::format_seconds(
                     sim::seconds_from_ticks(rep.timeseries.window_ticks))
              << "\n";
  }

  if (!trace_path.empty()) {
    std::ofstream os = open_output(trace_path, "trace");
    if (!os) return 1;
    writer.write(os);
    std::cout << "Trace: " << writer.event_count() << " events on "
              << writer.track_count() << " tracks -> " << trace_path << "\n";
  }
  if (!metrics_path.empty()) {
    std::ofstream os = open_output(metrics_path, "metrics");
    if (!os) return 1;
    core::write_metrics_json(os, rep);
    std::cout << "Metrics -> " << metrics_path << "\n";
  }
  return 0;
}

/// `deck_runner <file> [flags]`: one solo run of a deck or stencil
/// spec, through the JobInput::run a served job of the same file makes.
int run_solo(const util::CliParser& cli, core::OptimizationStage stage) {
  std::string trace_path, metrics_path;
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(stage);
  int threads = 1;
  std::size_t profile_windows = 0;  // 0: profiler off
  try {
    threads = positive_flag(cli, "threads");
    trace_path = cli.get_string("trace");
    metrics_path = cli.get_string("metrics");
    cfg.faults = faults_flag(cli);
    const std::string counters = cli.get_string("counters");
    if (counters == "true") {
      profile_windows = 96;
    } else if (counters != "false") {
      const long n = cli.get_int("counters");
      if (n < 2)
        throw util::CliError("--counters wants a window count >= 2, got '" +
                             counters + "'");
      profile_windows = static_cast<std::size_t>(n);
    }
  } catch (const util::CliError& e) {
    std::cerr << "deck_runner: " << e.what() << "\n";
    return 1;
  }

  const std::optional<core::JobInput> input =
      load_input(cli.positional()[0]);
  if (!input) return 1;
  if (const sweep::Deck* deck = input->deck()) {
    const auto& g = deck->problem.grid();
    std::cout << "Deck: " << g.it << "x" << g.jt << "x" << g.kt << ", "
              << deck->problem.materials().size() << " material(s), S"
              << deck->sn_order << ", " << deck->nm_cap << " moments, MK="
              << deck->sweep.mk << " MMI=" << deck->sweep.mmi << "\n";
  } else {
    const stencil::StencilSpec& spec = *input->spec();
    std::cout << "Stencil: " << spec.nx << "x" << spec.ny << "x" << spec.nz
              << ", blocks " << spec.bx << "x" << spec.by << "x" << spec.bz
              << " (" << spec.blocks() << "), " << spec.iterations
              << " iteration(s)\n";
  }

  // The profiler outlives the writer's final write() below: the counter
  // events it emits reference its track names by pointer.
  sim::TimeSlicedProfiler profiler(profile_windows == 0 ? 96
                                                        : profile_windows);
  sim::ChromeTraceWriter writer;
  if (!trace_path.empty()) cfg.trace_sink = &writer;
  if (profile_windows != 0) cfg.profiler = &profiler;

  // --check: lint the input, then observe the run with the hazard
  // checker; any finding is a hard error.
  const bool check = cli.get_bool("check");
  analysis::Diagnostics diags;
  analysis::HazardChecker checker(&diags, cfg.chip);
  if (check) {
    const analysis::Diagnostics lint = input->lint(cfg);
    for (const analysis::Diagnostic& d : lint.entries())
      std::cerr << input->source() << ": " << d.to_string() << "\n";
    if (lint.has_errors()) return 1;
    cfg.hazard = &checker;
  }

  const core::RunMode mode = mode_flag(cli);
  core::JobResult res;
  try {
    res = input->run(cfg, mode, threads);
  } catch (const sim::FaultError& e) {
    std::cerr << "deck_runner: " << e.what() << "\n";
    return 1;
  }
  if (mode == core::RunMode::kFunctional) {
    const core::RunReport& rep = res.report;
    if (input->deck()) {
      std::cout << "Solve: " << rep.solve->iterations << " iterations, change "
                << rep.solve->final_change
                << (rep.solve->converged ? " (converged)" : "")
                << "; absorption " << rep.absorption << ", leakage "
                << rep.leakage.total() << ", fixup cells "
                << rep.solve->totals.fixup_cells << "\n";
    } else {
      std::cout << "Solve: " << rep.cell_solves << " updates, checksum "
                << res.checksum << ", residual " << res.residual << "\n";
    }
  }
  if (check) {
    for (const analysis::Diagnostic& d : diags.entries())
      std::cerr << input->source() << ": " << d.to_string() << "\n";
    if (diags.has_errors()) {
      std::cerr << "deck_runner: hazard check failed with "
                << diags.error_count() << " error(s)\n";
      return 1;
    }
    std::cout << "Hazard check: clean\n";
  }
  return emit_report(res.report, stage, profile_windows, trace_path,
                     metrics_path, writer);
}

/// `deck_runner serve [flags] <file>...`: run every input through one
/// multi-tenant core::SolveServer. Files ending in ".stencil" become
/// stencil jobs, everything else a sweep deck. Exit code is the number
/// of rejected plus failed jobs.
int run_serve(const util::CliParser& cli, core::OptimizationStage stage) {
  core::ServerConfig scfg;
  scfg.stage = stage;
  std::string metrics_out, metrics_path, trace_path;
  core::ArrivalPlan arrival_plan;
  double arrival_time_scale = 0.0;
  long interval_ms = 0;
  try {
    scfg.tenants = positive_flag(cli, "tenants");
    scfg.queue_limit = static_cast<std::size_t>(positive_flag(cli, "queue"));
    scfg.host_threads = positive_flag(cli, "threads");
    scfg.ls_budget_bytes =
        static_cast<std::size_t>(std::max(0L, cli.get_int("ls-budget")));
    scfg.grid_cell_budget = cli.get_int("grid-budget");
    scfg.flight_recorder_path = cli.get_string("flight-recorder");
    scfg.faults = faults_flag(cli);
    // --weights / --quotas: per-tenant QoS knobs, indexed by tenant
    // worker id (see ServerConfig).
    scfg.tenant_weights = int_list_flag(cli, "weights");
    scfg.tenant_quotas = int_list_flag(cli, "quotas");
    metrics_out = cli.get_string("metrics-out");
    interval_ms = std::max(0L, cli.get_int("metrics-interval"));
    metrics_path = cli.get_string("metrics");
    trace_path = cli.get_string("trace");
    arrival_time_scale = cli.get_double("arrival-time-scale");
    if (const std::string arg = cli.get_string("arrivals"); !arg.empty()) {
      try {
        arrival_plan = core::ArrivalPlan(core::parse_arrival_spec(arg));
      } catch (const core::ArrivalSpecError& e) {
        throw util::CliError(std::string("--arrivals: ") + e.what());
      }
    }
  } catch (const util::CliError& e) {
    std::cerr << "deck_runner serve: " << e.what() << "\n";
    return 1;
  }
  const core::RunMode mode = mode_flag(cli);
  const std::vector<std::string>& paths = cli.positional();

  // Load every readable input up front; the arrivals replay reuses them
  // in a cycle, the default path submits each exactly once.
  std::vector<core::JobRequest> inputs;
  int rejected = 0;
  for (const std::string& path : paths) {
    std::optional<std::string> text = read_file(path);
    if (!text) {
      ++rejected;
      continue;
    }
    core::JobRequest req;
    req.name = path;
    req.kind = core::JobInput::kind_for(path);
    req.text = std::move(*text);
    req.mode = mode;
    inputs.push_back(std::move(req));
  }

  if (arrival_plan.enabled() && inputs.empty()) {
    std::cerr << "deck_runner serve: --arrivals needs at least one "
                 "readable input file\n";
    return 1;
  }

  core::SolveServer server(scfg);
  std::cout << "Serving " << paths.size() << " job(s) on " << scfg.tenants
            << " tenant(s), stage " << core::stage_name(stage) << "\n";

  // --metrics-out: Prometheus text exposition snapshots. With a
  // positive --metrics-interval a poller thread overwrites the file
  // every interval while jobs run; the final snapshot is always
  // written after the drain either way.
  const auto write_exposition = [&server, &metrics_out] {
    if (metrics_out.empty()) return;
    std::ofstream os(metrics_out);
    if (os) core::write_prometheus(os, server.metrics_snapshot());
  };
  std::atomic<bool> poll_stop{false};
  std::thread poller;
  if (!metrics_out.empty() && interval_ms > 0) {
    poller = std::thread([&] {
      while (!poll_stop.load(std::memory_order_relaxed)) {
        write_exposition();
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      }
    });
  }

  if (arrival_plan.enabled()) {
    // Open-system mode: replay the seeded arrival schedule, cycling
    // through the (readable) input files. --arrival-time-scale
    // stretches the schedule onto the wall clock; 0 replays flat-out
    // (deterministic submission order either way -- the plan's).
    core::ArrivalDriver driver(
        server, arrival_plan,
        [&inputs](const core::Arrival& a, std::uint64_t k) {
          core::JobRequest req =
              inputs[static_cast<std::size_t>(k) % inputs.size()];
          req.name += "#" + std::to_string(k) + "-t" +
                      std::to_string(a.tenant);
          return req;
        },
        arrival_time_scale);
    std::cout << "Replaying " << arrival_plan.total()
              << " arrival(s) over " << inputs.size() << " input file(s)\n";
    driver.start();
    driver.join();
    const core::ArrivalDriver::Stats ds = driver.stats();
    rejected += static_cast<int>(ds.rejected);
    if (ds.rejected > 0)
      std::cerr << ds.rejected << " arrival(s) rejected at admission "
                << "(open-system loss)\n";
  } else {
    for (const core::JobRequest& req : inputs) {
      try {
        server.submit(req);
      } catch (const core::AdmissionError& e) {
        std::cerr << req.name << ": rejected["
                  << core::admission_reason_name(e.reason()) << "]: "
                  << e.what() << "\n";
        ++rejected;
      }
    }
  }

  int failed = 0;
  for (const core::JobResult& r : server.drain()) {
    if (!r.ok) {
      ++failed;
      std::cerr << r.name << " (" << core::job_kind_name(r.kind)
                << "): error: " << r.error << "\n";
      continue;
    }
    std::cout << r.name << " (" << core::job_kind_name(r.kind)
              << "): " << util::format_seconds(r.report.seconds) << ", "
              << util::format_bytes(r.report.traffic_bytes) << " traffic, "
              << util::format_flops(r.report.achieved_flops_per_s)
              << (r.plan_cache_hit ? ", plan cache hit" : "") << "\n";
    if (r.kind == core::JobKind::kStencil &&
        mode == core::RunMode::kFunctional) {
      std::cout << "  checksum " << r.checksum << ", residual " << r.residual
                << "\n";
    }
  }

  if (poller.joinable()) {
    poll_stop.store(true, std::memory_order_relaxed);
    poller.join();
  }
  write_exposition();
  if (!metrics_out.empty())
    std::cout << "Prometheus exposition -> " << metrics_out << "\n";

  // --trace in serve mode: the host-time job-lifecycle timeline
  // (admission + per-tenant tracks), not a simulated-machine trace.
  if (!trace_path.empty()) {
    sim::ChromeTraceWriter writer;
    core::write_job_trace_events(writer, server.traced_jobs());
    std::ofstream os = open_output(trace_path, "trace");
    if (!os) return 1;
    writer.write(os);
    std::cout << "Job trace: " << writer.event_count() << " events on "
              << writer.track_count() << " tracks -> " << trace_path << "\n";
  }

  // --metrics in serve mode: the server telemetry document (schema v4
  // with the "server" section populated).
  if (!metrics_path.empty()) {
    std::ofstream os = open_output(metrics_path, "metrics");
    if (!os) return 1;
    core::write_server_metrics_json(os, server);
    std::cout << "Server metrics -> " << metrics_path << "\n";
  }

  const core::SolveServer::Stats st = server.stats();
  const core::PlanCache::Stats pc = server.plan_cache_stats();
  const core::SpeAllocator::Stats al = server.allocator_stats();
  std::cout << "Server: " << st.submitted << " submitted, " << st.completed
            << " completed, " << st.failed << " failed, " << st.rejected
            << " rejected\n"
            << "Plan cache: " << pc.hits << " hit(s), " << pc.misses
            << " miss(es), " << pc.evictions << " eviction(s), "
            << pc.entries << " plan(s)\n"
            << "SPE allocator: " << al.claims << " claim(s), " << al.expands
            << " expand(s), " << al.shrinks << " shrink(s), "
            << al.waited_claims << " waited, peak " << al.peak_tenants
            << " tenant(s)\n";

  // Per-tenant latency summary from the metrics registry.
  {
    const core::MetricsRegistry::Snapshot snap = server.metrics_snapshot();
    const auto hist_pct = [&snap](const char* fam, const std::string& label,
                                  double p) {
      const core::MetricsRegistry::Family* f = snap.find(fam);
      const core::MetricsRegistry::Entry* e = f ? f->find(label) : nullptr;
      return e ? e->hist.percentile(p) : std::nan("");
    };
    const auto counter = [&snap](const char* fam, const std::string& label) {
      const core::MetricsRegistry::Family* f = snap.find(fam);
      const core::MetricsRegistry::Entry* e = f ? f->find(label) : nullptr;
      return e ? e->value : 0.0;
    };
    const auto sec = [](double v) {
      if (!std::isfinite(v)) return std::string("-");
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.4f", v);
      return std::string(buf);
    };
    util::TextTable table({"tenant", "done", "failed", "queue p50 [s]",
                           "queue p99 [s]", "service p50 [s]",
                           "service p95 [s]", "service p99 [s]"});
    for (int t = 0; t < scfg.tenants; ++t) {
      const std::string label = "tenant=\"" + std::to_string(t) + "\"";
      table.add_row(
          {"tenant-" + std::to_string(t),
           std::to_string(static_cast<long long>(
               counter("cellsweep_jobs_completed_total", label))),
           std::to_string(static_cast<long long>(
               counter("cellsweep_jobs_failed_total", label))),
           sec(hist_pct("cellsweep_queue_wait_seconds", label, 0.50)),
           sec(hist_pct("cellsweep_queue_wait_seconds", label, 0.99)),
           sec(hist_pct("cellsweep_service_seconds", label, 0.50)),
           sec(hist_pct("cellsweep_service_seconds", label, 0.95)),
           sec(hist_pct("cellsweep_service_seconds", label, 0.99))});
    }
    table.print(std::cout);
  }
  return rejected + failed;
}

}  // namespace

int main(int argc, char** argv) {
  // The subcommand is argv[1]; each one registers only its own flags,
  // so a flag of another subcommand is an unknown flag (exit 1).
  const std::string sub = argc > 1 ? argv[1] : "";
  const bool lint = sub == "lint", serve = sub == "serve";
  util::CliParser cli(lint    ? "Lint CellSweep decks and stencil specs"
                      : serve ? "Serve CellSweep inputs on a multi-tenant "
                                "solve server"
                              : "Run a CellSweep deck or stencil spec");
  cli.add_flag("stage", "final",
               "optimization stage: ppe | initial | simd | final");
  if (!lint) {
    cli.add_flag("functional", "true",
                 "solve the physics (false: timing only)");
    cli.add_flag("threads", "1",
                 serve ? "width of the host pool every tenant's functional "
                         "solve shares (results are bitwise identical for "
                         "any value)"
                       : "host threads for the functional solve (results "
                         "are bitwise identical for any value)");
    cli.add_flag("trace", "",
                 serve ? "write the host-time job-lifecycle timeline as a "
                         "Chrome trace-event JSON"
                       : "write a Chrome trace-event JSON of the simulated "
                         "run (load in chrome://tracing or ui.perfetto.dev)");
    cli.add_flag("metrics", "",
                 serve ? "write the server telemetry document as JSON"
                       : "write run metrics (timing, stall breakdown, DMA "
                         "histograms) as JSON");
    cli.add_flag("faults", "",
                 "seeded fault injection, e.g. "
                 "--faults=seed=42,dma=0.001,spe=7:down (keys: seed, dma, "
                 "timeout, drop, throttle, retries, spe). The run degrades "
                 "gracefully and reports the cost; same seed => identical "
                 "schedule");
  }
  if (!lint && !serve) {
    cli.add_flag("check", "false",
                 "lint the input, then attach the machine-model hazard "
                 "checker; protocol violations become hard errors");
    cli.add_flag("counters", "false",
                 "attach the time-sliced profiler and print a hardware "
                 "counter summary; --counters=N sets the profile window "
                 "count (default 96). Counters and the utilization "
                 "timeseries also land in --metrics and --trace output");
  }
  if (serve) {
    cli.add_flag("tenants", "2",
                 "concurrent tenant workers sharing the chip");
    cli.add_flag("queue", "64",
                 "pending jobs admitted before submit rejects");
    cli.add_flag("ls-budget", "0",
                 "admission budget on the per-SPE simulated-LS footprint "
                 "in bytes (0 = linter capacity check only)");
    cli.add_flag("grid-budget", "0",
                 "admission budget on grid cells (0 = unlimited)");
    cli.add_flag("metrics-out", "",
                 "write Prometheus text-exposition snapshots of the server "
                 "metrics to this file");
    cli.add_flag("metrics-interval", "0",
                 "overwrite --metrics-out every N milliseconds while jobs "
                 "run (0 = final snapshot only)");
    cli.add_flag("flight-recorder", "",
                 "dump the event ring to <prefix>-<ms>-<n>.json on job "
                 "failure, queue-full or fault failover");
    cli.add_flag("arrivals", "",
                 "replay a seeded open-system arrival schedule instead of "
                 "submitting each input once, cycling through the input "
                 "files, e.g. --arrivals=seed=42,tenant=0:rate:8:24,"
                 "tenant=1:burst:6 (kinds: rate | burst | trace; same seed "
                 "=> identical schedule)");
    cli.add_flag("arrival-time-scale", "0",
                 "seconds of wall clock per scheduled second of --arrivals "
                 "(0 = replay flat-out)");
    cli.add_flag("weights", "",
                 "comma-separated per-tenant QoS weights (fair SPE share "
                 "scales with weight; running lower-weight jobs yield at "
                 "chunk granularity). Empty = all equal");
    cli.add_flag("quotas", "",
                 "comma-separated per-tenant SPE caps (<= 0 = uncapped)");
  }

  const std::string prog =
      std::string(argv[0]) + (lint || serve ? " " + sub : "");
  const int skip = lint || serve ? 1 : 0;
  if (!cli.parse(argc - skip, argv + skip)) {
    std::cerr << cli.error() << "\n" << cli.usage(prog);
    return 1;
  }
  if (cli.help_requested() || cli.positional().empty()) {
    std::cout << cli.usage(prog) << "\nUsage: " << argv[0]
              << " <deck or .stencil file> [flags]\n       " << argv[0]
              << " lint <file>... [--stage]\n       " << argv[0]
              << " serve <file>... [flags]\n";
    return cli.help_requested() ? 0 : 1;
  }

  core::OptimizationStage stage{};
  try {
    stage = stage_from_name(cli.get_string("stage"));
  } catch (const util::CliError& e) {
    std::cerr << "deck_runner: " << e.what() << "\n";
    return 1;
  }
  if (lint) return run_lint(cli.positional(), stage);
  if (serve) return run_serve(cli, stage);
  return run_solo(cli, stage);
}
