// Reactor transient: time-stepped source evolution.
//
// Sweep3D's outer structure is "several iterations for each time step,
// until the solution converges" (paper, Section 3). This example runs a
// multi-time-step transient on the strongly scattering reactor problem:
// the fuel-pin source decays exponentially and each time step re-solves
// transport to convergence, reporting power and iteration counts -- the
// workload shape the paper's MMI/MK pipelining exists for.
//
//   $ ./reactor_transient [--cube=24] [--steps=6] [--decay=0.35]
#include <cmath>
#include <iostream>
#include <memory>

#include "core/orchestrator.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/units.h"

using namespace cellsweep;

int main(int argc, char** argv) {
  util::CliParser cli("Reactor transient on the simulated Cell BE");
  cli.add_flag("cube", "24", "cube size (cells per side)");
  cli.add_flag("steps", "6", "time steps");
  cli.add_flag("decay", "0.35", "source decay constant per step");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage(argv[0]);
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage(argv[0]);
    return 0;
  }
  int n, steps;
  double decay;
  try {
    n = static_cast<int>(cli.get_int("cube"));
    steps = static_cast<int>(cli.get_int("steps"));
    decay = cli.get_double("decay");
  } catch (const util::CliError& e) {
    std::cerr << e.what() << "\n" << cli.usage(argv[0]);
    return 1;
  }

  const sweep::Problem base = sweep::Problem::reactor(n);
  std::cout << "Reactor problem: " << n << "^3 cells, scattering ratio "
            << base.max_scattering_ratio() << " (slow source iteration)\n\n";

  core::CellSweepConfig ccfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  ccfg.sweep.mk = sweep::largest_mk(n, 10);
  ccfg.sweep.mmi = 3;
  ccfg.sweep.max_iterations = 400;
  ccfg.sweep.fixup_from_iteration = 0;
  ccfg.sweep.epsilon = 1e-7;

  util::TextTable table({"step", "pin source", "iterations", "power (abs)",
                         "leakage", "simulated Cell time"});

  double total_sim_time = 0;
  for (int step = 0; step < steps; ++step) {
    // Decay the pin source for this step's problem.
    std::vector<sweep::Material> mats = base.materials();
    const double scale = std::exp(-decay * step);
    for (auto& m : mats) m.q_ext *= scale;
    std::vector<std::uint8_t> cells(base.grid().cells());
    for (int k = 0; k < n; ++k)
      for (int j = 0; j < n; ++j)
        for (int i = 0; i < n; ++i)
          cells[base.grid().index(i, j, k)] = base.material_index(i, j, k);
    const sweep::Problem problem(base.grid(), mats, std::move(cells));

    // Converge this step, then price the iterations it took on the Cell.
    core::CellSweep3D runner(problem, ccfg);
    const core::RunReport r = runner.run(core::RunMode::kFunctional);
    total_sim_time += r.seconds;

    table.add_row({std::to_string(step),
                   [&] { char b[32];
                         std::snprintf(b, sizeof b, "%.3f", scale);
                         return std::string(b); }(),
                   std::to_string(r.solve->iterations),
                   [&] { char b[32];
                         std::snprintf(b, sizeof b, "%.4f", r.absorption);
                         return std::string(b); }(),
                   [&] { char b[32];
                         std::snprintf(b, sizeof b, "%.4f",
                                       r.leakage.total());
                         return std::string(b); }(),
                   util::format_seconds(r.seconds)});
  }
  table.print(std::cout);
  std::cout << "\nTotal simulated Cell time for the transient: "
            << util::format_seconds(total_sim_time) << "\n";
  return 0;
}
