// Quickstart: solve a small Sweep3D problem on the simulated Cell BE.
//
//   $ ./quickstart [--cube=20] [--iterations=8] [--stage=final]
//
// Runs the functional solver (real transport physics) together with the
// machine model, then prints the physics results and the simulated
// performance report -- the two halves this library provides.
#include <cstdio>
#include <exception>
#include <iostream>

#include "core/orchestrator.h"
#include "util/cli.h"
#include "util/units.h"

using namespace cellsweep;

int main(int argc, char** argv) {
  util::CliParser cli(
      "CellSweep quickstart: Sn transport on a simulated Cell BE");
  cli.add_flag("cube", "20", "cube size (cells per side)");
  cli.add_flag("iterations", "8", "source iterations");
  cli.add_flag("stage", "final",
               "optimization stage: ppe | initial | simd | final");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage(argv[0]);
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage(argv[0]);
    return 0;
  }

  int cube, iterations;
  core::OptimizationStage stage{};
  try {
    cube = static_cast<int>(cli.get_int("cube"));
    iterations = static_cast<int>(cli.get_int("iterations"));
    stage = core::stage_from_name(cli.get_string("stage"));
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << cli.usage(argv[0]);
    return 1;
  }

  // 1. Define the problem: the paper's homogeneous benchmark cube.
  const sweep::Problem problem = sweep::Problem::benchmark_cube(cube);

  // 2. Pick a Cell configuration (one of the Figure 5 ladder stages).
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(stage);
  cfg.sweep.max_iterations = iterations;
  cfg.sweep.fixup_from_iteration = cfg.sweep.max_iterations - 2;
  cfg.sweep.mk = sweep::largest_mk(cube, cfg.sweep.mk);

  // 3. Run: functional mode solves the physics while the machine model
  //    accumulates simulated time.
  core::CellSweep3D runner(problem, cfg);
  const core::RunReport r = runner.run(core::RunMode::kFunctional);

  std::cout << "Problem: " << cube << "^3 cells, S6 quadrature, "
            << sweep::kBenchmarkMoments << " flux moments\n\n";
  std::cout << "Physics results\n"
            << "  iterations        : " << r.solve->iterations << "\n"
            << "  final flux change : " << r.solve->final_change << "\n"
            << "  absorption rate   : " << r.absorption << " /s\n"
            << "  leakage rate      : " << r.leakage.total() << " /s\n"
            << "  balance closure   : "
            << util::format_percent((r.absorption + r.leakage.total()) /
                                    problem.total_external_source())
            << " of the source accounted for\n"
            << "  fixup cells       : " << r.solve->totals.fixup_cells
            << "\n\n";
  std::cout << "Simulated Cell BE performance (" << core::stage_name(stage)
            << ")\n"
            << "  execution time    : " << util::format_seconds(r.seconds)
            << "\n"
            << "  grind time        : "
            << util::format_seconds(r.grind_seconds) << " per cell-solve\n"
            << "  DMA traffic       : " << util::format_bytes(r.traffic_bytes)
            << "\n"
            << "  achieved          : "
            << util::format_flops(r.achieved_flops_per_s) << "\n"
            << "  memory bound      : "
            << util::format_seconds(r.memory_bound_s) << "\n"
            << "  local store used  : " << r.ls_high_water / 1024
            << " KB per SPE\n";
  return 0;
}
