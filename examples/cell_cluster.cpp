// Cluster of Cells: the paper's full five-level parallelization.
//
// Level 1 is the existing MPI wavefront over a 2-D process grid
// (Figure 1) -- "this guarantees portability of existing parallel
// software". This example runs the process-level decomposition through
// the in-process message-passing substrate, verifies the decomposed
// solution is bit-identical to the serial one, and combines the
// per-process Cell timing model with the wavefront pipeline-fill
// formula to estimate multi-chip scaling.
//
//   $ ./cell_cluster [--cube=24] [--px=2] [--py=2]
#include <iostream>

#include "core/orchestrator.h"
#include "msg/cart_grid.h"
#include "sweep/mpi_sweeper.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/units.h"

using namespace cellsweep;

int main(int argc, char** argv) {
  util::CliParser cli("Process-level wavefront over a cluster of Cell BEs");
  cli.add_flag("cube", "24", "global cube size (cells per side)");
  cli.add_flag("px", "2", "process grid width");
  cli.add_flag("py", "2", "process grid height");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage(argv[0]);
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage(argv[0]);
    return 0;
  }
  int n, px, py;
  try {
    n = static_cast<int>(cli.get_int("cube"));
    px = static_cast<int>(cli.get_int("px"));
    py = static_cast<int>(cli.get_int("py"));
  } catch (const util::CliError& e) {
    std::cerr << e.what() << "\n" << cli.usage(argv[0]);
    return 1;
  }
  if (n % px != 0 || n % py != 0) {
    std::cerr << "px and py must divide the cube size\n";
    return 1;
  }

  const sweep::Problem problem = sweep::Problem::benchmark_cube(n);
  sweep::SnQuadrature quad(6);
  sweep::SweepConfig cfg;
  cfg.mk = sweep::largest_mk(n, 5);
  cfg.mmi = 3;  // small angle blocks pipeline the wave to neighbors
  cfg.max_iterations = 6;
  cfg.fixup_from_iteration = 4;

  // Serial reference.
  sweep::SweepState<double> serial(problem, quad, 2, sweep::kBenchmarkMoments);
  sweep::solve_source_iteration(serial, cfg);

  // Distributed run over px x py ranks (each modeling one Cell blade).
  msg::World world(px * py);
  const sweep::MpiSolveResult mpi = sweep::solve_mpi(
      world, problem, quad, 2, cfg, px, py, sweep::kBenchmarkMoments);

  double maxdiff = 0;
  const auto& g = problem.grid();
  for (int k = 0; k < g.kt; ++k)
    for (int j = 0; j < g.jt; ++j)
      for (int i = 0; i < g.it; ++i)
        maxdiff = std::max(
            maxdiff, std::abs(mpi.flux0[(static_cast<std::size_t>(k) * g.jt +
                                         j) * g.it + i] -
                              serial.flux().at(0, k, j, i)));

  std::cout << "Decomposition " << px << " x " << py << " of " << n
            << "^3: max |flux difference| vs serial = " << maxdiff
            << (maxdiff == 0 ? "  (bit-identical)" : "") << "\n"
            << "Global balance: absorption " << mpi.absorption
            << " + leakage " << mpi.leakage.total() << " = "
            << mpi.absorption + mpi.leakage.total() << " of source "
            << problem.total_external_source() << "\n\n";

  // Per-chip Cell timing of one tile, then the wavefront pipeline-fill
  // model of Hoisie et al. (the paper's refs [3,5]): with D diagonals of
  // pipeline depth and B blocks per sweep, efficiency ~ B / (B + D).
  const sweep::Problem tile =
      sweep::extract_tile(problem, 0, n / px, 0, n / py);
  core::CellSweepConfig ccfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  ccfg.sweep = cfg;
  core::CellSweep3D tile_runner(tile, ccfg);
  const core::RunReport tile_r = tile_runner.run(core::RunMode::kTraceDriven);

  const int blocks_per_octant =
      (tile.grid().kt / cfg.mk) * (6 / cfg.mmi);
  const int depth = msg::CartGrid2D(px, py).wave_depth(px * py - 1, 0, 0);
  const double fill =
      static_cast<double>(blocks_per_octant) / (blocks_per_octant + depth);

  util::TextTable table({"quantity", "value"});
  table.add_row({"per-chip tile time", util::format_seconds(tile_r.seconds)});
  table.add_row({"pipeline depth (diagonals)", std::to_string(depth)});
  table.add_row({"wavefront efficiency",
                 util::format_percent(fill)});
  table.add_row({"estimated cluster time",
                 util::format_seconds(tile_r.seconds / fill)});
  table.add_row({"estimated speedup vs one chip",
                 util::format_speedup(
                     core::CellSweep3D(problem, ccfg)
                         .run(core::RunMode::kTraceDriven)
                         .seconds /
                     (tile_r.seconds / fill))});
  table.print(std::cout);
  return 0;
}
