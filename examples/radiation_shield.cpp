// Shielding study: a corner source behind an absorbing slab.
//
// The paper motivates particle transport with "the analysis of fires,
// explosions and even nuclear reactions". This example runs the classic
// shielding question -- how much does a slab attenuate? -- and shows
// the negative-flux fixups (the expensive kernel path of Section 5.1)
// doing real work in the optically thick shield.
//
//   $ ./radiation_shield [--cube=32] [--epsilon=1e-8]
#include <cmath>
#include <iostream>

#include "core/orchestrator.h"
#include "sweep/mpi_sweeper.h"
#include "sweep/output.h"
#include "sweep/tally.h"
#include "util/cli.h"
#include "util/table.h"
#include "util/units.h"

using namespace cellsweep;

int main(int argc, char** argv) {
  util::CliParser cli("Shielding study on the simulated Cell BE");
  cli.add_flag("cube", "32", "cube size (cells per side)");
  cli.add_flag("epsilon", "1e-8", "convergence tolerance");
  cli.add_flag("vtk", "", "write the flux field to this VTK file");
  if (!cli.parse(argc, argv)) {
    std::cerr << cli.error() << "\n" << cli.usage(argv[0]);
    return 1;
  }
  if (cli.help_requested()) {
    std::cout << cli.usage(argv[0]);
    return 0;
  }
  int n;
  double epsilon;
  try {
    n = static_cast<int>(cli.get_int("cube"));
    epsilon = cli.get_double("epsilon");
  } catch (const util::CliError& e) {
    std::cerr << e.what() << "\n" << cli.usage(argv[0]);
    return 1;
  }

  const sweep::Problem problem = sweep::Problem::shield(n);
  std::cout << "Shield problem: " << n << "^3 cells; materials:\n";
  for (const auto& m : problem.materials())
    std::cout << "  " << m.name << ": sigma_t=" << m.sigma_t
              << " sigma_s0=" << m.sigma_s[0] << " q=" << m.q_ext << "\n";

  // Fixups on from the start: the shield slab drives diamond difference
  // negative, so this deck exercises the expensive kernel everywhere.
  core::CellSweepConfig cfg =
      core::CellSweepConfig::from_stage(core::OptimizationStage::kSpeLsPoke);
  cfg.sweep.max_iterations = 60;
  cfg.sweep.fixup_from_iteration = 0;
  cfg.sweep.epsilon = epsilon;
  cfg.sweep.mk = sweep::largest_mk(n, cfg.sweep.mk);

  core::CellSweep3D runner(problem, cfg);
  const core::RunReport r = runner.run(core::RunMode::kFunctional);

  std::cout << "\nConverged in " << r.solve->iterations
            << " iterations (change " << r.solve->final_change << "); "
            << r.solve->totals.fixup_cells << " cell-solves needed fixups ("
            << util::format_percent(
                   static_cast<double>(r.solve->totals.fixup_cells) /
                   static_cast<double>(r.solve->totals.cells))
            << ").\n\n";

  // Attenuation profile along the source->detector axis: rebuild the
  // flux with the functional solver to read the line out.
  sweep::SnQuadrature quad(6);
  sweep::SweepState<double> state(problem, quad, 2, sweep::kBenchmarkMoments);
  sweep::solve_source_iteration(state, cfg.sweep);

  util::TextTable profile({"i (along beam)", "region", "scalar flux",
                           "attenuation vs front"});
  const int j = 1, k = 1;
  const double front = state.flux().at(0, k, j, n / 5);
  for (int i = 0; i < n; i += std::max(1, n / 12)) {
    const auto& mat = problem.material_of(i, j, k);
    const double phi = state.flux().at(0, k, j, i);
    profile.add_row({std::to_string(i), mat.name,
                     [&] { char b[32]; std::snprintf(b, sizeof b, "%.3e", phi);
                           return std::string(b); }(),
                     [&] { char b[32];
                           std::snprintf(b, sizeof b, "%.1e", phi / front);
                           return std::string(b); }()});
  }
  profile.print(std::cout);

  // Region tallies: what fraction of the source each material absorbs.
  sweep::TallySet tallies;
  for (std::size_t m = 0; m < problem.materials().size(); ++m)
    tallies.add_material(problem.materials()[m].name, static_cast<int>(m));
  std::cout << "\n";
  util::TextTable treport({"region", "cells", "mean flux", "absorption",
                           "share of source"});
  const double total_src = problem.total_external_source();
  for (const sweep::RegionTally& t : tallies.compute(problem, state.flux())) {
    treport.add_row({t.name, std::to_string(t.cells),
                     [&] { char b[32];
                           std::snprintf(b, sizeof b, "%.3e", t.mean_flux);
                           return std::string(b); }(),
                     [&] { char b[32];
                           std::snprintf(b, sizeof b, "%.4f",
                                         t.absorption_rate);
                           return std::string(b); }(),
                     util::format_percent(t.absorption_rate / total_src)});
  }
  treport.print(std::cout);

  if (const std::string vtk = cli.get_string("vtk"); !vtk.empty()) {
    sweep::write_vtk_file(vtk, problem, state.flux(), "shield flux");
    std::cout << "\nWrote " << vtk << " (load in ParaView/VisIt)\n";
  }

  std::cout << "\nSimulated Cell run time: " << util::format_seconds(r.seconds)
            << " (" << util::format_bytes(r.traffic_bytes) << " DMA traffic; "
            << "fixup-heavy kernel, compare Section 5.1's 1690-cycle "
               "variant)\n";
  return 0;
}
