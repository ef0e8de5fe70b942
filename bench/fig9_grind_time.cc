// Figure 9: "Grind time as a function of the cube size."
//
// Paper: "For a cube size larger than 25 cells, the grind time is
// almost constant ... optimal load balancing can be achieved when the
// total number of iterations is an integer multiple of 4 x 8, as
// witnessed by the minor dents."
//
// Regenerates the series on the fully optimized configuration.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace cellsweep;
  const bench::BenchOptions opt = bench::parse_bench_args(argc, argv);
  if (!opt.ok) return 2;
  bench::print_header("Figure 9: grind time vs cube size (final config)");

  util::TextTable table({"cube", "run time [s]", "grind [ns/cell-solve]",
                         "lines/diag mult of 32", "traffic [GB]"});

  // --cube caps the series (the CI perf job stops at small cubes).
  const int cap = opt.cube_or(100);
  bench::BenchJson json("fig9", cap);
  for (int n : {8, 10, 12, 16, 20, 24, 25, 28, 32, 36, 40, 44, 48, 50, 56,
                60, 64, 70, 80, 90, 96, 100}) {
    if (n > cap) break;
    const core::RunReport r =
        bench::run_stage(core::OptimizationStage::kSpeLsPoke, n);
    json.add_run("cube" + std::to_string(n), r);
    // The widest diagonal holds mk*mmi lines; perfect balance when that
    // is a multiple of 4 lines x 8 SPEs (the "dents").
    const int width = sweep::largest_mk(n, 10) * 3;  // mmi = 3 in the deck
    table.add_row({bench::fmt("%.0f", n),
                   bench::fmt("%.3f", r.seconds),
                   bench::fmt("%.1f", r.grind_seconds * 1e9),
                   width % 32 == 0 ? "yes" : "no",
                   bench::fmt("%.2f", r.traffic_bytes / 1e9)});
  }
  table.print(std::cout);
  std::cout << "\nShape check: grind flattens above ~25-40 cells; small\n"
               "cubes pay wavefront fill and dispatch overheads.\n";
  if (!opt.json_dir.empty() && !json.write(opt.json_dir)) return 1;
  return 0;
}
