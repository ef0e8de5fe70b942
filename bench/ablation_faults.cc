// Ablation: fault injection and graceful degradation.
//
// Sweeps the fault injector over the final-stage configuration and
// reports what resilience costs: transient DMA failure rates (retry +
// exponential backoff), the 7-of-8-SPE yield case the real parts
// shipped with, a mid-sweep SPE failure (watchdog + re-dispatch), a
// degraded slow SPE, dispatch message drops and MIC bank throttling.
// The healthy row doubles as the byte-identity anchor: with the fault
// plan disabled the run must match the fault-free baselines exactly.
#include "bench/bench_common.h"
#include "sim/fault.h"

namespace {

cellsweep::core::RunReport run_with_faults(const cellsweep::sim::FaultSpec& fs,
                                           int cube) {
  using namespace cellsweep;
  const sweep::Problem problem = sweep::Problem::benchmark_cube(cube);
  core::CellSweepConfig cfg = core::CellSweepConfig::from_stage(
      core::OptimizationStage::kSpeLsPoke);
  cfg.faults = fs;
  core::CellSweep3D runner(problem, cfg);
  return runner.run(core::RunMode::kTraceDriven);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cellsweep;
  const bench::BenchOptions opt = bench::parse_bench_args(argc, argv);
  if (!opt.ok) return 2;
  const int cube = opt.cube_or(20);
  bench::print_header("Ablation: fault injection / graceful degradation (" +
                      std::to_string(cube) + "^3)");

  struct Row {
    const char* name;
    const char* spec;  ///< --faults grammar; empty = healthy
  };
  const Row rows[] = {
      {"healthy", ""},
      {"dma_1e-4", "seed=42,dma=0.0001"},
      {"dma_1e-3", "seed=42,dma=0.001"},
      {"dma_1e-2", "seed=42,dma=0.01"},
      {"tag_timeouts", "seed=42,timeout=0.001"},
      {"msg_drops", "seed=42,drop=0.005"},
      {"mic_throttle", "seed=42,throttle=0.01:0.5"},
      {"spe7_down", "seed=42,spe=7:down"},
      {"spe3_dies_mid_sweep", "seed=42,spe=3:after:50"},
      {"spe5_half_speed", "seed=42,spe=5:slow:2.0"},
  };

  util::TextTable table({"fault scenario", "run time [s]", "slowdown",
                         "retries", "redispatched"});
  bench::BenchJson json("ablation_faults", cube);
  double healthy_s = 0.0;
  for (const Row& row : rows) {
    const sim::FaultSpec fs =
        row.spec[0] ? sim::parse_fault_spec(row.spec) : sim::FaultSpec{};
    const core::RunReport r = run_with_faults(fs, cube);
    if (healthy_s == 0.0) healthy_s = r.seconds;
    json.add_run(row.name, r);
    const sim::CounterSet* f = r.counters.find_child("faults");
    const auto n = [f](const char* counter) {
      return bench::fmt("%.0f", f ? f->value(counter) : 0.0);
    };
    table.add_row({row.name, bench::fmt("%.4f", r.seconds),
                   bench::fmt("%.3fx", healthy_s > 0 ? r.seconds / healthy_s
                                                     : 0.0),
                   n("dma_retry_attempts"), n("redispatched_chunks")});
  }
  table.print(std::cout);
  std::cout << "\nGraceful degradation: physics is bit-identical in every\n"
               "row (the injector only stretches time); the cost lands in\n"
               "the stall buckets and the faults/ counter subtree. The\n"
               "spe7_down row is the surprise: the sweep is dependency-\n"
               "chain-bound at this size, so the eighth SPE was slack and\n"
               "the survivors absorb its chunks at no wall-clock cost.\n";
  if (!opt.json_dir.empty() && !json.write(opt.json_dir)) return 1;
  return 0;
}
