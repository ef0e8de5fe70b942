// Figure 5: "Performance impact of various optimizations."
//
// Regenerates the paper's optimization ladder on the 50-cubed deck:
// each row is one cumulative optimization stage, paper-measured seconds
// next to our simulated seconds.
#include "bench/bench_common.h"

int main(int argc, char** argv) {
  using namespace cellsweep;
  using core::OptimizationStage;

  const bench::BenchOptions opt = bench::parse_bench_args(argc, argv);
  if (!opt.ok) return 2;

  bench::print_header("Figure 5: performance impact of the optimization "
                      "ladder (" + std::to_string(opt.cube) + "^3)");

  const struct {
    OptimizationStage stage;
    double paper_s;
  } rows[] = {
      {OptimizationStage::kPpeGcc, 22.3},
      {OptimizationStage::kPpeXlc, 19.9},
      {OptimizationStage::kSpeInitial, 3.55},
      {OptimizationStage::kSpeAligned, 3.03},
      {OptimizationStage::kSpeBuffered, 2.88},
      {OptimizationStage::kSpeSimd, 1.68},
      {OptimizationStage::kSpeDmaLists, 1.48},
      {OptimizationStage::kSpeLsPoke, 1.33},
  };

  util::TextTable table({"stage", "paper [s]", "measured [s]", "ratio",
                         "compute busy [s]", "MIC busy [s]"});
  // Where each stage's simulated time goes (mean per SPE): which
  // component -- compute, DMA waits, sync waits or idle tail -- the
  // next optimization recovers its time from.
  util::TextTable breakdown({"stage", "compute [s]", "DMA wait [s]",
                             "sync wait [s]", "idle [s]", "MIC util",
                             "EIB util"});
  bench::BenchJson json("fig5", opt.cube);
  double final_measured = 0;
  for (const auto& row : rows) {
    const core::RunReport r = bench::run_stage(row.stage, opt.cube);
    json.add_run(core::stage_name(row.stage), r);
    final_measured = r.seconds;
    table.add_row({core::stage_name(row.stage),
                   bench::fmt("%.2f", row.paper_s),
                   bench::fmt("%.2f", r.seconds),
                   bench::fmt("%.2f", r.seconds / row.paper_s),
                   bench::fmt("%.2f", r.compute_busy_s),
                   bench::fmt("%.2f", r.mic_busy_s)});
    const std::vector<core::SpeStalls> stalls = core::spe_stalls(r);
    if (stalls.empty()) {
      // PPE-only stages have no SPEs to break down.
      breakdown.add_row({core::stage_name(row.stage), "-", "-", "-", "-",
                         "-", "-"});
    } else {
      double busy = 0, dma = 0, sync = 0, idle = 0;
      for (const core::SpeStalls& st : stalls) {
        busy += st.busy_s;
        dma += st.dma_wait_s;
        sync += st.sync_wait_s;
        idle += st.idle_s;
      }
      const double n = static_cast<double>(stalls.size());
      breakdown.add_row(
          {core::stage_name(row.stage), bench::fmt("%.2f", busy / n),
           bench::fmt("%.2f", dma / n), bench::fmt("%.2f", sync / n),
           bench::fmt("%.2f", idle / n),
           util::format_percent(r.mic_utilization),
           util::format_percent(r.eib_utilization)});
    }
  }
  table.print(std::cout);
  std::cout << "\nPer-SPE time breakdown (mean across the 8 SPEs; busy + "
               "DMA wait + sync wait + idle = run time):\n\n";
  breakdown.print(std::cout);

  std::cout << "\nPPE(GCC) -> final speedup: paper "
            << util::format_speedup(22.3 / 1.33) << ", measured "
            << util::format_speedup(
                   bench::run_stage(OptimizationStage::kPpeGcc, opt.cube)
                       .seconds /
                   final_measured)
            << "\n";
  if (!opt.json_dir.empty() && !json.write(opt.json_dir)) return 1;
  return 0;
}
