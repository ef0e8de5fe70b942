// The benchmark's workloads. Each runs for about Options::seconds of
// measurement and returns the end-to-end metrics (untraced) or the
// per-layer metrics (traced), plus its correctness tally.
#pragma once

#include "support.h"

namespace perfbench {

/// benchmark50.deck, functional, final Figure 5 stage, one host thread.
Result run_paper50(const Options& o);
/// The eight Figure 5 stages at 50^3, trace-driven, each planned cold.
Result run_fig5(const Options& o);
/// Seeded mixed sweep + stencil traffic through an in-process
/// SolveServer: a closed burst, then an open-loop fixed-rate phase.
Result run_serve(const Options& o);

}  // namespace perfbench
