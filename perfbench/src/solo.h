// Solo (single-run) sweep and stencil solves, untraced or traced.
//
// The untraced path is the public end-to-end call a user makes
// (CellSweep3D::run / CellStencil::run). The traced path makes the same
// public calls one layer down -- TimingEngine, SweepState +
// solve_source_iteration, enumerate_sweep, finish, write_metrics_json --
// with a span around each, exactly as CellSweep3D::run_on_spes composes
// them, and the benchmark checks that both paths emit byte-identical
// metrics JSON.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "core/config.h"
#include "core/kernel_timing.h"
#include "core/report.h"
#include "support.h"
#include "sweep/deck.h"
#include "sweep/quadrature.h"
#include "workloads/stencil/spec.h"

namespace perfbench {

namespace core = cellsweep::core;
namespace sweep = cellsweep::sweep;
namespace stencil = cellsweep::stencil;

/// A deck ready to solve under one optimization stage: parsed, linted,
/// and planned (Sn quadrature + a KernelCostModel warmed for every
/// chunk shape), handed to the solver through the same
/// CellSweepConfig::quadrature / warm_kernels hints the solve server
/// uses.
struct Prepared {
  explicit Prepared(sweep::Deck d) : deck(std::move(d)) {}

  sweep::Deck deck;
  core::CellSweepConfig cfg;
  std::unique_ptr<sweep::SnQuadrature> quad;
  std::unique_ptr<core::KernelCostModel> kernels;
  int nm = 0;
  int shapes = 0;  ///< chunk shapes calibrated into `kernels`
};

/// Parse + lint + plan build, spans "sweep.deck.parse", "analysis.lint"
/// and "core.plan.build". Throws on a parse or lint error.
Prepared prepare_sweep(const std::string& text, core::OptimizationStage stage,
                       Tracer& tr);

struct Solved {
  core::RunReport report;
  std::string metrics_json;     ///< core::write_metrics_json of report
  std::uint64_t diagonals = 0;  ///< on_diagonal calls (traced path only)
};

/// One solve of @p p; traced when @p tr is enabled. Double precision
/// only (every stage the benchmark runs).
Solved solve_sweep(const Prepared& p, core::RunMode mode, Tracer& tr);

struct StencilSolved {
  core::RunReport report;
  double checksum = 0;
  double residual = 0;
};

/// One functional stencil solve on one host thread; traced when @p tr
/// is enabled (the machine feed and the physics are independent, so the
/// traced path runs them as two spans).
StencilSolved solve_stencil(const stencil::StencilSpec& spec,
                            const core::CellSweepConfig& cfg, Tracer& tr);

/// Ranks @p cpus fastest first by the best of three functional solves of
/// examples/decks/tiny8.deck (~20 ms each) on each CPU; returns the
/// slowest CPU's time over the fastest's.
double rank_cpus(CpuRotation& cpus, const std::string& root);

/// Per-op self times of the setup spans (root "setup") and the solve
/// spans (root "solve") in @p layers (Tracer::by_name over @p ops
/// operations): fills the matching PerLayer fields and the attribution
/// rows, whose sum (with the root's own self time as "unattributed") is
/// the mean traced setup / solve time.
void setup_layers(const LayerMap& layers, double ops, PerLayer& l,
                  std::vector<Row>& rows);
void solve_layers(const LayerMap& layers, double ops, PerLayer& l,
                  std::vector<Row>& rows);

}  // namespace perfbench
