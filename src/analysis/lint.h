// Static deck validation ("deck lint"): catches, before any simulated
// tick runs, the configuration mistakes the machine model would
// otherwise only surface mid-run (or worse, silently tolerate) -- a
// chunk shape whose working set overflows the 256 KB local store under
// the configured buffer count, blocking factors that do not divide the
// grid/quadrature, DMA element shapes that violate the CBEA command
// rules the paper quotes in Section 2, or a buffer rotation that runs
// out of MFC tag groups. Reuses the real planners and validators
// (core::plan_chunk, the workloads' LS placements, the pipeline's
// core::make_dma_request, cell::Mfc::validate,
// sweep::SweepConfig::validate) so lint and runtime can never disagree
// about what is legal.
#pragma once

#include "analysis/diagnostics.h"
#include "core/config.h"
#include "sweep/deck.h"
#include "workloads/stencil/spec.h"

namespace cellsweep::analysis {

/// Validates @p deck as it would run under @p cfg's machine switches
/// (buffers, precision, DMA granularity, chip revision...). Findings
/// carry no timestamps; `where` names the deck or config key at fault.
Diagnostics lint_deck(const sweep::Deck& deck,
                      const core::CellSweepConfig& cfg);

/// Validates a stencil spec the same way: grid/blocking consistency,
/// an SPE stage (the stencil has no PPE model), the LS budget of the
/// block staging buffers under the configured buffer count, the MFC tag
/// budget of the rotation, and the DMA legality of the exact requests
/// workloads/stencil would submit.
Diagnostics lint_stencil(const stencil::StencilSpec& spec,
                         const core::CellSweepConfig& cfg);

}  // namespace cellsweep::analysis
