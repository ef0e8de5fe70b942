#include "analysis/lint.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cellsim/local_store.h"
#include "cellsim/mfc.h"
#include "core/orchestrator.h"
#include "core/workload.h"
#include "sweep/kernel_simd.h"
#include "sweep/quadrature.h"
#include "workloads/stencil/stencil.h"

namespace cellsweep::analysis {

namespace {

/// The workload-independent machine checks, shared by lint_deck and
/// lint_stencil: the LS budget of the workload's @p placement under
/// the configured buffer count (plus the code reserve), the MFC tag
/// budget of the buffer rotation, and the DMA legality of the three
/// transfer classes the StreamingPipeline would submit for @p plan.
void lint_machine(Diagnostics& diags, const core::CellSweepConfig& cfg,
                  const core::TransferPlan& plan,
                  const core::LsPlacement& placement,
                  const std::string& ls_where) {
  const int buffers = std::max(cfg.buffers, 1);
  const std::size_t need =
      cell::kLsCodeReserveBytes + placement.footprint(buffers);
  if (need > cfg.chip.local_store_bytes) {
    const std::size_t per_buffer =
        cell::LocalStore::padded(placement.buffer_bytes);
    const std::size_t resident =
        need - static_cast<std::size_t>(buffers) * per_buffer;
    diags.error("ls-budget", ls_where,
                std::to_string(buffers) + " staging buffer(s) of " +
                    std::to_string(per_buffer) + " bytes plus " +
                    std::to_string(resident) + " resident bytes need " +
                    std::to_string(need) + " bytes; the local store holds " +
                    std::to_string(cfg.chip.local_store_bytes));
  }

  // MFC tag budget: gets use tags [0, buffers), puts [buffers,
  // 2*buffers) -- the rotation must fit the CBEA's tag-group space.
  if (2 * static_cast<unsigned>(buffers) > cell::kMfcTagGroups)
    diags.error("tag-budget", "buffers " + std::to_string(buffers),
                "buffer rotation needs " + std::to_string(2 * buffers) +
                    " MFC tag groups; the CBEA provides " +
                    std::to_string(cell::kMfcTagGroups));

  // DMA command legality, judged by the real MFC validator on the same
  // requests the streaming pipeline would submit for one chunk.
  if (cfg.dma_granularity % 16 != 0)
    diags.error("dma-granularity",
                "dma_granularity " + std::to_string(cfg.dma_granularity),
                "DMA granularity must be a multiple of 16 bytes");
  cell::Eib eib(cfg.chip);
  cell::Mic mic(cfg.chip);
  cell::Mfc mfc(cfg.chip, &eib, &mic, "lint");
  const struct {
    const char* name;
    cell::DmaDir dir;
    std::size_t bytes;
  } classes[] = {
      {"bulk-get", cell::DmaDir::kGet, plan.bulk_get_bytes()},
      {"face-get", cell::DmaDir::kGet, plan.face_get_bytes()},
      {"put", cell::DmaDir::kPut, plan.put_bytes()},
  };
  for (const auto& c : classes) {
    try {
      mfc.validate(core::make_dma_request(cfg, plan, c.dir, c.bytes));
    } catch (const cell::DmaError& e) {
      diags.error("dma-shape", std::string(c.name), e.what());
    }
  }
}

}  // namespace

Diagnostics lint_deck(const sweep::Deck& deck,
                      const core::CellSweepConfig& cfg) {
  Diagnostics diags;
  const sweep::Grid& grid = deck.problem.grid();

  if (grid.it < 1 || grid.jt < 1 || grid.kt < 1) {
    diags.error("grid", "it/jt/kt",
                "grid extents must be positive (got " +
                    std::to_string(grid.it) + " x " + std::to_string(grid.jt) +
                    " x " + std::to_string(grid.kt) + ")");
    return diags;  // nothing downstream is meaningful
  }

  // Quadrature / moment consistency. The LQn builder accepts the
  // orders Sweep3D supports; everything after needs the angle count
  // and the flux moments every run of the deck carries.
  int mm = 0;
  int nm = 0;
  try {
    const sweep::SnQuadrature quad(deck.sn_order);
    mm = quad.angles_per_octant();
    nm = sweep::deck_moments(deck, quad);
  } catch (const std::exception& e) {
    if (mm == 0)
      diags.error("quadrature", "sn " + std::to_string(deck.sn_order),
                  e.what());
    else
      diags.error("moments", "moments " + std::to_string(deck.nm_cap),
                  e.what());
  }

  // Blocking factors (MK | KT, MMI | angle count, iteration counts).
  if (mm > 0) {
    try {
      deck.sweep.validate(grid.kt, mm);
    } catch (const std::exception& e) {
      diags.error("blocking",
                  "mk " + std::to_string(deck.sweep.mk) + " / mmi " +
                      std::to_string(deck.sweep.mmi),
                  std::string(e.what()));
    }
  }

  if (nm < 1) return diags;  // no moment count to size the local store by

  // Local-store budget: the largest chunk's staging buffer, times the
  // buffer count, plus the resident constants and the code reserve,
  // must fit in one SPE's local store -- the budget the paper's port
  // had to respect by hand (Section 2: 256 KB for code AND data).
  const std::size_t real_bytes = core::real_bytes_of(cfg.precision);
  const core::TransferPlan plan = core::plan_chunk(core::ChunkShape{
      sweep::kBundleLines, grid.it, nm, real_bytes, cfg.aligned_rows});
  lint_machine(diags, cfg, plan, core::sweep_placement(cfg, grid.it, nm),
               "it " + std::to_string(grid.it));

  return diags;
}

Diagnostics lint_stencil(const stencil::StencilSpec& spec,
                         const core::CellSweepConfig& cfg) {
  Diagnostics diags;

  // Grid / blocking consistency: the same ranges StencilSpec::validate
  // enforces at parse time, re-checked here so hand-built specs (and
  // lint tests) get findings instead of exceptions.
  try {
    spec.validate();
  } catch (const stencil::StencilError& e) {
    diags.error("spec", spec.origin, e.what());
    return diags;  // nothing downstream is meaningful
  }

  // The stencil streams through the SPEs only; a PPE stage models no
  // stencil run.
  if (!cfg.use_spes) {
    diags.error("stage", "use_spes false",
                "the stencil runs only on the SPEs; a PPE stage has no "
                "stencil model");
    return diags;
  }

  // Machine fit of one block's working set, judged on the exact
  // transfer plan the stencil runner would stream.
  const std::size_t real_bytes = core::real_bytes_of(cfg.precision);
  const core::TransferPlan plan =
      stencil::plan_block(spec, real_bytes, cfg.aligned_rows);
  lint_machine(diags, cfg, plan, stencil::block_placement(plan),
               "bx " + std::to_string(spec.bx) + " by " +
                   std::to_string(spec.by) + " bz " +
                   std::to_string(spec.bz));
  return diags;
}

}  // namespace cellsweep::analysis
