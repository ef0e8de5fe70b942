// Kernel cycle-cost model: records the actual instruction stream of a
// chunk kernel once per shape and schedules it on the SPU pipeline
// model. This is the "compute" leg of the timing simulation and the
// generator of the paper's Section 5.1 numbers (590 / 1690 cycles, 216
// flops, dual-issue counts, % of peak).
//
// * SIMD kernels are recorded by executing sweep_bundle_simd on
//   synthetic line data under an spu::TraceRecorder -- the trace is the
//   real dataflow of the real kernel.
// * Scalar-SPE kernels (the pre-SIMDization stages) are synthesized
//   instruction-by-instruction from the scalar code's per-cell
//   operation sequence, with the serial dependency chains naive scalar
//   code has (and, before the "goto elimination" stage, with unhinted
//   branches).
#pragma once

#include <cstdint>
#include <map>
#include <tuple>

#include "cellsim/spu_pipeline.h"
#include "core/config.h"
#include "spu/trace.h"
#include "sweep/sweeper.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cellsweep::core {

/// Cached cost of one chunk shape.
struct ChunkCost {
  double cycles = 0.0;
  std::uint64_t flops = 0;
  std::uint64_t instructions = 0;
  std::uint64_t dual_issues = 0;
  /// The full pipeline schedule of one invocation, kept so the timing
  /// engine can fold per-kernel stats into the per-SPE counter set
  /// instead of discarding them (kernels == 1 per cache entry).
  cell::PipelineStats stats;
};

/// Trace-driven chunk cost memo for one chip spec. A chunk's cost
/// depends only on its shape (kernel kind, precision, lines, it, nm,
/// fixup, gotos), never on the deck, so one model serves every run on
/// the chip: a solve server shares one across its tenants
/// (CellSweepConfig::warm_kernels). Thread-safe: each shape is priced
/// once, under the model's lock, and an entry never changes once
/// built, so a returned reference stays valid for the model's life.
class KernelCostModel {
 public:
  explicit KernelCostModel(const cell::CellSpec& spec) : pipeline_(spec) {}

  /// Cycles (and stats) to process one chunk of @p nlines I-lines of
  /// length @p it with @p nm moments. @p priced, when given, is set to
  /// whether this call had to price the shape.
  const ChunkCost& chunk_cost(sweep::KernelKind kind, Precision precision,
                              int nlines, int it, int nm, bool fixup,
                              bool gotos_eliminated,
                              bool* priced = nullptr) const EXCLUDES(mu_);

  /// Full pipeline schedule of a SIMD chunk (the Section 5.1 bench
  /// reports these directly). Optionally returns the recorded trace.
  cell::ScheduleResult schedule_simd_chunk(
      Precision precision, int nlines, int it, int nm, bool fixup,
      spu::Trace* out_trace = nullptr) const;

  /// Full pipeline schedule of a synthesized scalar-SPE chunk.
  cell::ScheduleResult schedule_scalar_chunk(
      Precision precision, int nlines, int it, int nm, bool fixup,
      bool gotos_eliminated, spu::Trace* out_trace = nullptr) const;

 private:
  using Key = std::tuple<int, int, int, int, int, bool, bool>;
  const cell::SpuPipeline pipeline_;
  mutable util::Mutex mu_{util::lockrank::kKernelCostModel,
                          "KernelCostModel::mu_"};
  mutable std::map<Key, ChunkCost> cache_ GUARDED_BY(mu_);
};

/// Records the SIMD bundle kernel on synthetic data. @p force_fixups
/// selects line data whose outflows all go negative, so the fixup
/// path's full cost appears in the trace (the paper's "do_fixup on"
/// measurement). Exposed for tests.
spu::Trace record_simd_chunk_trace(Precision precision, int nlines, int it,
                                   int nm, bool fixup);

/// Synthesizes the scalar-SPE per-cell instruction stream. Exposed for
/// tests.
spu::Trace record_scalar_chunk_trace(Precision precision, int nlines, int it,
                                     int nm, bool fixup,
                                     bool gotos_eliminated);

}  // namespace cellsweep::core
