#include "core/config.h"

#include <stdexcept>

namespace cellsweep::core {

const char* stage_name(OptimizationStage s) {
  switch (s) {
    case OptimizationStage::kPpeGcc:        return "PPE (GCC)";
    case OptimizationStage::kPpeXlc:        return "PPE (XLC)";
    case OptimizationStage::kSpeInitial:    return "8 SPEs, initial port";
    case OptimizationStage::kSpeAligned:    return "+ gotos removed, 128B rows";
    case OptimizationStage::kSpeBuffered:   return "+ double buffering";
    case OptimizationStage::kSpeSimd:       return "+ SIMD intrinsics";
    case OptimizationStage::kSpeDmaLists:   return "+ DMA lists, bank offsets";
    case OptimizationStage::kSpeLsPoke:     return "+ direct LS-poke sync";
    case OptimizationStage::kFutureBigDma:  return "[future] larger DMA granularity";
    case OptimizationStage::kFutureDistributed:
      return "[future] distributed dispatch";
    case OptimizationStage::kFuturePipelinedDp:
      return "[future] fully pipelined DP";
    case OptimizationStage::kFutureSingle:  return "[future] single precision";
  }
  return "?";
}

OptimizationStage stage_from_name(const std::string& name) {
  if (name == "ppe") return OptimizationStage::kPpeXlc;
  if (name == "initial") return OptimizationStage::kSpeInitial;
  if (name == "simd") return OptimizationStage::kSpeSimd;
  if (name == "final") return OptimizationStage::kSpeLsPoke;
  throw std::invalid_argument("unknown stage '" + name +
                              "' (valid: ppe | initial | simd | final)");
}

CellSweepConfig CellSweepConfig::from_stage(OptimizationStage s) {
  CellSweepConfig c;
  // Start from the fully optimized shipped configuration (kSpeLsPoke)
  // and strip mechanisms for earlier stages / add projections for
  // later ones, mirroring the cumulative ladder of Figure 5.
  switch (s) {
    case OptimizationStage::kPpeGcc:
      c.use_spes = false;
      c.xlc = false;
      c.kernel = sweep::KernelKind::kScalar;
      break;
    case OptimizationStage::kPpeXlc:
      c.use_spes = false;
      c.kernel = sweep::KernelKind::kScalar;
      break;
    case OptimizationStage::kSpeInitial:
      c.kernel = sweep::KernelKind::kScalar;
      c.aligned_rows = false;
      c.gotos_eliminated = false;
      c.buffers = 1;
      c.dma_lists = false;
      c.bank_offsets = false;
      c.sync = cell::SyncProtocol::kMailbox;
      break;
    case OptimizationStage::kSpeAligned:
      c.kernel = sweep::KernelKind::kScalar;
      c.buffers = 1;
      c.dma_lists = false;
      c.bank_offsets = false;
      c.sync = cell::SyncProtocol::kMailbox;
      break;
    case OptimizationStage::kSpeBuffered:
      c.kernel = sweep::KernelKind::kScalar;
      c.dma_lists = false;
      c.bank_offsets = false;
      c.sync = cell::SyncProtocol::kMailbox;
      break;
    case OptimizationStage::kSpeSimd:
      c.dma_lists = false;
      c.bank_offsets = false;
      c.sync = cell::SyncProtocol::kMailbox;
      break;
    case OptimizationStage::kSpeDmaLists:
      c.sync = cell::SyncProtocol::kMailbox;
      break;
    case OptimizationStage::kSpeLsPoke:
      break;  // the shipped configuration
    case OptimizationStage::kFutureBigDma:
      c.dma_granularity = 4096;
      break;
    case OptimizationStage::kFutureDistributed:
      c.dma_granularity = 4096;
      c.sync = cell::SyncProtocol::kAtomicDistributed;
      // The distributed redesign is free of the PPE's per-angle-block
      // pipelining constraint, so it widens the diagonals to the full
      // angle set for better self-scheduled load balance.
      c.sweep.mmi = 6;
      break;
    case OptimizationStage::kFuturePipelinedDp:
      c.dma_granularity = 4096;
      c.sync = cell::SyncProtocol::kAtomicDistributed;
      c.sweep.mmi = 6;
      c.chip = cell::fully_pipelined_dp_spec();
      break;
    case OptimizationStage::kFutureSingle:
      c.dma_granularity = 4096;
      c.sync = cell::SyncProtocol::kAtomicDistributed;
      c.sweep.mmi = 6;
      c.precision = Precision::kSingle;
      break;
  }
  return c;
}

}  // namespace cellsweep::core
