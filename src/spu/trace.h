// SPU instruction-trace recording.
//
// The Synergistic Processing Unit is an in-order, dual-issue core: the
// floating-point and fixed-point units live on the *even* pipeline,
// loads/stores/shuffles/branches on the *odd* pipeline (paper, Section
// 2). Reproducing the paper's Section 5.1 cycle counts (590 cycles /
// 216 flops, 24 dual-issue events, ...) requires scheduling the actual
// instruction stream of the kernel, not a guess. So the intrinsics in
// spu/intrinsics.h optionally record every operation they perform --
// including true dataflow dependencies via virtual value ids -- into a
// Trace. The cellsim::SpuPipeline scheduler then replays that trace
// under CBEA issue rules to obtain cycle counts and dual-issue
// statistics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cellsweep::spu {

/// Instruction classes distinguished by the pipeline model. Each maps
/// to an execution pipe, a result latency and an issue-block width in
/// cellsim::PipelineSpec.
enum class Op : std::uint8_t {
  kFmaDouble,    // even pipe; DP is only partially pipelined on Cell BE
  kMulDouble,    // even
  kAddDouble,    // even (covers add/sub)
  kCmpDouble,    // even
  kFmaSingle,    // even; fully pipelined
  kMulSingle,    // even
  kAddSingle,    // even
  kCmpSingle,    // even
  kFixed,        // even; integer ALU / address arithmetic
  kSelect,       // even; bitwise select
  kLoad,         // odd; 16-byte local-store load
  kStore,        // odd; 16-byte local-store store
  kShuffle,      // odd; shufb / splats
  kBranch,       // odd; correctly hinted branch
  kBranchMiss,   // odd; unhinted/mispredicted branch (flush penalty)
  kChannel,      // odd; channel ops (DMA issue, mailbox reads)
  kCount
};

constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

/// Returns a short mnemonic for diagnostics ("dfma", "lqd", ...).
const char* op_name(Op op);

/// Virtual register / value id used to express true dependencies.
/// Id 0 means "no source" (constants, immediate operands).
using ValueId = std::uint32_t;
inline constexpr ValueId kNoValue = 0;

/// One recorded instruction: operation class, destination value and up
/// to three source values (FMA has three).
struct TracedInst {
  Op op;
  ValueId dst;
  ValueId src0;
  ValueId src1;
  ValueId src2;
};

/// A recorded instruction stream plus its flop accounting.
struct Trace {
  std::vector<TracedInst> insts;
  std::uint64_t flops = 0;  // floating-point operations represented

  std::size_t size() const noexcept { return insts.size(); }
  void clear() noexcept {
    insts.clear();
    flops = 0;
  }

  /// Number of instructions of a given class.
  std::uint64_t count(Op op) const noexcept;
};

/// Scoped trace recorder. While an instance is alive, every spu
/// intrinsic appends to its Trace. Exactly one recorder may be active
/// at a time (the emulation is single-threaded by design; see
/// DESIGN.md section 4).
class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The recorder active in this thread, or nullptr.
  static TraceRecorder* active() noexcept { return active_; }

  /// Appends an instruction; returns the new destination value id.
  ValueId record(Op op, ValueId src0 = kNoValue, ValueId src1 = kNoValue,
                 ValueId src2 = kNoValue, std::uint64_t flops = 0);

  /// Allocates a fresh value id without recording an instruction (used
  /// for values that enter the traced region from outside).
  ValueId fresh_value() noexcept { return next_value_++; }

  const Trace& trace() const noexcept { return trace_; }
  Trace take_trace() noexcept;

 private:
  // Defined inline so every emulated op reads the pointer directly; an
  // out-of-line thread_local routes each read through a TLS-init call.
  static inline thread_local TraceRecorder* active_ = nullptr;
  Trace trace_;
  ValueId next_value_ = 1;
};

}  // namespace cellsweep::spu
