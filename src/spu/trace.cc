#include "spu/trace.h"

#include <stdexcept>

namespace cellsweep::spu {

const char* op_name(Op op) {
  switch (op) {
    case Op::kFmaDouble:  return "dfma";
    case Op::kMulDouble:  return "dfm";
    case Op::kAddDouble:  return "dfa";
    case Op::kCmpDouble:  return "dfcgt";
    case Op::kFmaSingle:  return "fma";
    case Op::kMulSingle:  return "fm";
    case Op::kAddSingle:  return "fa";
    case Op::kCmpSingle:  return "fcgt";
    case Op::kFixed:      return "ai";
    case Op::kSelect:     return "selb";
    case Op::kLoad:       return "lqd";
    case Op::kStore:      return "stqd";
    case Op::kShuffle:    return "shufb";
    case Op::kBranch:     return "br";
    case Op::kBranchMiss: return "br!";
    case Op::kChannel:    return "rdch";
    case Op::kCount:      break;
  }
  return "?";
}

std::uint64_t Trace::count(Op op) const noexcept {
  std::uint64_t n = 0;
  for (const auto& inst : insts)
    if (inst.op == op) ++n;
  return n;
}

TraceRecorder::TraceRecorder() {
  if (active_ != nullptr)
    throw std::logic_error("TraceRecorder: another recorder is active");
  active_ = this;
}

TraceRecorder::~TraceRecorder() { active_ = nullptr; }

ValueId TraceRecorder::record(Op op, ValueId src0, ValueId src1, ValueId src2,
                              std::uint64_t flops) {
  const ValueId dst = next_value_++;
  trace_.insts.push_back(TracedInst{op, dst, src0, src1, src2});
  trace_.flops += flops;
  return dst;
}

Trace TraceRecorder::take_trace() noexcept {
  Trace t = std::move(trace_);
  trace_ = Trace{};
  return t;
}

}  // namespace cellsweep::spu
