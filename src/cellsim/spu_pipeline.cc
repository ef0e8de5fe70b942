#include "cellsim/spu_pipeline.h"

#include <algorithm>
#include <vector>

namespace cellsweep::cell {

PipelineSpec::PipelineSpec(const CellSpec& spec) {
  const auto dp_block = static_cast<std::uint16_t>(spec.dp_issue_block_cycles);
  // DP latency: 13 cycles on the shipped part; on the fully pipelined
  // variant the latency is 9 (PowerXCell 8i figure).
  const std::uint16_t dp_lat = spec.dp_issue_block_cycles > 1 ? 13 : 9;

  auto set = [&](spu::Op op, Pipe pipe, std::uint16_t lat,
                 std::uint16_t block) {
    table_[static_cast<std::size_t>(op)] = OpTiming{pipe, lat, block};
  };

  set(spu::Op::kFmaDouble, Pipe::kEven, dp_lat, dp_block);
  set(spu::Op::kMulDouble, Pipe::kEven, dp_lat, dp_block);
  set(spu::Op::kAddDouble, Pipe::kEven, dp_lat, dp_block);
  set(spu::Op::kCmpDouble, Pipe::kEven, dp_lat, dp_block);
  set(spu::Op::kFmaSingle, Pipe::kEven, 6, 1);
  set(spu::Op::kMulSingle, Pipe::kEven, 6, 1);
  set(spu::Op::kAddSingle, Pipe::kEven, 6, 1);
  set(spu::Op::kCmpSingle, Pipe::kEven, 2, 1);
  set(spu::Op::kFixed, Pipe::kEven, 2, 1);
  set(spu::Op::kSelect, Pipe::kEven, 2, 1);
  set(spu::Op::kLoad, Pipe::kOdd, 6, 1);
  set(spu::Op::kStore, Pipe::kOdd, 1, 1);
  set(spu::Op::kShuffle, Pipe::kOdd, 4, 1);
  set(spu::Op::kBranch, Pipe::kOdd, 1, 1);
  // An unhinted taken branch flushes the fetch pipeline: ~18 dead
  // cycles before the next instruction issues.
  set(spu::Op::kBranchMiss, Pipe::kOdd, 1, 19);
  set(spu::Op::kChannel, Pipe::kOdd, 2, 1);
}

ScheduleResult SpuPipeline::schedule(const spu::Trace& trace) const {
  ScheduleResult result;
  result.flops = trace.flops;
  if (trace.insts.empty()) return result;

  // ready[v] = first cycle at which value v can feed a dependent
  // instruction. Values produced outside the trace are ready at 0. The
  // recorder hands out ids densely from 1, so a vector indexed by id
  // covers them all; slot kNoValue (0) is never written.
  spu::ValueId max_id = 0;
  for (const auto& inst : trace.insts)
    max_id = std::max({max_id, inst.dst, inst.src0, inst.src1, inst.src2});
  std::vector<std::uint64_t> ready(static_cast<std::size_t>(max_id) + 1, 0);

  std::uint64_t completion = 0;
  // Earliest cycle the *next* instruction may issue (advanced by
  // in-order single issue and by issue-blocking ops).
  std::uint64_t next_issue = 0;
  // State of the previously issued instruction, for dual-issue pairing.
  std::uint64_t prev_cycle = 0;
  Pipe prev_pipe = Pipe::kOdd;
  bool prev_paired = true;  // nothing to pair with before the first inst
  bool prev_blocking = false;

  auto src_ready = [&](spu::ValueId v) -> std::uint64_t { return ready[v]; };

  for (const auto& inst : trace.insts) {
    const OpTiming& t = timings_.timing(inst.op);
    const std::uint64_t deps =
        std::max({src_ready(inst.src0), src_ready(inst.src1),
                  src_ready(inst.src2)});

    const bool blocking = t.issue_block > 1;
    std::uint64_t issue;
    bool paired = false;

    // Fetch-group pairing: the second slot of a dual issue must be an
    // odd-pipe instruction following an even-pipe one, the first must
    // not be a blocking op, and the pair shares one issue cycle.
    if (!prev_paired && prev_pipe == Pipe::kEven && t.pipe == Pipe::kOdd &&
        !prev_blocking && !blocking && deps <= prev_cycle &&
        next_issue <= prev_cycle + 1) {
      issue = prev_cycle;
      paired = true;
      ++result.dual_issues;
    } else {
      issue = std::max(next_issue, deps);
      if (deps > next_issue) result.dep_stall_cycles += deps - next_issue;
    }

    if (inst.dst != spu::kNoValue) ready[inst.dst] = issue + t.latency;
    completion = std::max(completion, issue + t.latency);

    if (!paired) {
      const std::uint64_t after = issue + t.issue_block;
      if (blocking) result.block_stall_cycles += t.issue_block - 1;
      next_issue = after;
      prev_cycle = issue;
      prev_pipe = t.pipe;
      prev_paired = false;
      prev_blocking = blocking;
      // A non-blocking instruction leaves its own cycle open for an
      // odd-pipe partner; next_issue tracks the following cycle.
      if (!blocking) next_issue = issue + 1;
    } else {
      prev_paired = true;  // the slot is consumed
    }

    ++result.instructions;
    if (t.pipe == Pipe::kEven)
      ++result.even_pipe_insts;
    else
      ++result.odd_pipe_insts;
  }

  result.issue_cycles = next_issue;
  result.cycles = completion;
  return result;
}

}  // namespace cellsweep::cell
