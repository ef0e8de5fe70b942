// Static dual-issue pipeline scheduler for the SPU.
//
// Replays an spu::Trace under the SPU's issue rules:
//   * in-order issue, at most two instructions per cycle;
//   * a pair may issue together only as (even-pipe, odd-pipe) in
//     program order -- the fetch-group pairing rule;
//   * true dataflow dependencies stall issue until sources are ready;
//   * double-precision ops are only partially pipelined: issuing one
//     blocks *all* issue for dp_issue_block_cycles (7 on the shipped
//     Cell BE), which is why DP peak is 4 flops every 7 cycles;
//   * unhinted branches flush the fetch pipeline (~18 cycles).
//
// This is the component that reproduces Section 5.1 of the paper: the
// 590-cycle / 216-flop kernel, the 1690-cycle fixup variant, the 24 and
// 85 dual-issue events, and the 64%-of-DP-peak figure all come out of
// this scheduler applied to the actual recorded kernel trace.
#pragma once

#include <array>
#include <cstdint>

#include "cellsim/spec.h"
#include "spu/trace.h"

namespace cellsweep::cell {

/// Which SPU pipeline an instruction class issues to.
enum class Pipe : std::uint8_t { kEven, kOdd };

/// Issue timing of one instruction class.
struct OpTiming {
  Pipe pipe;
  std::uint16_t latency;      ///< cycles until the result is usable
  std::uint16_t issue_block;  ///< cycles during which no further issue occurs
};

/// Per-class timing table, parameterized on the spec so the
/// fully-pipelined-DP variant (Fig. 10) only changes one number.
class PipelineSpec {
 public:
  explicit PipelineSpec(const CellSpec& spec);

  const OpTiming& timing(spu::Op op) const {
    return table_[static_cast<std::size_t>(op)];
  }

 private:
  std::array<OpTiming, spu::kOpCount> table_{};
};

/// Result of scheduling a trace.
struct ScheduleResult {
  std::uint64_t cycles = 0;           ///< completion cycle (last writeback)
  std::uint64_t issue_cycles = 0;     ///< cycle after the last issue
  std::uint64_t instructions = 0;     ///< instructions issued
  std::uint64_t dual_issues = 0;      ///< cycles that issued two instructions
  std::uint64_t even_pipe_insts = 0;  ///< instructions on the even pipe
  std::uint64_t odd_pipe_insts = 0;   ///< instructions on the odd pipe
  std::uint64_t dep_stall_cycles = 0;    ///< cycles lost to dataflow stalls
  std::uint64_t block_stall_cycles = 0;  ///< cycles lost to DP/branch blocking
  std::uint64_t flops = 0;            ///< flop count carried by the trace

  /// Achieved flops per cycle.
  double flops_per_cycle() const {
    return cycles == 0 ? 0.0
                       : static_cast<double>(flops) / static_cast<double>(cycles);
  }
  /// Fraction of cycles that dual-issued.
  double dual_issue_rate() const {
    return cycles == 0
               ? 0.0
               : static_cast<double>(dual_issues) / static_cast<double>(cycles);
  }
};

/// Accumulating pipeline statistics: the per-kernel ScheduleResult
/// numbers folded over every kernel invocation of a run. The timing
/// engine keeps one per SPE and publishes it into the counter tree, so
/// the Section 5.1 quantities (instructions, dual-issue and stall
/// cycles, flops) survive beyond the per-kernel cost-cache entry that
/// used to discard them.
struct PipelineStats {
  std::uint64_t kernels = 0;  ///< kernel invocations folded in
  std::uint64_t cycles = 0;
  std::uint64_t issue_cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t dual_issues = 0;
  std::uint64_t even_pipe_insts = 0;
  std::uint64_t odd_pipe_insts = 0;
  std::uint64_t dep_stall_cycles = 0;
  std::uint64_t block_stall_cycles = 0;
  std::uint64_t flops = 0;

  PipelineStats& operator+=(const PipelineStats& o) {
    kernels += o.kernels;
    cycles += o.cycles;
    issue_cycles += o.issue_cycles;
    instructions += o.instructions;
    dual_issues += o.dual_issues;
    even_pipe_insts += o.even_pipe_insts;
    odd_pipe_insts += o.odd_pipe_insts;
    dep_stall_cycles += o.dep_stall_cycles;
    block_stall_cycles += o.block_stall_cycles;
    flops += o.flops;
    return *this;
  }

  /// Field-wise difference (counters of one stretch of a run).
  PipelineStats operator-(const PipelineStats& o) const {
    PipelineStats d;
    d.kernels = kernels - o.kernels;
    d.cycles = cycles - o.cycles;
    d.issue_cycles = issue_cycles - o.issue_cycles;
    d.instructions = instructions - o.instructions;
    d.dual_issues = dual_issues - o.dual_issues;
    d.even_pipe_insts = even_pipe_insts - o.even_pipe_insts;
    d.odd_pipe_insts = odd_pipe_insts - o.odd_pipe_insts;
    d.dep_stall_cycles = dep_stall_cycles - o.dep_stall_cycles;
    d.block_stall_cycles = block_stall_cycles - o.block_stall_cycles;
    d.flops = flops - o.flops;
    return d;
  }

  /// Folds one kernel's schedule into the accumulator.
  PipelineStats& operator+=(const ScheduleResult& r) {
    ++kernels;
    cycles += r.cycles;
    issue_cycles += r.issue_cycles;
    instructions += r.instructions;
    dual_issues += r.dual_issues;
    even_pipe_insts += r.even_pipe_insts;
    odd_pipe_insts += r.odd_pipe_insts;
    dep_stall_cycles += r.dep_stall_cycles;
    block_stall_cycles += r.block_stall_cycles;
    flops += r.flops;
    return *this;
  }
};

/// The scheduler itself. Stateless apart from the timing table; safe to
/// reuse across traces.
class SpuPipeline {
 public:
  explicit SpuPipeline(const CellSpec& spec)
      : spec_(spec), timings_(spec) {}

  /// Schedules the whole trace from an empty pipeline.
  ScheduleResult schedule(const spu::Trace& trace) const;

  const CellSpec& spec() const noexcept { return spec_; }

 private:
  CellSpec spec_;
  PipelineSpec timings_;
};

}  // namespace cellsweep::cell
