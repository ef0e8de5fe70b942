#include "cellsim/mfc.h"

#include <algorithm>

#include "sim/counters.h"
#include "sim/fault.h"

namespace cellsweep::cell {

Mfc::Mfc(const CellSpec& spec, Eib* eib, Mic* mic, std::string name)
    : spec_(spec),
      eib_(eib),
      mic_(mic),
      name_(std::move(name)),
      depth_(spec.mfc_queue_depth) {
  if (depth_ <= 0 || depth_ > static_cast<int>(s_.slots.size()))
    throw DmaError("Mfc: unsupported queue depth");
  if (eib_ == nullptr || mic_ == nullptr)
    throw DmaError("Mfc: EIB/MIC must be provided");
}

void Mfc::validate(const DmaRequest& req) const {
  // Every rule is a plain comparison; the message is only built when
  // one fails, so a legal command allocates nothing.
  std::string why;
  auto append = [&](const std::string& what) {
    if (!why.empty()) why += "; ";
    why += what;
  };
  // The CBEA size rules apply to every transfer the MFC performs: full
  // elements and the trailing partial element alike.
  auto check_size = [&](std::size_t bytes, const char* what) {
    if (bytes < 16) {
      // Sub-quadword transfers must be naturally aligned powers of two.
      const bool pow2 = (bytes & (bytes - 1)) == 0;
      if (!pow2 || bytes > 8)
        append(std::string(what) + " below 16 bytes must be 1, 2, 4 or 8 bytes");
      else if (req.alignment % bytes != 0)
        append(std::string("sub-quadword ") + what +
               " must be naturally aligned");
    } else if (bytes % 16 != 0) {
      append(std::string(what) + " of 16 bytes or more must be multiples of 16");
    } else if (bytes > spec_.dma_max_bytes) {
      append("single transfer exceeds 16 KB");
    }
  };

  const std::size_t bytes = req.element_bytes;
  if (req.total_bytes == 0 || bytes == 0) {
    append("zero-length transfer");
  } else {
    check_size(bytes, "transfers");
    // A request whose payload is not a whole number of elements ends in
    // a partial element of total_bytes % element_bytes -- itself a real
    // MFC transfer, so it obeys the same size rules.
    const std::size_t rem = req.total_bytes % bytes;
    if (rem != 0 && req.total_bytes > bytes)
      check_size(rem, "trailing partial transfers");
  }
  if (req.as_list &&
      req.elements() > static_cast<std::size_t>(spec_.dma_list_max_elements))
    append("DMA list must have 1..2048 elements");
  if (req.alignment == 0 || (req.alignment & (req.alignment - 1)) != 0)
    append("alignment must be a power of two");
  if (req.banks_touched < 1 || req.banks_touched > spec_.memory_banks)
    append("banks_touched must be in 1.." + std::to_string(spec_.memory_banks) +
           ", got " + std::to_string(req.banks_touched));
  if (req.tag >= kMfcTagGroups) append("tag group must be 0..31");

  if (!why.empty()) throw DmaError("illegal DMA command: " + why);
}

double Mfc::transfer_efficiency(std::size_t bytes,
                                std::size_t alignment) const {
  // DRAM moves data in 128-byte bursts. A transfer smaller than one
  // burst still occupies a whole burst; a misaligned transfer touches
  // one extra burst. This is the mechanism behind the paper's advice
  // that peak rate needs 128-byte-aligned, 128-byte-multiple transfers.
  const std::size_t line = spec_.dma_align_sweet_spot;
  const bool aligned = alignment >= line;
  const std::size_t bursts = (bytes + line - 1) / line + (aligned ? 0 : 1);
  const double eff =
      static_cast<double>(bytes) / static_cast<double>(bursts * line);
  return std::clamp(eff, spec_.dma_min_efficiency, 1.0);
}

double Mfc::request_efficiency(const DmaRequest& req) const {
  if (req.element_bytes == 0 || req.total_bytes == 0) return 1.0;
  // The last element carries total % element bytes; it occupies DRAM
  // bursts for its *own* size, not the nominal element size. Weight the
  // efficiencies by port occupancy: occupancy(b) = b / eff(b).
  const std::size_t elem = std::min(req.element_bytes, req.total_bytes);
  const std::size_t full = req.total_bytes / elem;
  const std::size_t rem = req.total_bytes % elem;
  double occupancy = static_cast<double>(full * elem) /
                     transfer_efficiency(elem, req.alignment);
  if (rem != 0)
    occupancy +=
        static_cast<double>(rem) / transfer_efficiency(rem, req.alignment);
  const double eff = static_cast<double>(req.total_bytes) / occupancy;
  return std::clamp(eff, spec_.dma_min_efficiency, 1.0);
}

double Mfc::memo_efficiency(const DmaRequest& req) {
  // Fibonacci hash of the shape into the direct-mapped table; a
  // collision just re-prices and overwrites the entry.
  const std::size_t shape =
      (req.total_bytes * 31 + req.element_bytes) * 31 + req.alignment;
  EfficiencyMemo& m =
      eff_memo_[(shape * 0x9E3779B97F4A7C15ull) >> (64 - kEffMemoBits)];
  if (m.total_bytes != req.total_bytes ||
      m.element_bytes != req.element_bytes || m.alignment != req.alignment)
    m = EfficiencyMemo{req.total_bytes, req.element_bytes, req.alignment,
                       request_efficiency(req)};
  return m.efficiency;
}

DmaCompletion Mfc::submit(sim::Tick now, const DmaRequest& req) {
  validate(req);
  const std::size_t elements = req.elements();

  // SPU-side channel cost: a list pays one command issue plus a small
  // per-element list-build cost; a batch of individual commands pays
  // the full issue cost per row. This asymmetry is what makes
  // "convert individual DMAs to DMA lists" pay off (Fig. 5).
  const double issue_cycles =
      req.as_list ? spec_.dma_issue_cycles +
                        spec_.dma_list_build_cycles *
                            static_cast<double>(elements)
                  : spec_.dma_issue_cycles * static_cast<double>(elements);
  const sim::Tick issue_done = now + spec_.cycles(issue_cycles);

  // Queue back-pressure: reuse the slot that frees earliest.
  auto slot = std::min_element(s_.slots.begin(), s_.slots.begin() + depth_);
  const sim::Tick start = std::max(issue_done, *slot);
  if (start > issue_done) {
    ++s_.queue_full_commands;
    s_.queue_full_ticks += start - issue_done;
  }

  // Occupancy at entry: commands still outstanding when this one was
  // issued (observation only; feeds the stall-accounting histogram).
  int occupied = 0;
  for (int i = 0; i < depth_; ++i)
    if (s_.slots[i] > issue_done) ++occupied;
  ++s_.occupancy_hist[std::min(occupied, depth_ - 1)];

  // Memory-side startup: full per-command cost for individual commands,
  // reduced per-element cost inside a list.
  const sim::Tick overhead =
      req.as_list
          ? spec_.dma_cmd_overhead +
                static_cast<sim::Tick>(elements - 1) *
                    spec_.dma_list_element_overhead
          : static_cast<sim::Tick>(elements) * spec_.dma_cmd_overhead;

  const double payload = static_cast<double>(req.total_bytes);
  const double efficiency = memo_efficiency(req);

  // One attempt's transfer: crosses the EIB only for SPE-to-SPE moves,
  // otherwise drains through the MIC too; completion is bounded by the
  // slower of the two shared resources.
  auto stream = [&](sim::Tick at) -> sim::Tick {
    if (req.ls_to_ls) return std::max(eib_->submit(at, payload), at + overhead);
    const sim::Tick eib_done = eib_->submit(at, payload);
    const sim::Tick mic_done =
        mic_->submit(at, payload, overhead, efficiency, elements,
                     req.banks_touched, req.dir == DmaDir::kPut);
    return std::max(eib_done, mic_done);
  };

  // Transient-failure retry loop. The fault plan decides, purely from
  // (unit, command sequence), how many attempts fail before one lands;
  // every failed attempt streams its payload through the shared
  // resources (the cost is real), is detected via the tag-status fail
  // bit, and waits an exponentially growing backoff before resubmitting.
  const bool armed = faults_ != nullptr && faults_->enabled();
  const int failures = armed ? faults_->dma_failures(fault_unit_, fault_seq_++)
                             : 0;
  sim::Tick done = stream(start);
  for (int a = 0; a < failures; ++a) {
    const sim::Tick backoff = spec_.cycles(
        spec_.dma_retry_backoff_cycles *
        static_cast<double>(std::uint64_t{1} << std::min(a, 10)));
    const sim::Tick resume = done + spec_.dma_fault_detect + backoff;
    retry_backoff_ += resume - done;
    done = stream(resume);
  }
  if (failures > 0) {
    ++retried_commands_;
    retry_attempts_ += static_cast<std::uint64_t>(failures);
  }

  *slot = done;
  s_.tag_done[req.tag] = std::max(s_.tag_done[req.tag], done);
  // A list is one MFC command; a batch of individual transfers is one
  // command each.
  const std::uint64_t n_cmds =
      req.as_list ? 1 : static_cast<std::uint64_t>(elements);
  s_.commands += n_cmds;
  s_.transfers += static_cast<std::uint64_t>(elements);
  s_.bytes += payload;
  (req.dir == DmaDir::kGet ? s_.get_commands : s_.put_commands) += n_cmds;
  if (req.as_list) ++s_.list_commands;
  if (req.ls_to_ls) s_.ls_to_ls_commands += n_cmds;
  return DmaCompletion{issue_done, done, start, failures};
}

sim::Tick Mfc::wait_all(sim::Tick now) const {
  sim::Tick latest = now;
  for (int i = 0; i < depth_; ++i) latest = std::max(latest, s_.slots[i]);
  ++s_.tag_waits;
  s_.tag_wait_ticks += latest - now;
  return latest;
}

sim::Tick Mfc::wait_tag(sim::Tick now, unsigned tag) const {
  if (tag >= kMfcTagGroups) throw DmaError("wait_tag: tag group must be 0..31");
  sim::Tick ready = std::max(now, s_.tag_done[tag]);
  // A faulted tag-status wait misses the completion event and only
  // catches it on the next poll period.
  if (faults_ != nullptr && faults_->enabled() &&
      faults_->tag_timeout(fault_unit_, tag_fault_seq_++)) {
    ready += spec_.tag_timeout_penalty;
    ++tag_timeouts_;
    tag_timeout_ticks_ += spec_.tag_timeout_penalty;
  }
  ++s_.tag_waits;
  s_.tag_wait_ticks += ready - now;
  return ready;
}

void Mfc::publish_counters(sim::CounterSet& out) const {
  out.set("commands", static_cast<double>(s_.commands));
  out.set("get_commands", static_cast<double>(s_.get_commands));
  out.set("put_commands", static_cast<double>(s_.put_commands));
  out.set("list_commands", static_cast<double>(s_.list_commands));
  out.set("ls_to_ls_commands", static_cast<double>(s_.ls_to_ls_commands));
  out.set("transfers", static_cast<double>(s_.transfers));
  out.set("bytes_requested", s_.bytes);
  out.set("queue_full_commands", static_cast<double>(s_.queue_full_commands));
  out.set("queue_full_ticks", static_cast<double>(s_.queue_full_ticks));
  out.set("tag_waits", static_cast<double>(s_.tag_waits));
  out.set("tag_wait_ticks", static_cast<double>(s_.tag_wait_ticks));
  if (faults_ != nullptr && faults_->enabled()) {
    out.set("retried_commands", static_cast<double>(retried_commands_));
    out.set("retry_attempts", static_cast<double>(retry_attempts_));
    out.set("retry_backoff_ticks", static_cast<double>(retry_backoff_));
    out.set("tag_timeouts", static_cast<double>(tag_timeouts_));
    out.set("tag_timeout_ticks", static_cast<double>(tag_timeout_ticks_));
  }
}

void Mfc::reset() noexcept {
  s_ = State{};
  fault_seq_ = 0;
  tag_fault_seq_ = 0;
  retried_commands_ = 0;
  retry_attempts_ = 0;
  retry_backoff_ = 0;
  tag_timeouts_ = 0;
  tag_timeout_ticks_ = 0;
}

}  // namespace cellsweep::cell
