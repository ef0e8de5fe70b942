#include "core/streaming_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "analysis/hazard.h"
#include "cellsim/observer.h"
#include "util/aligned.h"

namespace cellsweep::core {
namespace {

/// Fewest SPEs an allocator tenant may be squeezed to under pressure.
constexpr int kMinSpes = 1;

/// A published floating-point counter that still counts exactly.
bool exact(double v) { return v >= 0.0 && v < 0x1p53 && v == std::floor(v); }

/// Publishes one SPE's folded pipeline schedules (the Section 5.1
/// counters) into @p out.
void publish_pipeline(const cell::PipelineStats& p, sim::CounterSet& out) {
  out.set("kernels", static_cast<double>(p.kernels));
  out.set("cycles", static_cast<double>(p.cycles));
  out.set("issue_cycles", static_cast<double>(p.issue_cycles));
  out.set("instructions", static_cast<double>(p.instructions));
  out.set("dual_issues", static_cast<double>(p.dual_issues));
  out.set("even_pipe_insts", static_cast<double>(p.even_pipe_insts));
  out.set("odd_pipe_insts", static_cast<double>(p.odd_pipe_insts));
  out.set("dep_stall_cycles", static_cast<double>(p.dep_stall_cycles));
  out.set("block_stall_cycles", static_cast<double>(p.block_stall_cycles));
  out.set("flops", static_cast<double>(p.flops));
}

}  // namespace

std::size_t LsPlacement::footprint(int buffers) const {
  std::size_t bytes = 0;
  for (const auto& region : resident)
    bytes += cell::LocalStore::padded(region.second);
  return bytes + static_cast<std::size_t>(std::max(buffers, 1)) *
                     cell::LocalStore::padded(buffer_bytes);
}

cell::DmaRequest make_dma_request(const StreamConfig& cfg,
                                  const TransferPlan& plan, cell::DmaDir dir,
                                  std::size_t bytes_total) {
  cell::DmaRequest req;
  req.dir = dir;
  req.alignment = cfg.aligned_rows ? 128 : 16;
  req.banks_touched =
      cfg.bank_offsets ? cfg.chip.memory_banks : cfg.chip.banks_without_offsets;
  req.total_bytes =
      util::round_up(std::max<std::size_t>(bytes_total, 16), 16);
  if (!cfg.dma_lists) {
    // One MFC command per row (the pre-"DMA lists" implementation).
    req.as_list = false;
    req.element_bytes = plan.row_bytes;
  } else {
    // One DMA-list command; element size is the configured
    // granularity (512-byte rows shipped; Fig. 10 raises it).
    req.as_list = true;
    req.element_bytes = util::round_up(
        std::max(std::min(cfg.dma_granularity, cfg.chip.dma_max_bytes),
                 plan.row_bytes),
        16);
  }
  return req;
}

StreamingPipeline::StreamingPipeline(const StreamConfig& cfg,
                                     const LsPlacement& placement)
    : cfg_(cfg),
      machine_(cfg.chip),
      spes_(cfg.chip.num_spes),
      sink_(cfg.trace_sink) {
  if (sink_) {
    ppe_track_ = sink_->track("PPE");
    spe_tracks_.reserve(spes_.size());
    for (std::size_t s = 0; s < spes_.size(); ++s)
      spe_tracks_.push_back(sink_->track("SPE" + std::to_string(s)));
    eib_track_ = sink_->track("EIB");
    mic_track_ = sink_->track("MIC");
  }
  // Chunks rotate through `buffers` staging buffers; a degenerate
  // config below 1 behaves as synchronous single buffering.
  if (cfg_.buffers < 1) cfg_.buffers = 1;

  // Fault plan: built once (the constructor validates the spec), then
  // attached to every unit that can fail. alive_ starts from the
  // boot-time SPE health -- the 7-of-8 yield case runs the whole
  // workload on the survivors.
  fault_plan_ = sim::FaultPlan(cfg_.faults);
  alive_.assign(spes_.size(), 1);
  failed_.assign(spes_.size(), 0);
  if (fault_plan_.enabled()) {
    for (int s = 0; s < machine_.num_spes(); ++s) {
      machine_.spe(s).mfc().attach_faults(&fault_plan_, s);
      if (fault_plan_.spe_disabled(s)) {
        alive_[static_cast<std::size_t>(s)] = 0;
        ++spes_disabled_;
      }
    }
    machine_.mic().attach_faults(&fault_plan_);
    machine_.dispatch().attach_faults(&fault_plan_);
    if (spes_disabled_ >= machine_.num_spes())
      throw sim::FaultError(
          "fault plan disables every SPE: nothing left to run on");
  }

  // Multi-tenant mode: claim SPEs from the shared allocator (blocking
  // until one is free). A solo tenant gets the whole chip and --
  // since yielding only happens under pressure -- keeps it, so its
  // timing stays byte-identical to the allocator-free build.
  claimed_.assign(spes_.size(), 1);
  if (cfg_.spe_allocator) {
    if (cfg_.spe_allocator->num_spes() != machine_.num_spes())
      throw std::invalid_argument(
          "StreamingPipeline: SpeAllocator width != chip.num_spes");
    claim_ = cfg_.spe_allocator->claim(kMinSpes, machine_.num_spes(),
                                       cfg_.claim_weight, cfg_.claim_quota);
    claim_changed();
    // Start the cyclic cursor on our lowest claimed SPE so chunk 0
    // lands deterministically regardless of which SPEs we got.
    p_.rr_spe = claim_.ids.front();
  }

  // Protocol observer: an externally attached checker wins; otherwise
  // CELLSWEEP_HAZARD_CHECK in the environment arms a pipeline-owned one
  // whose errors finish() escalates (the CI hazard-checked suite mode).
  observer_ = cfg.hazard;
  if (!observer_ && std::getenv("CELLSWEEP_HAZARD_CHECK") != nullptr) {
    owned_diags_ = std::make_unique<analysis::Diagnostics>();
    owned_checker_ =
        std::make_unique<analysis::HazardChecker>(owned_diags_.get(), cfg.chip);
    observer_ = owned_checker_.get();
  }

  // LS placement: the workload's resident regions plus one staging
  // buffer per rotation slot, laid out identically on every SPE.
  // LocalStore::allocate throws cell::LocalStoreOverflow when the
  // budget (including the code reservation) does not fit in 256 KB.
  for (int s = 0; s < machine_.num_spes(); ++s) {
    cell::LocalStore& ls = machine_.spe(s).local_store();
    ls.reset();
    if (observer_) observer_->on_ls_reset(s);
    for (const auto& [name, bytes] : placement.resident) {
      ls.allocate(name, bytes);
      if (observer_)
        observer_->on_ls_alloc(s, ls.regions().back(), ls.capacity());
    }
    for (int b = 0; b < cfg_.buffers; ++b) {
      const std::size_t off = ls.allocate("chunk-buffer-" + std::to_string(b),
                                          placement.buffer_bytes);
      if (observer_)
        observer_->on_ls_alloc(s, ls.regions().back(), ls.capacity());
      if (s == 0) buffer_offsets_.push_back(off);
    }
  }
  ls_high_water_ = machine_.spe(0).local_store().high_water();
}

StreamingPipeline::~StreamingPipeline() {
  // finish() already released on the normal path; this covers runs torn
  // down by an exception so a dying tenant never strands its SPEs.
  if (cfg_.spe_allocator && !claim_.empty())
    cfg_.spe_allocator->release(claim_);
}

void StreamingPipeline::rebalance(std::size_t batch_chunks) {
  SpeAllocator& alloc = *cfg_.spe_allocator;
  const int need = spes_needed(batch_chunks);
  // The NOVA yield, pressure check and target computation in one
  // critical section inside the allocator: the old pressure() /
  // fair_share() / shrink() sequence could act on a waiter that had
  // already been served, or miss one arriving between the calls.
  if (alloc.shrink_to_fair_share(claim_, need, kMinSpes)) {
    ++rebalance_shrinks_;
  } else if (claim_.count() < need) {
    // Slack returned: regrow opportunistically (denied under pressure).
    if (alloc.expand(claim_, need) > 0) ++rebalance_expands_;
  }
  claim_changed();
}

int StreamingPipeline::spes_needed(std::size_t chunks) const {
  // One chunk set per rotation slot.
  const auto buffers = static_cast<std::size_t>(cfg_.buffers);
  return std::clamp(static_cast<int>((chunks + buffers - 1) / buffers),
                    kMinSpes, machine_.num_spes());
}

void StreamingPipeline::claim_changed() {
  claimed_.assign(claimed_.size(), 0);
  for (const int id : claim_.ids) claimed_[static_cast<std::size_t>(id)] = 1;
  min_claimed_ = std::min(min_claimed_, claim_.count());
  max_claimed_ = std::max(max_claimed_, claim_.count());
}

std::size_t StreamingPipeline::wave_width() const {
  std::size_t live = 0;
  for (std::size_t s = 0; s < alive_.size(); ++s)
    live += static_cast<std::size_t>(alive_[s] != 0 && claimed_[s] != 0);
  return std::max<std::size_t>(live, 1) *
         static_cast<std::size_t>(cfg_.buffers);
}

void StreamingPipeline::memory_pass(const char* name, double bytes) {
  confined_.check("StreamingPipeline::memory_pass");
  // One streaming pass over main memory (the sweep's source-moment
  // rebuild, the stencil's residual reduction). Bandwidth-bound; the
  // arithmetic is fully pipelined underneath. Serializes: the pass
  // starts at the current horizon and later work starts behind it.
  applied_.reset();
  const sim::Tick before = p_.next_barrier;
  p_.next_barrier = machine_.mic().submit(p_.next_barrier, bytes, 0, 1.0);
  if (sink_) {
    sink_->span(mic_track_, name, "memory", before, p_.next_barrier);
    sink_->counter(mic_track_, "traffic-gb", p_.next_barrier,
                   machine_.mic().bytes_moved() / 1e9);
  }
}

bool StreamingPipeline::open_block(std::initializer_list<std::int64_t> salt) {
  // observer_ includes the checker CELLSWEEP_HAZARD_CHECK arms.
  if (sink_ || observer_ || fault_plan_.enabled() || cfg_.spe_allocator ||
      cfg_.cancel)
    return false;
  // Right after entry prev, a salt that begins prev's successor's key
  // completes that key too.
  const std::optional<std::size_t> prev = std::exchange(applied_, {});
  if (prev && memo_[*prev].next) {
    const std::size_t next = *memo_[*prev].next;
    const std::vector<std::int64_t>& key = memo_[next].key;
    if (key.size() >= salt.size() &&
        std::equal(salt.begin(), salt.end(), key.begin()))
      return skip_as(next);
  }
  key_.assign(salt);
  canonical_key(key_);
  for (std::size_t i = 0; i < memo_.size(); ++i) {
    if (memo_[i].key != key_) continue;
    if (prev) memo_[*prev].next = i;
    return skip_as(i);
  }
  if (exact_counters()) recording_ = Block{key_, snapshot(), {}, {}};
  return false;
}

bool StreamingPipeline::skip_as(std::size_t i) {
  if (!fast_forward(memo_[i])) return false;
  skipping_ = i;
  return true;
}

void StreamingPipeline::close_block() {
  if (skipping_) applied_ = std::exchange(skipping_, {});
  if (recording_) {
    if (exact_counters()) {
      recording_->end = snapshot();
      memo_.push_back(std::move(*recording_));
      applied_ = memo_.size() - 1;
    }
    recording_.reset();
  }
}

void StreamingPipeline::canonical_key(std::vector<std::int64_t>& key) {
  const sim::Tick base = p_.next_barrier;
  auto rel = [base](sim::Tick t) {
    return static_cast<std::int64_t>(t - base);
  };
  // Exact: these feed ticks or the wait-bucket counters directly.
  key.insert(key.end(), {p_.rr_spe, rel(p_.reports_horizon),
                         rel(machine_.mic().state().port.free_at)});
  sim::Tick lowest_floor = base;
  for (int s = 0; s < machine_.num_spes(); ++s) {
    const SpeClock& spe = spes_[static_cast<std::size_t>(s)];
    key.insert(key.end(),
               {rel(spe.request_at), rel(spe.compute_free), rel(spe.put_done),
                static_cast<std::int64_t>(spe.served % cfg_.buffers)});
    // Every later command and tag wait on this MFC starts at or after
    // request_at, so values below the floor only differ in history. A
    // command takes the earliest-free slot, so slot order never matters:
    // the raised slots come first, then the busy ones in order.
    const sim::Tick floor = std::min(spe.request_at, base);
    lowest_floor = std::min(lowest_floor, floor);
    cell::Mfc& mfc = machine_.spe(s).mfc();
    cell::Mfc::State m = mfc.state();
    const auto live = m.slots.begin() + mfc.queue_depth();
    const auto busy = std::partition(
        m.slots.begin(), live, [floor](sim::Tick t) { return t <= floor; });
    std::fill(m.slots.begin(), busy, floor);
    std::sort(busy, live);
    for (auto slot = m.slots.begin(); slot != live; ++slot)
      key.push_back(rel(*slot));
    for (sim::Tick& done : m.tag_done) {
      done = std::max(done, floor);
      key.push_back(rel(done));
    }
    mfc.restore(m);
  }
  // Every EIB transfer comes from some MFC's command; every grant and
  // report of the block happens at or after its base.
  sim::BandwidthResource::State eib = machine_.eib().state();
  eib.free_at = std::max(eib.free_at, lowest_floor);
  key.push_back(rel(eib.free_at));
  machine_.eib().restore(eib);
  cell::DispatchFabric::State dispatch = machine_.dispatch().state();
  for (sim::LatencyServer::State* server :
       {&dispatch.mailbox, &dispatch.poke, &dispatch.atomic}) {
    server->free_at = std::max(server->free_at, base);
    key.push_back(rel(server->free_at));
  }
  machine_.dispatch().restore(dispatch);
}

StreamingPipeline::Snapshot StreamingPipeline::snapshot() const {
  Snapshot snap{p_,
                spes_,
                {},
                {},
                machine_.mic().state(),
                machine_.eib().state(),
                machine_.dispatch().state()};
  for (int s = 0; s < machine_.num_spes(); ++s) {
    snap.spe_units.push_back(machine_.spe(s).state());
    snap.mfcs.push_back(machine_.spe(s).mfc().state());
  }
  return snap;
}

bool StreamingPipeline::exact_counters() const {
  bool ok = exact(p_.compute_cycles) &&
            exact(machine_.mic().state().logical_bytes) &&
            exact(machine_.eib().state().bytes);
  for (int s = 0; s < machine_.num_spes(); ++s)
    ok = ok && exact(machine_.spe(s).mfc().state().bytes);
  return ok;
}

bool StreamingPipeline::fast_forward(const Block& block) {
  const Snapshot& from = block.start;
  const Snapshot& to = block.end;
  // Each published floating-point counter must count exactly before
  // and after its recorded delta lands.
  auto exact_after = [](double cur, double start, double end) {
    return exact(cur) && exact(cur + (end - start));
  };
  bool ok =
      exact_after(p_.compute_cycles, from.progress.compute_cycles,
                  to.progress.compute_cycles) &&
      exact_after(machine_.mic().state().logical_bytes,
                  from.mic.logical_bytes, to.mic.logical_bytes) &&
      exact_after(machine_.eib().state().bytes, from.eib.bytes, to.eib.bytes);
  for (int s = 0; ok && s < machine_.num_spes(); ++s) {
    const auto u = static_cast<std::size_t>(s);
    ok = exact_after(machine_.spe(s).mfc().state().bytes, from.mfcs[u].bytes,
                     to.mfcs[u].bytes);
  }
  if (!ok) return false;

  // Each field is a clock (it lands at the recorded offset from the
  // block's base) or a counter (it grows by the recorded delta).
  const sim::Tick from_base = from.progress.next_barrier;
  const sim::Tick base = p_.next_barrier;
  auto at = [&](sim::Tick end) { return base + (end - from_base); };
  auto add = [](auto& cur, auto start, auto end) { cur += end - start; };
  auto link = [&](sim::BandwidthResource::State& cur,
                  const sim::BandwidthResource::State& start,
                  const sim::BandwidthResource::State& end) {
    cur.free_at = at(end.free_at);
    add(cur.busy, start.busy, end.busy);
    add(cur.wait, start.wait, end.wait);
    add(cur.bytes, start.bytes, end.bytes);
    add(cur.requests, start.requests, end.requests);
  };
  auto server = [&](sim::LatencyServer::State& cur,
                    const sim::LatencyServer::State& start,
                    const sim::LatencyServer::State& end) {
    cur.free_at = at(end.free_at);
    add(cur.requests, start.requests, end.requests);
  };

  const Progress& pa = from.progress;
  const Progress& pb = to.progress;
  p_.next_barrier = at(pb.next_barrier);
  p_.reports_horizon = at(pb.reports_horizon);
  p_.rr_spe = pb.rr_spe;
  add(p_.token_seq, pa.token_seq, pb.token_seq);
  add(p_.flops, pa.flops, pb.flops);
  add(p_.work_units, pa.work_units, pb.work_units);
  add(p_.chunks, pa.chunks, pb.chunks);
  add(p_.compute_cycles, pa.compute_cycles, pb.compute_cycles);

  for (std::size_t s = 0; s < spes_.size(); ++s) {
    SpeClock& c = spes_[s];
    const SpeClock& ca = from.spes[s];
    const SpeClock& cb = to.spes[s];
    c.request_at = at(cb.request_at);
    c.compute_free = at(cb.compute_free);
    c.put_done = at(cb.put_done);
    add(c.served, ca.served, cb.served);
    add(c.dma_wait, ca.dma_wait, cb.dma_wait);
    add(c.sync_wait, ca.sync_wait, cb.sync_wait);
    c.pipe += cb.pipe - ca.pipe;

    cell::Spe& unit = machine_.spe(static_cast<int>(s));
    cell::Spe::State u = unit.state();
    add(u.busy, from.spe_units[s].busy, to.spe_units[s].busy);
    add(u.work_items, from.spe_units[s].work_items,
        to.spe_units[s].work_items);
    unit.restore(u);

    cell::Mfc& mfc = unit.mfc();
    cell::Mfc::State m = mfc.state();
    const cell::Mfc::State& ma = from.mfcs[s];
    const cell::Mfc::State& mb = to.mfcs[s];
    for (int i = 0; i < mfc.queue_depth(); ++i) m.slots[i] = at(mb.slots[i]);
    for (std::size_t g = 0; g < m.tag_done.size(); ++g)
      m.tag_done[g] = at(mb.tag_done[g]);
    add(m.commands, ma.commands, mb.commands);
    add(m.transfers, ma.transfers, mb.transfers);
    add(m.bytes, ma.bytes, mb.bytes);
    for (std::size_t k = 0; k < m.occupancy_hist.size(); ++k)
      add(m.occupancy_hist[k], ma.occupancy_hist[k], mb.occupancy_hist[k]);
    add(m.get_commands, ma.get_commands, mb.get_commands);
    add(m.put_commands, ma.put_commands, mb.put_commands);
    add(m.list_commands, ma.list_commands, mb.list_commands);
    add(m.ls_to_ls_commands, ma.ls_to_ls_commands, mb.ls_to_ls_commands);
    add(m.queue_full_commands, ma.queue_full_commands, mb.queue_full_commands);
    add(m.queue_full_ticks, ma.queue_full_ticks, mb.queue_full_ticks);
    add(m.tag_waits, ma.tag_waits, mb.tag_waits);
    add(m.tag_wait_ticks, ma.tag_wait_ticks, mb.tag_wait_ticks);
    mfc.restore(m);
  }

  // The MIC attributes elements to banks from a rotating cursor that
  // the key leaves out: the block's per-bank deltas, read from its
  // starting cursor, land from the current one.
  cell::Mic::State mic = machine_.mic().state();
  const cell::Mic::State& mia = from.mic;
  const cell::Mic::State& mib = to.mic;
  link(mic.port, mia.port, mib.port);
  add(mic.logical_bytes, mia.logical_bytes, mib.logical_bytes);
  add(mic.reads, mia.reads, mib.reads);
  add(mic.writes, mia.writes, mib.writes);
  add(mic.conflict, mia.conflict, mib.conflict);
  const int banks = machine_.spec().memory_banks;
  auto next_bank = [banks](int b) { return b + 1 == banks ? 0 : b + 1; };
  for (int j = 0, src = mia.bank_cursor, dst = mic.bank_cursor; j < banks;
       ++j, src = next_bank(src), dst = next_bank(dst)) {
    const auto d = static_cast<std::size_t>(dst);
    const auto r = static_cast<std::size_t>(src);
    add(mic.bank_reads[d], mia.bank_reads[r], mib.bank_reads[r]);
    add(mic.bank_writes[d], mia.bank_writes[r], mib.bank_writes[r]);
  }
  mic.bank_cursor =
      (mic.bank_cursor + mib.bank_cursor - mia.bank_cursor + banks) % banks;
  machine_.mic().restore(mic);

  sim::BandwidthResource::State eib = machine_.eib().state();
  link(eib, from.eib, to.eib);
  machine_.eib().restore(eib);

  cell::DispatchFabric::State d = machine_.dispatch().state();
  const cell::DispatchFabric::State& da = from.dispatch;
  const cell::DispatchFabric::State& db = to.dispatch;
  server(d.mailbox, da.mailbox, db.mailbox);
  server(d.poke, da.poke, db.poke);
  server(d.atomic, da.atomic, db.atomic);
  add(d.grants, da.grants, db.grants);
  add(d.reports, da.reports, db.reports);
  machine_.dispatch().restore(d);
  return true;
}

int StreamingPipeline::pick_spe(sim::Tick& extra) {
  const int n = static_cast<int>(spes_.size());
  for (int scanned = 0; scanned <= 2 * n; ++scanned) {
    const int s = p_.rr_spe;
    p_.rr_spe = (p_.rr_spe + 1) % n;
    // SPEs another tenant holds are simply not in the rotation (no
    // re-dispatch accounting: the chunk was never theirs to lose).
    if (!claimed_[static_cast<std::size_t>(s)]) continue;
    if (!alive_[static_cast<std::size_t>(s)]) {
      // Every chunk the round-robin would have placed on a mid-run
      // casualty is work the survivors absorb; boot-disabled SPEs were
      // never in the rotation, so they don't count as re-dispatches.
      if (failed_[static_cast<std::size_t>(s)]) ++redispatched_chunks_;
      continue;
    }
    if (fault_plan_.enabled()) {
      const std::int64_t limit = fault_plan_.spe_fail_after(s);
      if (limit > 0 &&
          spes_[static_cast<std::size_t>(s)].served >=
              static_cast<std::uint64_t>(limit)) {
        // The SPE dies with this chunk assigned: the PPE watchdog
        // detects the silence and re-dispatches to the next survivor.
        // Only this first detection pays the watchdog latency; later
        // rounds skip the dead SPE with no extra cost.
        alive_[static_cast<std::size_t>(s)] = 0;
        failed_[static_cast<std::size_t>(s)] = 1;
        ++spes_failed_;
        ++redispatched_chunks_;
        extra += machine_.spec().spe_fail_detect;
        failover_ticks_ += machine_.spec().spe_fail_detect;
        continue;
      }
    }
    return s;
  }
  throw sim::FaultError("every SPE has failed: nothing left to run on");
}

void StreamingPipeline::account_wait(int spe_index, sim::Tick base,
                                     sim::Tick dma_ready,
                                     sim::Tick sync_ready) {
  // The SPU stalls over [base, max(dma_ready, sync_ready)). Split the
  // interval at the earlier constraint's resolution: time up to it is
  // charged to that bucket, the rest to the later (binding) one. The
  // two buckets partition the wait exactly, so per-SPE busy + dma_wait
  // + sync_wait + idle always sums to the run length.
  SpeClock& spe = spes_[spe_index];
  const sim::Tick first = std::max(base, std::min(dma_ready, sync_ready));
  const sim::Tick ready = std::max(base, std::max(dma_ready, sync_ready));
  const bool dma_first = dma_ready <= sync_ready;
  (dma_first ? spe.dma_wait : spe.sync_wait) += first - base;
  (dma_first ? spe.sync_wait : spe.dma_wait) += ready - first;
  if (sink_) {
    const int t = spe_tracks_[spe_index];
    const char* sync_name = cfg_.sync == cell::SyncProtocol::kAtomicDistributed
                                ? "atomic-wait"
                            : cfg_.sync == cell::SyncProtocol::kMailbox
                                ? "mailbox-wait"
                                : "ls-poke-wait";
    const char* a = dma_first ? "dma-wait" : sync_name;
    const char* b = dma_first ? sync_name : "dma-wait";
    if (first > base) sink_->span(t, a, dma_first ? "dma" : "sync", base, first);
    if (ready > first)
      sink_->span(t, b, dma_first ? "sync" : "dma", first, ready);
  }
}

void StreamingPipeline::trace_dma(int spe_index, const char* name,
                                  sim::Tick submitted,
                                  const cell::DmaCompletion& c,
                                  bool to_memory) {
  if (!sink_) return;
  const int t = spe_tracks_[spe_index];
  // SPU-side channel phase, MFC queue back-pressure phase, then the
  // payload streaming through the shared fabric.
  sink_->span(t, "dma-issue", "dma", submitted, c.issue_done);
  if (c.start > c.issue_done)
    sink_->span(t, "dma-queue", "dma", c.issue_done, c.start);
  sink_->span(to_memory ? mic_track_ : eib_track_, name, "dma", c.start,
              c.done);
  if (c.retries > 0) sink_->instant(t, "dma-retry", "fault", c.done);
}

cell::DmaCompletion StreamingPipeline::submit_dma(Chunk& c, const char* name,
                                                cell::DmaDir dir,
                                                std::size_t bytes,
                                                sim::Tick from,
                                                bool to_memory) {
  // Gets stage back to back into the chunk's buffer under its get tag;
  // the put writes the buffer back under its put tag.
  const bool get = dir == cell::DmaDir::kGet;
  cell::DmaRequest req = make_dma_request(cfg_, c.spec->plan, dir, bytes);
  req.ls_to_ls = !to_memory;
  req.tag = static_cast<unsigned>(get ? c.buf : cfg_.buffers + c.buf);
  req.ls_offset = buffer_offsets_[static_cast<std::size_t>(c.buf)] +
                  (get ? c.staged_bytes : 0);
  req.ls_bytes = req.total_bytes;
  const cell::DmaCompletion done = machine_.spe(c.spe).mfc().submit(from, req);
  trace_dma(c.spe, name, from, done, to_memory);
  if (observer_) observer_->on_dma(c.spe, req, from, done, c.token);
  if (get) c.staged_bytes += req.total_bytes;
  return done;
}

void StreamingPipeline::run_batch(const std::vector<StreamChunkSpec>& specs,
                                  const DependencyPolicy& deps,
                                  bool new_block) {
  confined_.check("StreamingPipeline::run_batch");
  applied_.reset();
  // A new pipeline block starts behind everything outstanding (the
  // sweep's blocks are sequential -- the paper's sweep() processes
  // them in order) and forgets the upstream chunk history.
  if (new_block) {
    p_.barrier = p_.next_barrier;
    prev_completion_.clear();
    prev_compute_end_.clear();
    if (sink_) sink_->instant(ppe_track_, "block-barrier", "sync", p_.barrier);
  }

  // Multi-tenant claim adjustment happens only here, between batches:
  // mid-wave the staging buffers of a yielded SPE could still be in
  // flight. A solo tenant never shrinks (no pressure) and never needs
  // to grow, so this is a no-op for it.
  if (cfg_.spe_allocator) rebalance(specs.size());

  // Dispatch release: with centralized scheduling the PPE must observe
  // every completion report of the previous batch before it can hand
  // out the next one -- the serialization the paper's Fig. 10 removes
  // with distributed self-scheduling (SPEs then simply bump the shared
  // counter from the atomic unit and chase per-chunk dependencies).
  const bool centralized =
      cfg_.sync != cell::SyncProtocol::kAtomicDistributed;
  const sim::Tick release =
      centralized ? std::max(p_.barrier, p_.reports_horizon)
                  : p_.barrier + machine_.spec().atomic_op_latency;

  // Upstream readiness is the workload's dependency policy over the
  // previous batch's chunks: under centralized dispatch faces travel
  // through main memory, so an upstream chunk must have *completed*
  // (writeback drained); the distributed variant forwards faces
  // SPE-to-SPE from the upstream local store, so its compute end (plus
  // an atomic hop) suffices.
  const UpstreamView upstream{
      centralized ? prev_completion_ : prev_compute_end_, p_.barrier,
      centralized ? sim::Tick{0} : machine_.spec().atomic_op_latency};
  auto dependency_ready = [&](int c) -> sim::Tick {
    return deps(upstream, c);
  };

  // The batch's chunk list, assigned to SPEs in the paper's cyclic
  // manner. Each chunk streams through one of the SPE's rotating
  // staging buffers; the token is the global chunk sequence number
  // binding its grant, DMAs, kernel and report together for the
  // protocol checker.
  std::vector<Chunk>& chunks = batch_;
  chunks.clear();
  for (const StreamChunkSpec& sc : specs) {
    sim::Tick extra = 0;
    const int s = pick_spe(extra);
    SpeClock& spe = spes_[s];
    const int buf = static_cast<int>(spe.served % cfg_.buffers);
    ++spe.served;
    chunks.push_back(Chunk{&sc, s, buf, p_.token_seq++, extra});
  }

  // The chunks stream in waves of `buffers` chunks per SPE. Within a
  // wave, phase A (grants + working-set gets, in grant order) runs for
  // every chunk, then phase B (kernels), then phase C (writebacks +
  // reports): shared resources (dispatch fabric, MIC) see near-monotone
  // request times, which the FIFO contention model requires. The wave
  // bound keeps the model honest about buffer rotation: an SPE
  // prefetches at most one chunk ahead per staging buffer -- the
  // lookahead double buffering actually grants -- instead of racing a
  // whole batch's gets past unconsumed data. Only LIVE SPEs carry
  // chunks, so a degraded chip must use the survivor count: with the
  // full width a survivor would draw more than `buffers` chunks in one
  // wave and phase A would re-stage a buffer its phase-B kernel has
  // not consumed yet (the hazard checker flags exactly that).
  std::size_t wave = wave_width();
  for (std::size_t w0 = 0; w0 < chunks.size(); w0 += wave) {
    // Chunk-granularity QoS, decided strictly between waves (a yielded
    // or abandoned SPE has no staging buffer in flight there). Both
    // checks read host-side state only: when neither fires, the batch
    // arithmetic below is untouched.
    if (cfg_.cancel && cfg_.cancel->load(std::memory_order_relaxed))
      throw RunCancelled("run cancelled between waves (chunk " +
                         std::to_string(w0) + " of " +
                         std::to_string(chunks.size()) + ")");
    if (w0 > 0 && cfg_.spe_allocator &&
        cfg_.spe_allocator->priority_pressure(claim_.weight)) {
      // A strictly higher-weight claim is blocked: yield *now* rather
      // than at the next batch boundary. The remaining chunks move to
      // the surviving claim and the wave narrows with it.
      if (cfg_.spe_allocator->shrink_to_fair_share(
              claim_, spes_needed(chunks.size() - w0), kMinSpes)) {
        ++preempt_yields_;
        claim_changed();
        // Reassign the not-yet-started chunks: roll their buffer
        // rotation back, restart the cyclic cursor on our lowest
        // surviving SPE (deterministic regardless of which ids were
        // yielded), and re-run the cyclic assignment over the
        // narrowed claim. Tokens are positional, so they stand.
        for (std::size_t i = w0; i < chunks.size(); ++i)
          --spes_[chunks[i].spe].served;
        p_.rr_spe = claim_.ids.front();
        for (std::size_t i = w0; i < chunks.size(); ++i) {
          sim::Tick extra = 0;
          const int s = pick_spe(extra);
          SpeClock& spe = spes_[s];
          chunks[i].spe = s;
          chunks[i].buf = static_cast<int>(spe.served % cfg_.buffers);
          chunks[i].extra = extra;
          ++spe.served;
        }
        wave = wave_width();
        if (sink_)
          sink_->instant(ppe_track_, "preempt-yield", "sync", p_.next_barrier);
      }
    }
    const std::size_t w1 = std::min(chunks.size(), w0 + wave);

    // Phase A. With double buffering the *bulk* working set (no
    // upstream dependency; chunk assignment is cyclic, so the SPE
    // knows its next chunk) prefetches as soon as the buffer's
    // previous writeback has drained (MFC tag-group wait -- the
    // double-buffer reuse discipline), overlapping the previous batch.
    // The *face* rows were written by the previous batch and can only
    // stream after the dispatch release.
    for (std::size_t i = w0; i < w1; ++i) {
      Chunk& c = chunks[i];
      SpeClock& spe = spes_[c.spe];
      const TransferPlan& tplan = c.spec->plan;
      cell::Mfc& mfc = machine_.spe(c.spe).mfc();
      const unsigned put_tag = static_cast<unsigned>(cfg_.buffers + c.buf);

      const sim::Tick dispatch_from =
          std::max(spe.request_at, release) + c.extra;
      if (sink_ && c.extra > 0)
        sink_->span(ppe_track_, "spe-failover", "fault",
                    dispatch_from - c.extra, dispatch_from);
      const sim::Tick grant =
          machine_.dispatch().acquire_work(dispatch_from, cfg_.sync);
      c.grant = grant;
      if (sink_ && grant > dispatch_from)
        sink_->span(ppe_track_, cell::sync_protocol_name(cfg_.sync),
                    "dispatch", dispatch_from, grant);
      if (observer_)
        observer_->on_grant(c.spe, cfg_.sync, dispatch_from, grant,
                            machine_.dispatch().grants());

      const sim::Tick dep = dependency_ready(c.spec->index);
      if (cfg_.buffers >= 2) {
        const sim::Tick bulk_from = mfc.wait_tag(spe.request_at, put_tag);
        if (observer_) observer_->on_tag_wait(c.spe, put_tag, bulk_from);
        const cell::DmaCompletion bulk =
            submit_dma(c, "dma-get-bulk", cell::DmaDir::kGet,
                       tplan.bulk_get_bytes(), bulk_from, true);
        // Distributed dispatch forwards the faces SPE to SPE.
        const cell::DmaCompletion face = submit_dma(
            c, "dma-get-face", cell::DmaDir::kGet, tplan.face_get_bytes(),
            std::max({grant, dep, bulk_from}), centralized);
        c.get_done = std::max(bulk.done, face.done);
        c.get_issue_done = std::max(bulk.issue_done, face.issue_done);
      } else {
        // Synchronous staging: the single buffer is only free after the
        // previous put (the tag wait resolves immediately: request_at
        // already trails the previous completion), and everything waits
        // for the go signal.
        const sim::Tick get_from =
            mfc.wait_tag(std::max(grant, dep), put_tag);
        if (observer_) observer_->on_tag_wait(c.spe, put_tag, get_from);
        const cell::DmaCompletion get =
            submit_dma(c, "dma-get", cell::DmaDir::kGet, tplan.get_bytes(),
                       get_from, true);
        c.get_done = get.done;
        c.get_issue_done = get.issue_done;
      }
      spe.request_at = std::max(spe.request_at, c.get_issue_done);
    }

    // Phase B: kernels. Per-SPE in-order execution; the upstream
    // dependency gates the start.
    for (std::size_t i = w0; i < w1; ++i) {
      Chunk& c = chunks[i];
      SpeClock& spe = spes_[c.spe];
      sim::Tick ready = std::max(
          {spe.compute_free, c.get_done, dependency_ready(c.spec->index)});
      if (cfg_.buffers < 2) ready = std::max(ready, spe.put_done);
      // Stall attribution: the grant is a sync constraint even though
      // it reaches the SPU through get_done (the get is submitted after
      // the grant), so dispatch serialization lands in the sync bucket,
      // not the DMA one. grant <= get_done always, so `ready` is
      // unchanged.
      sim::Tick dma_ready = c.get_done;
      if (cfg_.buffers < 2) dma_ready = std::max(dma_ready, spe.put_done);
      if (fault_plan_.enabled()) {
        // The SPU's tag-group wait right before the kernel is where a
        // lost tag completion manifests: the poll times out and retries,
        // delaying the kernel start (and hence the whole dependency
        // chain). Routed through the MFC so the event is counted and
        // priced there; the gate keeps the healthy path byte-identical.
        const sim::Tick waited = machine_.spe(c.spe).mfc().wait_tag(
            ready, static_cast<unsigned>(c.buf));
        ready = std::max(ready, waited);
        dma_ready = std::max(dma_ready, waited);
      }
      account_wait(c.spe, spe.compute_free, dma_ready,
                   std::max(dependency_ready(c.spec->index), c.grant));
      if (observer_)
        observer_->on_tag_wait(c.spe, static_cast<unsigned>(c.buf), ready);
      // A degraded SPE executes the same instruction stream in
      // compute_scale x the cycles (physics is untouched; only time
      // stretches). The gate keeps the healthy path bit-identical.
      double kernel_cycles = c.spec->kernel_cycles;
      if (fault_plan_.enabled())
        kernel_cycles *= fault_plan_.spe_compute_scale(c.spe);
      c.compute_end = machine_.spe(c.spe).compute(ready, kernel_cycles);
      if (sink_)
        sink_->span(spe_tracks_[c.spe], c.spec->kernel_name, "compute", ready,
                    c.compute_end);
      if (observer_)
        observer_->on_kernel(c.spe,
                             buffer_offsets_[static_cast<std::size_t>(c.buf)],
                             c.staged_bytes, ready, c.compute_end, c.token);
      spe.compute_free = c.compute_end;
      if (cfg_.buffers >= 2)
        spe.request_at = std::max(spe.request_at, ready);

      p_.flops += c.spec->flops;
      p_.compute_cycles += c.spec->kernel_cycles;
      spe.pipe += c.spec->stats;
      p_.work_units += c.spec->work_units;
      ++p_.chunks;
      machine_.spe(c.spe).count_work_item();
    }

    // Phase C: writebacks + completion reports, in compute-end order.
    for (std::size_t i = w0; i < w1; ++i) {
      Chunk& c = chunks[i];
      SpeClock& spe = spes_[c.spe];
      const unsigned put_tag = static_cast<unsigned>(cfg_.buffers + c.buf);
      const cell::DmaCompletion put =
          submit_dma(c, "dma-put", cell::DmaDir::kPut,
                     c.spec->plan.put_bytes(), c.compute_end, true);
      // The SPE signals completion only after its writeback DMA has
      // drained (tag-group wait), so the PPE sees the report after
      // put.done -- which serializes the next batch's grants behind
      // this batch's memory traffic under centralized dispatch.
      if (observer_) observer_->on_tag_wait(c.spe, put_tag, put.done);
      const sim::Tick report =
          machine_.dispatch().report_done(put.done, cfg_.sync);
      if (sink_ && report > put.done)
        sink_->span(spe_tracks_[c.spe], "report", "sync", put.done, report);
      if (observer_)
        observer_->on_report(c.spe, cfg_.sync, std::max(put.done, report),
                             c.token);
      const sim::Tick completion = std::max(put.done, report);
      c.completion = completion;
      p_.next_barrier = std::max(p_.next_barrier, completion);
      p_.reports_horizon = std::max(p_.reports_horizon, report);
      spe.put_done = put.done;
      spe.compute_free = std::max(spe.compute_free, put.issue_done);
      if (cfg_.buffers < 2)
        spe.request_at = std::max(spe.request_at, completion);
    }
  }

  // Publish this batch's chunk completions for the next batch's
  // dependency checks.
  prev_completion_.resize(chunks.size());
  prev_compute_end_.resize(chunks.size());
  for (const Chunk& c : chunks) {
    prev_completion_[c.spec->index] = c.completion;
    prev_compute_end_[c.spec->index] = c.compute_end;
  }
}

RunReport StreamingPipeline::finish() {
  confined_.check("StreamingPipeline::finish");
  applied_.reset();
  RunReport r;
  const sim::Tick end = p_.next_barrier;
  if (observer_) observer_->on_run_end(end);
  // CELLSWEEP_HAZARD_CHECK strict mode: the pipeline owns the checker,
  // so it owns the escalation too (externally attached observers leave
  // the severity policy to their caller, e.g. deck_runner --check).
  if (owned_diags_ && owned_diags_->has_errors())
    throw analysis::HazardError("machine-model hazard check failed:\n" +
                                owned_diags_->summary());
  r.seconds = sim::seconds_from_ticks(end);
  r.traffic_bytes = machine_.mic().bytes_moved();
  r.flops = p_.flops;
  r.cell_solves = p_.work_units;
  r.chunks = p_.chunks;
  r.dispatch_busy_grants =
      static_cast<double>(machine_.dispatch().grants());
  r.ls_high_water = ls_high_water_;

  double busy = 0;
  std::uint64_t cmds = 0, xfers = 0;
  r.mfc_queue_occupancy.assign(machine_.spec().mfc_queue_depth, 0);
  for (int s = 0; s < machine_.num_spes(); ++s) {
    busy += sim::seconds_from_ticks(machine_.spe(s).busy_ticks());
    cmds += machine_.spe(s).mfc().commands();
    xfers += machine_.spe(s).mfc().transfers();
    const auto& hist = machine_.spe(s).mfc().occupancy_histogram();
    for (std::size_t k = 0; k < r.mfc_queue_occupancy.size(); ++k)
      r.mfc_queue_occupancy[k] += hist[k];
  }
  r.compute_busy_s = busy / machine_.num_spes();
  r.dma_commands = cmds;
  r.dma_transfers = xfers;
  r.mic_busy_s = sim::seconds_from_ticks(machine_.mic().busy_ticks());
  if (end > 0) {
    r.mic_utilization = static_cast<double>(machine_.mic().busy_ticks()) /
                        static_cast<double>(end);
    r.eib_utilization = static_cast<double>(machine_.eib().busy_ticks()) /
                        static_cast<double>(end);
  }

  // Counter tree: per-SPE engine buckets (which exactly partition `end`
  // per SPE -- tick arithmetic below 2^53 is exact in doubles; what the
  // accounting didn't classify as compute, DMA wait or sync wait is
  // idle: no work assigned yet, or the tail after the last chunk), the
  // SPU-pipeline and MFC counters under each "spe<N>", a "spe_total"
  // hierarchical aggregate, and the chip-shared units.
  r.counters = sim::CounterSet("machine");
  r.counters.set("run_ticks", static_cast<double>(end));
  r.counters.set("chunks", static_cast<double>(p_.chunks));
  r.counters.set("cell_solves", static_cast<double>(p_.work_units));
  r.counters.set("flops", static_cast<double>(p_.flops));
  sim::CounterSet spe_total("spe_total");
  std::vector<sim::CounterSet> spe_sets;
  spe_sets.reserve(static_cast<std::size_t>(machine_.num_spes()));
  for (int s = 0; s < machine_.num_spes(); ++s) {
    sim::CounterSet cs("spe" + std::to_string(s));
    const sim::Tick spe_busy = machine_.spe(s).busy_ticks();
    const sim::Tick accounted =
        spe_busy + spes_[s].dma_wait + spes_[s].sync_wait;
    cs.set("busy_ticks", static_cast<double>(spe_busy));
    cs.set("dma_wait_ticks", static_cast<double>(spes_[s].dma_wait));
    cs.set("sync_wait_ticks", static_cast<double>(spes_[s].sync_wait));
    cs.set("idle_ticks",
           accounted < end ? static_cast<double>(end - accounted) : 0.0);
    cs.set("work_items", static_cast<double>(machine_.spe(s).work_items()));
    publish_pipeline(spes_[s].pipe, cs.child("pipeline"));
    machine_.spe(s).mfc().publish_counters(cs.child("mfc"));
    spe_total.merge(cs);
    spe_sets.push_back(std::move(cs));
  }
  r.counters.add_child(std::move(spe_total));
  for (sim::CounterSet& cs : spe_sets) r.counters.add_child(std::move(cs));
  machine_.mic().publish_counters(r.counters.child("mic"));
  machine_.eib().publish_counters(r.counters.child("eib"));
  machine_.dispatch().publish_counters(r.counters.child("dispatch"));

  // Fault subtree: only present when a plan was armed, so the
  // fault-free counter tree (and its JSON) is byte-identical to the
  // pre-fault-injection build.
  if (fault_plan_.enabled()) {
    std::uint64_t retried = 0, retry_attempts = 0, timeouts = 0;
    sim::Tick backoff = 0, timeout_ticks = 0;
    for (int s = 0; s < machine_.num_spes(); ++s) {
      const cell::Mfc& mfc = machine_.spe(s).mfc();
      retried += mfc.retried_commands();
      retry_attempts += mfc.retry_attempts();
      backoff += mfc.retry_backoff_ticks();
      timeouts += mfc.tag_timeouts();
      timeout_ticks += mfc.tag_timeout_ticks();
    }
    sim::CounterSet& f = r.counters.child("faults");
    f.set("spes_disabled", static_cast<double>(spes_disabled_));
    f.set("spes_failed", static_cast<double>(spes_failed_));
    f.set("redispatched_chunks", static_cast<double>(redispatched_chunks_));
    f.set("failover_ticks", static_cast<double>(failover_ticks_));
    f.set("dma_retried_commands", static_cast<double>(retried));
    f.set("dma_retry_attempts", static_cast<double>(retry_attempts));
    f.set("dma_retry_backoff_ticks", static_cast<double>(backoff));
    f.set("tag_timeouts", static_cast<double>(timeouts));
    f.set("tag_timeout_ticks", static_cast<double>(timeout_ticks));
    f.set("dropped_messages",
          static_cast<double>(machine_.dispatch().dropped_messages()));
    f.set("drop_wait_ticks",
          static_cast<double>(machine_.dispatch().drop_wait_ticks()));
    f.set("mic_throttled_requests",
          static_cast<double>(machine_.mic().throttled_requests()));
    f.set("mic_throttle_ticks",
          static_cast<double>(machine_.mic().throttle_ticks()));
  }

  // Allocator subtree + release: only present when a shared allocator
  // was attached, so single-tenant counter trees (and their JSON) stay
  // byte-identical to the allocator-free build. Captured before the
  // release so "spes_final" reports what the run ended with.
  if (cfg_.spe_allocator) {
    sim::CounterSet& a = r.counters.child("allocator");
    a.set("spes_final", static_cast<double>(claim_.count()));
    a.set("spes_min", static_cast<double>(min_claimed_));
    a.set("spes_max", static_cast<double>(max_claimed_));
    a.set("rebalance_shrinks", static_cast<double>(rebalance_shrinks_));
    a.set("rebalance_expands", static_cast<double>(rebalance_expands_));
    a.set("preempt_yields", static_cast<double>(preempt_yields_));
    cfg_.spe_allocator->release(claim_);
    claimed_.assign(claimed_.size(), 0);
  }

  const cell::CellSpec& spec = machine_.spec();
  r.memory_bound_s = r.traffic_bytes / spec.mic_bytes_per_s;
  r.compute_bound_s =
      p_.compute_cycles / (spec.clock_hz * spec.num_spes);
  if (r.seconds > 0) {
    r.achieved_flops_per_s = static_cast<double>(r.flops) / r.seconds;
    if (r.cell_solves > 0)
      r.grind_seconds = r.seconds / static_cast<double>(r.cell_solves);
  }
  return r;
}

}  // namespace cellsweep::core
