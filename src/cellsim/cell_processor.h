// The assembled Cell BE machine model: one PPE, eight SPEs (each with
// a local store and an MFC), the EIB, the MIC and the dispatch fabric.
//
// The orchestrator in src/core drives this machine from a discrete-
// event loop: at each simulated instant it asks the machine "when would
// this DMA finish / when does this SPE hold its next work item", and
// the shared resources (MIC port, PPE dispatcher, EIB) answer with
// contention included, because every SPE's requests land on the same
// FIFO servers in simulated-time order.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cellsim/local_store.h"
#include "cellsim/mfc.h"
#include "cellsim/memory.h"
#include "cellsim/spec.h"
#include "cellsim/sync.h"
#include "sim/time.h"

namespace cellsweep::cell {

/// One Synergistic Processing Element: SPU timing state + MFC + LS.
class Spe {
 public:
  Spe(int index, const CellSpec& spec, Eib* eib, Mic* mic);

  int index() const noexcept { return index_; }
  LocalStore& local_store() noexcept { return ls_; }
  const LocalStore& local_store() const noexcept { return ls_; }
  Mfc& mfc() noexcept { return mfc_; }
  const Mfc& mfc() const noexcept { return mfc_; }

  /// Accounts @p cycles of SPU computation starting at @p now; returns
  /// the completion time. Also accumulates per-SPE busy statistics.
  sim::Tick compute(sim::Tick now, double cycles);

  sim::Tick busy_ticks() const noexcept { return s_.busy; }
  std::uint64_t work_items() const noexcept { return s_.work_items; }
  void count_work_item() noexcept { ++s_.work_items; }

  /// The SPU's mutable counters (see Mfc::State; the MFC and local
  /// store keep their own).
  struct State {
    sim::Tick busy = 0;
    std::uint64_t work_items = 0;
  };
  const State& state() const noexcept { return s_; }
  void restore(const State& s) noexcept { s_ = s; }

 private:
  int index_;
  CellSpec spec_;
  LocalStore ls_;
  Mfc mfc_;
  State s_;
};

/// Whole-chip model.
class CellProcessor {
 public:
  explicit CellProcessor(const CellSpec& spec = CellSpec{});

  const CellSpec& spec() const noexcept { return spec_; }
  int num_spes() const noexcept { return static_cast<int>(spes_.size()); }

  Spe& spe(int i) { return *spes_.at(i); }
  const Spe& spe(int i) const { return *spes_.at(i); }
  Eib& eib() noexcept { return eib_; }
  const Eib& eib() const noexcept { return eib_; }
  Mic& mic() noexcept { return mic_; }
  const Mic& mic() const noexcept { return mic_; }
  DispatchFabric& dispatch() noexcept { return dispatch_; }
  const DispatchFabric& dispatch() const noexcept { return dispatch_; }

 private:
  CellSpec spec_;
  Eib eib_;
  Mic mic_;
  DispatchFabric dispatch_;
  std::vector<std::unique_ptr<Spe>> spes_;
};

}  // namespace cellsweep::cell
