// PlanCache: the shape-keyed planning tables a solve server shares
// across all its jobs.
//
// A solve needs two pure planning artifacts: the Sn quadrature tables,
// a function of the Sn order alone, and the trace-scheduled chunk
// costs (KernelCostModel records the real SIMD instruction stream per
// chunk shape and schedules it on the SPU pipeline model), a function
// of the chip and the chunk shape alone. Neither depends on the rest
// of the deck, so the cache keeps one quadrature per Sn order and one
// cost model for the server's chip: decks that differ only in their
// materials, spacing or blocking plan nothing new. Shared and cold
// tables produce byte-identical reports (pinned by tests).
//
// Thread-safe: tenants plan concurrently. Each entry is built once,
// under its table's lock, and never changes afterwards, so the
// pointers plan() returns stay valid for the cache's life.
#pragma once

#include <cstdint>
#include <map>

#include "core/config.h"
#include "core/kernel_timing.h"
#include "sweep/deck.h"
#include "sweep/quadrature.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cellsweep::core {

class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };

  /// The plan hints of one deck (CellSweepConfig::quadrature and
  /// warm_kernels).
  struct Plan {
    const sweep::SnQuadrature* quadrature = nullptr;
    /// The cache's cost model; null on a PPE stage, which prices no
    /// chunk.
    const KernelCostModel* kernels = nullptr;
    /// The call built nothing: the deck's quadrature and all
    /// 2 x kBundleLines of its chunk shapes were already there.
    bool hit = false;
  };

  explicit PlanCache(const cell::CellSpec& chip) : kernels_(chip) {}

  /// The quadrature of @p deck's Sn order and, when @p cfg runs on the
  /// SPEs, the cost model priced for every chunk shape the deck can
  /// produce (1..kBundleLines lines, with and without fixups), each
  /// built if missing. Counts a hit or a miss.
  Plan plan(const sweep::Deck& deck, const CellSweepConfig& cfg)
      EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

 private:
  KernelCostModel kernels_;
  mutable util::Mutex mu_{util::lockrank::kPlanCache, "PlanCache::mu_"};
  std::map<int, sweep::SnQuadrature> quadratures_ GUARDED_BY(mu_);
  std::uint64_t hits_ GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ GUARDED_BY(mu_) = 0;
};

}  // namespace cellsweep::core
