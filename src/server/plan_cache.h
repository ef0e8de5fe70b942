// PlanCache: deck-fingerprint-keyed memoization of the pure planning
// artifacts a solve recomputes per run.
//
// Submitting the same deck to the solve server twice used to pay the
// full setup twice: the Sn quadrature tables and -- much worse -- the
// trace-scheduled kernel calibration (KernelCostModel records the real
// SIMD instruction stream per chunk shape and schedules it on the SPU
// pipeline model). All of those are pure functions of (workload kind,
// optimization stage, deck bytes), so the server caches them under a
// fingerprint of exactly that triple. The workload kind is folded into
// the key so identical bytes submitted as a .deck and as a .stencil
// spec can never collide (pinned by a test); warm and cold runs
// produce byte-identical reports because the cached values are
// deterministic (also pinned).
//
// Thread-safe: tenants race through find/insert concurrently. Two
// tenants may build the same missing entry in parallel; insert keeps
// the first and hands the loser the canonical copy -- both are
// identical by construction, so the race is benign.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string_view>

#include "core/config.h"
#include "core/kernel_timing.h"
#include "sweep/quadrature.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cellsweep::core {

/// One cached plan (built by JobInput::plan). Sweep decks fill both
/// members; stencil specs leave them null (their block plans and costs
/// are cheap arithmetic the runner derives per run -- the entry only
/// pins the key space).
struct CachedPlan {
  /// Prebuilt LQn tables of the deck's sn order.
  std::shared_ptr<const sweep::SnQuadrature> quadrature;
  /// Cost model whose chunk-cost cache was warmed for every chunk
  /// shape the deck can produce (nlines 1..kBundleLines x fixup
  /// on/off).
  std::shared_ptr<const KernelCostModel> kernels;
};

class PlanCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::size_t entries = 0;
  };

  /// @p max_entries bounds the cache; 0 (the default) is unbounded.
  /// When full, insert evicts in FIFO (insertion) order -- evicting
  /// only drops the canonical pointer, so plans still in use by a
  /// running job stay alive through their own shared_ptrs.
  explicit PlanCache(std::size_t max_entries = 0)
      : max_entries_(max_entries) {}

  /// FNV-1a over (workload kind, stage, content bytes), with
  /// separators so no two distinct triples concatenate identically.
  static std::uint64_t fingerprint(std::string_view workload_kind,
                                   OptimizationStage stage,
                                   std::string_view content);

  /// The cached plan under @p key, or null (counts a hit / miss).
  std::shared_ptr<const CachedPlan> find(std::uint64_t key) EXCLUDES(mu_);

  /// Stores @p plan under @p key and returns the canonical entry: the
  /// already-present one when another tenant won the build race.
  std::shared_ptr<const CachedPlan> insert(
      std::uint64_t key, std::shared_ptr<const CachedPlan> plan)
      EXCLUDES(mu_);

  Stats stats() const EXCLUDES(mu_);

 private:
  /// Leaf lock over the entry map and counters; plan *contents* are
  /// immutable once published (shared_ptr<const>), so only the map
  /// itself needs the guard.
  const std::size_t max_entries_;
  mutable util::Mutex mu_{util::lockrank::kPlanCache, "PlanCache::mu_"};
  std::map<std::uint64_t, std::shared_ptr<const CachedPlan>> entries_
      GUARDED_BY(mu_);
  /// Keys in insertion order (FIFO eviction victims from the front).
  std::deque<std::uint64_t> order_ GUARDED_BY(mu_);
  std::uint64_t hits_ GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ GUARDED_BY(mu_) = 0;
};

}  // namespace cellsweep::core
