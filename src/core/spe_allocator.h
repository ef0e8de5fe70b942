// SpeAllocator: NOVA-style worst-fit claim/yield of the simulated
// chip's SPEs, so several concurrent streaming runs can share one chip
// instead of each owning all eight.
//
// PR 5's headline finding motivates this: at paper cube sizes the sweep
// is dependency-chain-bound and leaves SPEs slack, so a second tenant
// on the same chip is nearly free. The policy follows NOVA's core
// allocator (cells claim cores from a worst-fit allocator and yield
// them under pressure):
//   * claim(min, max, weight, quota) blocks until at least min SPEs
//     are free, then takes up to max from the largest contiguous free
//     runs first (worst-fit: splitting the biggest run keeps the
//     leftover runs as large as possible for the next tenant);
//   * a holder only shrinks when another tenant is *waiting*
//     (shrink_to_fair_share() evaluates pressure and yields in one
//     critical section), down to its fair share -- so a solo tenant
//     keeps the whole chip and its timing stays byte-identical to the
//     no-allocator build (pinned by tests and the perf baselines);
//   * expand() is the opportunistic regrow after pressure passes; it
//     is denied while anyone waits.
//
// QoS (PR 10): the fair share is *weighted* -- a party of weight w gets
// floor(num_spes * w / total_weight) of the chip (at least 1), where
// total_weight sums over current holders and waiters. With every
// weight at its default of 1 this reduces to the original equal split
// num_spes / parties, integer math included, so all pre-QoS behavior
// (and every checked-in baseline) is unchanged. A per-claim quota caps
// how many SPEs the claim may ever hold (grant and expand alike);
// quota 0 means "no cap". priority_pressure() lets a holder ask "is a
// strictly higher-weight claim blocked right now?" -- the signal the
// streaming pipeline polls between waves for chunk-granularity
// preemption.
//
// Host-side synchronization only: claims move between *batches* of a
// StreamingPipeline run, never mid-wave, and no simulated tick depends
// on when (in host time) a claim was granted -- each tenant's simulated
// clocks advance only with its own workload. Thread-safe; every field
// is GUARDED_BY(mu_) and the contract is compile-checked under clang
// -Wthread-safety.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "util/histogram.h"
#include "util/lock_ranks.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace cellsweep::core {

class SpeAllocator {
 public:
  /// One tenant's current SPE set (physical SPE indices on the shared
  /// chip). Value-semantic bookkeeping only; all transitions go through
  /// the allocator.
  struct Claim {
    std::vector<int> ids;
    /// QoS weight this claim was granted under (>= 1). Carried on the
    /// claim so shrink_to_fair_share()/release() settle the weighted
    /// bookkeeping without the caller re-supplying it.
    int weight = 1;
    /// Hard cap on ids.size() (0 = uncapped). Grants and expands never
    /// exceed it.
    int quota = 0;
    int count() const noexcept { return static_cast<int>(ids.size()); }
    bool empty() const noexcept { return ids.empty(); }
  };

  /// Allocator snapshot (for reports and tests).
  struct Stats {
    std::uint64_t claims = 0;       ///< claim() grants
    std::uint64_t expands = 0;      ///< expand() calls that grew a claim
    std::uint64_t shrinks = 0;      ///< shrink() calls that released SPEs
    std::uint64_t waited_claims = 0;///< claims that had to block
    int peak_tenants = 0;           ///< most simultaneous holders
    /// Host seconds each claim() spent blocked (one sample per grant,
    /// 0 for immediate grants). Host-side telemetry only: no simulated
    /// tick ever reads it.
    util::Histogram claim_wait_s;
  };

  explicit SpeAllocator(int num_spes);

  /// Blocks until at least @p min_spes SPEs are free, then claims up to
  /// @p max_spes of them, worst-fit. While other claims are waiting the
  /// grant is additionally capped at the weighted fair share (never
  /// below min_spes), so one greedy tenant cannot starve the queue.
  /// @p weight (clamped to >= 1) is the claim's QoS weight; @p quota
  /// (0 = uncapped, otherwise clamped to [1, num_spes]) is a hard
  /// ceiling on the grant and on any later expand(). min/max are
  /// clamped to [1, num_spes] with max >= min, then both to the quota.
  Claim claim(int min_spes, int max_spes, int weight = 1, int quota = 0)
      EXCLUDES(mu_);

  /// Non-blocking growth of @p c toward @p target_total SPEs (capped at
  /// the claim's quota). Denied (returns 0) while any claim() is
  /// waiting; otherwise grants up to the free count, worst-fit. Returns
  /// the number of SPEs added.
  int expand(Claim& c, int target_total) EXCLUDES(mu_);

  /// Releases members of @p c (largest indices first) until it holds
  /// @p target_total; target_total <= 0 releases everything. Wakes
  /// waiting claims.
  void shrink(Claim& c, int target_total) EXCLUDES(mu_);

  /// The NOVA yield as one atomic decision: if any claim() is blocked,
  /// shrinks @p c to max(@p min_spes, min(@p need, its weighted fair
  /// share)) and returns true; returns false (touching nothing) when
  /// nobody waits or the claim is already at or below the target.
  /// Replaces the racy pressure()-then-fair_share()-then-shrink()
  /// sequence, whose predicate could go stale between the three lock
  /// acquisitions.
  bool shrink_to_fair_share(Claim& c, int need, int min_spes) EXCLUDES(mu_);

  /// shrink(c, 0): the tenant is done with the chip.
  void release(Claim& c) EXCLUDES(mu_) { shrink(c, 0); }

  /// True while at least one claim() is blocked: holders should shrink
  /// toward fair_share() at their next batch boundary (the NOVA yield).
  /// Snapshot only -- a decision must use shrink_to_fair_share().
  bool pressure() const EXCLUDES(mu_);

  /// True while a claim of weight strictly greater than @p weight is
  /// blocked: the holder should yield *now* (between chunks, not at the
  /// next batch), via shrink_to_fair_share(). Snapshot only.
  bool priority_pressure(int weight) const EXCLUDES(mu_);

  /// The weighted share of a party of @p weight: at least 1, otherwise
  /// num_spes * weight / total weight over everyone who wants a piece
  /// right now. fair_share() is the weight-1 view; with all parties at
  /// the default weight it is exactly the old num_spes / parties equal
  /// split.
  int fair_share() const EXCLUDES(mu_);
  int fair_share(int weight) const EXCLUDES(mu_);

  int num_spes() const noexcept { return num_spes_; }
  int free_count() const EXCLUDES(mu_);
  Stats stats() const EXCLUDES(mu_);

  /// Zeroes this thread's blocked-in-claim() accumulator. The solve
  /// server brackets each job with reset + read so a job's claim wait
  /// can be attributed to its JobTrace (claims happen on the worker
  /// thread that runs the job).
  static void reset_thread_claim_wait() noexcept;
  /// Host seconds this thread has spent blocked in claim() since the
  /// last reset_thread_claim_wait().
  static double thread_claim_wait_s() noexcept;
  /// When this thread's first blocked claim() since the last reset
  /// began to wait (meaningful only while thread_claim_wait_s() > 0).
  static std::chrono::steady_clock::time_point
  thread_claim_wait_from() noexcept;

 private:
  /// Takes up to @p want SPEs from the largest contiguous free runs.
  /// Never returns fewer than are free when want >= free.
  std::vector<int> take_worst_fit(int want) REQUIRES(mu_);
  /// Frees members of @p c (largest ids first) down to @p target;
  /// returns true when anything was released.
  bool shrink_locked(Claim& c, int target) REQUIRES(mu_);
  int free_count_locked() const REQUIRES(mu_);
  int fair_share_locked(int weight) const REQUIRES(mu_);

  const int num_spes_;
  mutable util::Mutex mu_{util::lockrank::kSpeAllocator, "SpeAllocator::mu_"};
  util::CondVar cv_;  ///< waits on mu_ for SPEs to come free
  /// free_[s] != 0: SPE s unclaimed.
  std::vector<char> free_ GUARDED_BY(mu_);
  int holders_ GUARDED_BY(mu_) = 0;  ///< claims currently live
  int waiters_ GUARDED_BY(mu_) = 0;  ///< claim() calls currently blocked
  int holder_weight_ GUARDED_BY(mu_) = 0;  ///< summed weights of holders
  /// Weights of the claims currently blocked, one entry per waiter
  /// (multiset semantics: erase removes one matching entry).
  std::vector<int> waiter_weights_ GUARDED_BY(mu_);
  Stats stats_ GUARDED_BY(mu_) = {};
};

}  // namespace cellsweep::core
