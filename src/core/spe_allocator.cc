#include "core/spe_allocator.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>

namespace cellsweep::core {

using util::MutexLock;

namespace {
/// Per-thread blocked-in-claim() seconds, and when the first blocked
/// claim() began to wait, bracketed by the server around each job (see
/// reset_thread_claim_wait()).
thread_local double t_claim_wait_s = 0.0;
thread_local std::chrono::steady_clock::time_point t_claim_wait_from{};
}  // namespace

void SpeAllocator::reset_thread_claim_wait() noexcept {
  t_claim_wait_s = 0.0;
  t_claim_wait_from = {};
}

double SpeAllocator::thread_claim_wait_s() noexcept { return t_claim_wait_s; }

std::chrono::steady_clock::time_point
SpeAllocator::thread_claim_wait_from() noexcept {
  return t_claim_wait_from;
}

SpeAllocator::SpeAllocator(int num_spes) : num_spes_(num_spes) {
  if (num_spes < 1)
    throw std::invalid_argument("SpeAllocator: num_spes must be >= 1");
  MutexLock lock(mu_);
  free_.assign(static_cast<std::size_t>(num_spes), 1);
}

int SpeAllocator::free_count_locked() const {
  int n = 0;
  for (const char f : free_) n += static_cast<int>(f != 0);
  return n;
}

int SpeAllocator::fair_share_locked(int weight) const {
  // Weighted proportional split. With every party at weight 1 the
  // total weight *is* the party count, so this is bit-for-bit the old
  // num_spes / parties equal split -- which is what keeps the pre-QoS
  // tests and baselines pinned.
  int total_weight = holder_weight_;
  for (const int w : waiter_weights_) total_weight += w;
  total_weight = std::max(1, total_weight);
  const int w = std::max(1, weight);
  return std::max(
      1, static_cast<int>(static_cast<std::int64_t>(num_spes_) * w /
                          total_weight));
}

std::vector<int> SpeAllocator::take_worst_fit(int want) {
  // Maximal contiguous free runs as (length, start), longest first
  // (ties: lowest start, for determinism). Worst-fit takes from the
  // head of the longest run: splitting the biggest block leaves the
  // largest possible remainder contiguous for the next claim.
  std::vector<std::pair<int, int>> runs;
  for (int s = 0; s < num_spes_;) {
    if (!free_[static_cast<std::size_t>(s)]) {
      ++s;
      continue;
    }
    int e = s;
    while (e < num_spes_ && free_[static_cast<std::size_t>(e)]) ++e;
    runs.emplace_back(e - s, s);
    s = e;
  }
  std::sort(runs.begin(), runs.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });

  std::vector<int> got;
  got.reserve(static_cast<std::size_t>(std::max(0, want)));
  for (const auto& [len, start] : runs) {
    if (static_cast<int>(got.size()) >= want) break;
    const int take = std::min(len, want - static_cast<int>(got.size()));
    for (int s = start; s < start + take; ++s) {
      free_[static_cast<std::size_t>(s)] = 0;
      got.push_back(s);
    }
  }
  std::sort(got.begin(), got.end());
  return got;
}

SpeAllocator::Claim SpeAllocator::claim(int min_spes, int max_spes, int weight,
                                        int quota) {
  const int w = std::max(1, weight);
  const int q = quota <= 0 ? num_spes_ : std::clamp(quota, 1, num_spes_);
  // The quota is a hard ceiling: it caps the maximum outright and pulls
  // the minimum down with it (a tenant quota'd to 2 SPEs must still be
  // admissible when it asks for min 4).
  const int lo = std::min(std::clamp(min_spes, 1, num_spes_), q);
  const int hi = std::min(std::clamp(std::max(max_spes, lo), 1, num_spes_), q);

  MutexLock lock(mu_);
  double waited_s = 0.0;
  if (free_count_locked() < lo) {
    ++waiters_;
    waiter_weights_.push_back(w);
    ++stats_.waited_claims;
    // Host time blocked, for the claim-wait histogram and the per-job
    // trace. Measured around the wait only; an immediate grant records
    // a zero sample without touching the clock.
    const auto blocked_from = std::chrono::steady_clock::now();
    if (t_claim_wait_from == std::chrono::steady_clock::time_point{})
      t_claim_wait_from = blocked_from;
    while (free_count_locked() < lo) cv_.wait(mu_);
    waited_s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - blocked_from)
                   .count();
    --waiters_;
    waiter_weights_.erase(
        std::find(waiter_weights_.begin(), waiter_weights_.end(), w));
  }
  stats_.claim_wait_s.add(waited_s);
  t_claim_wait_s += waited_s;

  // Grant size: everything asked for that is free -- but while others
  // are still queued behind us, no more than the weighted fair share
  // (never below the minimum this tenant needs to run at all).
  int want = std::min(hi, free_count_locked());
  if (waiters_ > 0) want = std::max(lo, std::min(want, fair_share_locked(w)));

  Claim c;
  c.weight = w;
  c.quota = quota <= 0 ? 0 : q;
  c.ids = take_worst_fit(want);
  ++holders_;
  holder_weight_ += w;
  ++stats_.claims;
  stats_.peak_tenants = std::max(stats_.peak_tenants, holders_ + waiters_);
  return c;
}

int SpeAllocator::expand(Claim& c, int target_total) {
  MutexLock lock(mu_);
  // Regrowth is opportunistic: anyone blocked in claim() has first
  // call on free SPEs, so expansion under pressure is denied outright.
  if (waiters_ > 0) return 0;
  const int cap = c.quota > 0 ? std::min(c.quota, num_spes_) : num_spes_;
  const int want = std::min(target_total, cap) - c.count();
  if (want <= 0) return 0;
  std::vector<int> got = take_worst_fit(std::min(want, free_count_locked()));
  if (got.empty()) return 0;
  c.ids.insert(c.ids.end(), got.begin(), got.end());
  std::sort(c.ids.begin(), c.ids.end());
  ++stats_.expands;
  return static_cast<int>(got.size());
}

bool SpeAllocator::shrink_locked(Claim& c, int target) {
  bool freed = false;
  while (c.count() > target) {
    free_[static_cast<std::size_t>(c.ids.back())] = 1;
    c.ids.pop_back();
    freed = true;
  }
  if (freed) ++stats_.shrinks;
  if (c.empty() && freed) {
    --holders_;
    holder_weight_ -= std::max(1, c.weight);
  }
  return freed;
}

void SpeAllocator::shrink(Claim& c, int target_total) {
  const int target = std::max(0, target_total);
  bool freed = false;
  {
    MutexLock lock(mu_);
    freed = shrink_locked(c, target);
  }
  if (freed) cv_.notify_all();
}

bool SpeAllocator::shrink_to_fair_share(Claim& c, int need, int min_spes) {
  bool freed = false;
  {
    MutexLock lock(mu_);
    // Pressure, fair share and the yield itself are decided under one
    // hold of mu_: the old pressure()-then-shrink() sequence could act
    // on a waiter that had already been served (a wasted yield) or
    // miss one that arrived in between.
    if (waiters_ == 0) return false;
    const int target =
        std::max(min_spes, std::min(need, fair_share_locked(c.weight)));
    if (c.count() <= target) return false;
    freed = shrink_locked(c, target);
  }
  if (freed) cv_.notify_all();
  return freed;
}

bool SpeAllocator::pressure() const {
  MutexLock lock(mu_);
  return waiters_ > 0;
}

bool SpeAllocator::priority_pressure(int weight) const {
  MutexLock lock(mu_);
  for (const int w : waiter_weights_)
    if (w > weight) return true;
  return false;
}

int SpeAllocator::fair_share() const { return fair_share(1); }

int SpeAllocator::fair_share(int weight) const {
  MutexLock lock(mu_);
  return fair_share_locked(weight);
}

int SpeAllocator::free_count() const {
  MutexLock lock(mu_);
  return free_count_locked();
}

SpeAllocator::Stats SpeAllocator::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

}  // namespace cellsweep::core
