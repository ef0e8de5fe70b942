#include "server/plan_cache.h"

#include "sweep/kernel.h"

namespace cellsweep::core {

PlanCache::Plan PlanCache::plan(const sweep::Deck& deck,
                                const CellSweepConfig& cfg) {
  Plan p;
  bool built = false;
  {
    util::MutexLock lock(mu_);
    const auto [it, inserted] =
        quadratures_.try_emplace(deck.sn_order, deck.sn_order);
    p.quadrature = &it->second;
    built = inserted;
  }
  if (cfg.use_spes) {
    // Diagonals bundle into chunks of 1..kBundleLines lines, and the
    // fixup iterations price differently. Pricing a shape here is
    // exactly the work a run would otherwise do lazily.
    const int nm = sweep::deck_moments(deck, *p.quadrature);
    for (int fixup = 0; fixup < 2; ++fixup)
      for (int nlines = 1; nlines <= sweep::kBundleLines; ++nlines) {
        bool priced = false;
        kernels_.chunk_cost(cfg.kernel, cfg.precision, nlines,
                            deck.problem.grid().it, nm, fixup != 0,
                            cfg.gotos_eliminated, &priced);
        built = built || priced;
      }
    p.kernels = &kernels_;
  }
  p.hit = !built;
  util::MutexLock lock(mu_);
  ++(built ? misses_ : hits_);
  return p;
}

PlanCache::Stats PlanCache::stats() const {
  util::MutexLock lock(mu_);
  return Stats{hits_, misses_};
}

}  // namespace cellsweep::core
