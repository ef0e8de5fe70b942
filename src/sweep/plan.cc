#include "sweep/plan.h"

#include <algorithm>

#include "sweep/kernel_simd.h"

namespace cellsweep::sweep {

ChunkPlan::ChunkPlan(const SweepConfig& cfg, int jt, int diagonal) {
  lines_.reserve(static_cast<std::size_t>(cfg.mmi) * cfg.mk);
  for (int mh = 0; mh < cfg.mmi; ++mh)
    for (int kk = 0; kk < cfg.mk; ++kk) {
      const int jj = diagonal - kk - mh;
      if (jj >= 0 && jj < jt) lines_.push_back(LineCoord{mh, kk, jj});
    }

  const int n = nlines();
  chunks_.reserve(chunk_count(n));
  for (int first = 0; first < n; first += kBundleLines) {
    chunks_.push_back(ChunkDesc{static_cast<int>(chunks_.size()), first,
                                std::min(kBundleLines, n - first)});
  }
}

int ChunkPlan::lines_on_diagonal(const SweepConfig& cfg, int jt,
                                 int diagonal) noexcept {
  int n = 0;
  for (int mh = 0; mh < cfg.mmi; ++mh) {
    // kk runs over [0, mk) with 0 <= diagonal - kk - mh < jt.
    const int lo = std::max(0, diagonal - mh - (jt - 1));
    const int hi = std::min(cfg.mk - 1, diagonal - mh);
    n += std::max(0, hi - lo + 1);
  }
  return n;
}

int ChunkPlan::chunk_count(int nlines) noexcept {
  return (nlines + kBundleLines - 1) / kBundleLines;
}

int ChunkPlan::chunk_width(int nlines, int chunk) noexcept {
  return std::min(kBundleLines, nlines - chunk * kBundleLines);
}

}  // namespace cellsweep::sweep
