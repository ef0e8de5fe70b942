#include "sweep/plan.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sweep/kernel_simd.h"

namespace cellsweep::sweep {
namespace {

std::logic_error drift_error(const SweepConfig& cfg, int jt,
                             const DiagonalWork& w, int geometry_lines) {
  return std::logic_error(
      "ChunkPlan: DiagonalWork reports " + std::to_string(w.nlines) +
      " lines but the block geometry yields " +
      std::to_string(geometry_lines) + " (diagonal " +
      std::to_string(w.diagonal) + ", mmi=" + std::to_string(cfg.mmi) +
      ", mk=" + std::to_string(cfg.mk) + ", jt=" + std::to_string(jt) + ")");
}

}  // namespace

ChunkPlan::ChunkPlan(const SweepConfig& cfg, int jt, int it, int diagonal,
                     bool fixup)
    : diagonal_(diagonal), it_(it), fixup_(fixup), kernel_(cfg.kernel) {
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

ChunkPlan::ChunkPlan(const SweepConfig& cfg, int jt, const DiagonalWork& w)
    : ChunkPlan(cfg, jt, w.it, w.diagonal, w.fixup) {
  kernel_ = w.kernel;
  if (nlines() != w.nlines) throw drift_error(cfg, jt, w, nlines());
}

void ChunkPlan::check_lines(const SweepConfig& cfg, int jt,
                            const DiagonalWork& w) {
  const int n = lines_on_diagonal(cfg, jt, w.diagonal);
  if (n != w.nlines) throw drift_error(cfg, jt, w, n);
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
