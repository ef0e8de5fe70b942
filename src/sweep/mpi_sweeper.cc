#include "sweep/mpi_sweeper.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace cellsweep::sweep {
namespace {

/// Message tags: unique per (octant, angle-block, K-block, face kind).
int block_tag(const BlockCtx& ctx, int kind) {
  return ((ctx.octant * 64 + ctx.ablock) * 1024 + ctx.kblock) * 2 + kind;
}
constexpr int kTagI = 0;
constexpr int kTagJ = 1;
constexpr int kTagGather = 1 << 22;

/// BoundaryIO implementation that exchanges block faces with the
/// upstream/downstream wavefront neighbors (Figure 2's RECV/SEND). At a
/// domain face it returns false and SweepState applies the domain rule.
class MpiBoundary final : public BoundaryIO<double> {
 public:
  MpiBoundary(msg::Communicator& comm, const msg::CartGrid2D& cart)
      : comm_(comm), cart_(cart) {}

  bool fetch_i_inflow(const BlockCtx& ctx, double* phi_i) override {
    const int up = neighbor(ctx.octant, /*j=*/false, /*downstream=*/false);
    if (up < 0) return false;
    comm_.recv_into(up, block_tag(ctx, kTagI), {phi_i, i_count(ctx)});
    return true;
  }

  bool fetch_j_inflow(const BlockCtx& ctx, double* phi_j,
                      int row_stride) override {
    const int up = neighbor(ctx.octant, /*j=*/true, /*downstream=*/false);
    if (up < 0) return false;
    const int rows = ctx.mmi * ctx.mk;
    std::vector<double> buf = comm_.recv(up, block_tag(ctx, kTagJ));
    if (buf.size() != static_cast<std::size_t>(rows) * ctx.it)
      throw msg::MsgError("J-inflow size mismatch");
    for (int r = 0; r < rows; ++r)
      std::memcpy(phi_j + static_cast<std::size_t>(r) * row_stride,
                  buf.data() + static_cast<std::size_t>(r) * ctx.it,
                  sizeof(double) * ctx.it);
    return true;
  }

  bool emit_i_outflow(const BlockCtx& ctx, const double* phi_i) override {
    const int down = neighbor(ctx.octant, /*j=*/false, /*downstream=*/true);
    if (down < 0) return false;
    comm_.send(down, block_tag(ctx, kTagI), {phi_i, i_count(ctx)});
    return true;
  }

  bool emit_j_outflow(const BlockCtx& ctx, const double* phi_j,
                      int row_stride) override {
    const int down = neighbor(ctx.octant, /*j=*/true, /*downstream=*/true);
    if (down < 0) return false;
    const int rows = ctx.mmi * ctx.mk;
    std::vector<double> buf(static_cast<std::size_t>(rows) * ctx.it);
    for (int r = 0; r < rows; ++r)
      std::memcpy(buf.data() + static_cast<std::size_t>(r) * ctx.it,
                  phi_j + static_cast<std::size_t>(r) * row_stride,
                  sizeof(double) * ctx.it);
    comm_.send(down, block_tag(ctx, kTagJ), buf);
    return true;
  }

  double global_max(double local) override {
    return comm_.allreduce_max(local);
  }

 private:
  static std::size_t i_count(const BlockCtx& ctx) {
    return static_cast<std::size_t>(ctx.mmi) * ctx.mk * ctx.jt;
  }

  /// Rank across the I (or J) face that octant @p iq's sweep enters
  /// (or, when @p downstream, leaves); -1 at a domain face.
  int neighbor(int iq, bool j, bool downstream) const {
    const Octant o = all_octants()[iq];
    const bool positive = ((j ? o.sy : o.sx) > 0) == downstream;
    const msg::Direction d =
        j ? (positive ? msg::Direction::kSouth : msg::Direction::kNorth)
          : (positive ? msg::Direction::kEast : msg::Direction::kWest);
    return cart_.neighbor(comm_.rank(), d);
  }

  msg::Communicator& comm_;
  const msg::CartGrid2D& cart_;
};

}  // namespace

Problem extract_tile(const Problem& global, int i0, int ni, int j0, int nj) {
  const Grid& g = global.grid();
  if (i0 < 0 || j0 < 0 || i0 + ni > g.it || j0 + nj > g.jt)
    throw std::invalid_argument("extract_tile: tile out of range");
  Grid tile{ni, nj, g.kt, g.dx, g.dy, g.dz};
  std::vector<std::uint8_t> cells(tile.cells());
  for (int k = 0; k < tile.kt; ++k)
    for (int j = 0; j < nj; ++j)
      for (int i = 0; i < ni; ++i)
        cells[tile.index(i, j, k)] =
            global.material_index(i0 + i, j0 + j, k);
  return Problem(tile, global.materials(), std::move(cells));
}

MpiSolveResult solve_mpi(msg::World& world, const Problem& global,
                         const SnQuadrature& quad, int l_max,
                         const SweepConfig& cfg, int px, int py, int nm_cap) {
  const Grid& g = global.grid();
  if (global.any_reflective())
    throw std::logic_error(
        "solve_mpi: reflective boundaries are only supported by the serial "
        "sweeper");
  if (px * py != world.size())
    throw std::invalid_argument("solve_mpi: px*py must equal world size");
  if (g.it % px != 0 || g.jt % py != 0)
    throw std::invalid_argument("solve_mpi: px|it and py|jt required");
  const int ni = g.it / px;
  const int nj = g.jt / py;
  msg::CartGrid2D cart(px, py);

  MpiSolveResult result;  // written by rank 0

  world.run([&](msg::Communicator& comm) {
    const int r = comm.rank();
    Problem tile = extract_tile(global, cart.x_of(r) * ni, ni,
                                cart.y_of(r) * nj, nj);
    SweepState<double> state(tile, quad, l_max, nm_cap);
    MpiBoundary boundary(comm, cart);
    state.set_boundary(&boundary);
    SolveResult solve = solve_source_iteration(state, cfg);

    // Work totals summed over the ranks (integer sums below 2^53 are
    // exact in double, in any order).
    const auto sum = [&comm](std::uint64_t local) {
      return static_cast<std::uint64_t>(
          comm.allreduce_sum(static_cast<double>(local)));
    };
    SweepRunStats& totals = solve.totals;
    totals.lines = sum(totals.lines);
    totals.chunks = sum(totals.chunks);
    totals.cells = sum(totals.cells);
    totals.fixup_cells = sum(totals.fixup_cells);

    // Global reductions: absorption and the six leakage faces (each
    // domain face is tallied by the ranks that own part of it).
    const double absorption = comm.allreduce_sum(state.absorption_rate());
    const LeakageTally& local = state.leakage();
    LeakageTally leakage;
    leakage.west = comm.allreduce_sum(local.west);
    leakage.east = comm.allreduce_sum(local.east);
    leakage.north = comm.allreduce_sum(local.north);
    leakage.south = comm.allreduce_sum(local.south);
    leakage.bottom = comm.allreduce_sum(local.bottom);
    leakage.top = comm.allreduce_sum(local.top);

    // Gather the scalar flux on rank 0.
    std::vector<double> mine(static_cast<std::size_t>(g.kt) * nj * ni);
    for (int k = 0; k < g.kt; ++k)
      for (int j = 0; j < nj; ++j)
        for (int i = 0; i < ni; ++i)
          mine[(static_cast<std::size_t>(k) * nj + j) * ni + i] =
              state.flux().at(0, k, j, i);
    if (r != 0) {
      comm.send(0, kTagGather, mine);
      return;
    }
    std::vector<double> flux0(static_cast<std::size_t>(g.kt) * g.jt * g.it);
    auto place = [&](int rank, const std::vector<double>& tile_data) {
      const int tx = cart.x_of(rank);
      const int ty = cart.y_of(rank);
      for (int k = 0; k < g.kt; ++k)
        for (int j = 0; j < nj; ++j)
          for (int i = 0; i < ni; ++i)
            flux0[(static_cast<std::size_t>(k) * g.jt + ty * nj + j) * g.it +
                  tx * ni + i] =
                tile_data[(static_cast<std::size_t>(k) * nj + j) * ni + i];
    };
    place(0, mine);
    for (int src = 1; src < comm.size(); ++src)
      place(src, comm.recv(src, kTagGather));
    result = MpiSolveResult{solve, leakage, std::move(flux0), absorption};
  });

  return result;
}

}  // namespace cellsweep::sweep
