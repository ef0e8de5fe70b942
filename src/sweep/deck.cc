#include "sweep/deck.h"

#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <vector>

namespace cellsweep::sweep {
namespace {

struct RegionSpec {
  std::uint8_t material;
  int i0, i1, j0, j1, k0, k1;
};

[[noreturn]] void fail(int line, const std::string& what) {
  std::ostringstream os;
  os << "deck line " << line << ": " << what;
  throw DeckError(os.str());
}

int face_index(int line, const std::string& name) {
  if (name == "west") return kFaceWest;
  if (name == "east") return kFaceEast;
  if (name == "north") return kFaceNorth;
  if (name == "south") return kFaceSouth;
  if (name == "bottom") return kFaceBottom;
  if (name == "top") return kFaceTop;
  fail(line, "unknown face '" + name + "'");
}

}  // namespace

Deck parse_deck(std::istream& in) {
  Grid grid;
  SweepConfig cfg;
  cfg.mk = 0;  // resolved after kt is known
  int sn_order = 6;
  int nm_cap = kBenchmarkMoments;
  std::vector<Material> materials;
  std::vector<RegionSpec> regions;
  std::map<int, FaceBc> bcs;

  std::string text_line;
  int line_no = 0;
  while (std::getline(in, text_line)) {
    ++line_no;
    const auto hash = text_line.find('#');
    if (hash != std::string::npos) text_line.erase(hash);
    std::istringstream line(text_line);
    std::string key;
    // Several key-value pairs may share one line ("it 50  jt 50").
    while (line >> key) {
    auto want = [&](auto& v, const char* what) {
      if (!(line >> v)) fail(line_no, std::string("expected ") + what +
                                          " after '" + key + "'");
    };

    if (key == "it") want(grid.it, "an integer");
    else if (key == "jt") want(grid.jt, "an integer");
    else if (key == "kt") want(grid.kt, "an integer");
    else if (key == "dx") want(grid.dx, "a number");
    else if (key == "dy") want(grid.dy, "a number");
    else if (key == "dz") want(grid.dz, "a number");
    else if (key == "mk") want(cfg.mk, "an integer");
    else if (key == "mmi") want(cfg.mmi, "an integer");
    else if (key == "sn") want(sn_order, "an integer");
    else if (key == "moments") want(nm_cap, "an integer");
    else if (key == "iterations") want(cfg.max_iterations, "an integer");
    else if (key == "fixup_from") want(cfg.fixup_from_iteration, "an integer");
    else if (key == "epsilon") want(cfg.epsilon, "a number");
    else if (key == "accelerate") {
      int flag;
      want(flag, "0 or 1");
      cfg.accelerate = flag != 0;
    }
    else if (key == "material") {
      Material m;
      want(m.name, "a name");
      want(m.sigma_t, "sigma_t");
      m.sigma_s.clear();
      // Scattering moments up to the keyword "source".
      std::string tok;
      while (line >> tok) {
        if (tok == "source") break;
        try {
          m.sigma_s.push_back(std::stod(tok));
        } catch (const std::exception&) {
          fail(line_no, "bad scattering moment '" + tok + "'");
        }
      }
      if (tok != "source") fail(line_no, "material needs 'source <q>'");
      want(m.q_ext, "a source density");
      if (m.sigma_s.empty()) fail(line_no, "material needs sigma_s0");
      materials.push_back(std::move(m));
    } else if (key == "region") {
      RegionSpec r{};
      int mat;
      want(mat, "a material index");
      want(r.i0, "i0"); want(r.i1, "i1");
      want(r.j0, "j0"); want(r.j1, "j1");
      want(r.k0, "k0"); want(r.k1, "k1");
      if (mat < 0 || mat > 255) fail(line_no, "material index out of range");
      r.material = static_cast<std::uint8_t>(mat);
      regions.push_back(r);
    } else if (key == "bc") {
      std::string face, kind;
      want(face, "a face name");
      want(kind, "vacuum|reflective");
      if (kind != "vacuum" && kind != "reflective")
        fail(line_no, "unknown boundary kind '" + kind + "'");
      bcs[face_index(line_no, face)] =
          kind == "reflective" ? FaceBc::kReflective : FaceBc::kVacuum;
    } else {
      fail(line_no, "unknown key '" + key + "'");
    }
    }  // tokens within the line
  }

  if (materials.empty())
    throw DeckError("deck: at least one 'material' line is required");
  try {
    grid.validate();
  } catch (const std::exception& e) {
    throw DeckError(std::string("deck: ") + e.what());
  }
  // Robustness caps: a corrupted deck must fail with DeckError, never
  // drive a multi-gigabyte allocation (or overflow cells()) first. The
  // per-axis cap keeps the int64 cell product exact; the total cap
  // bounds the material map and every downstream field allocation.
  if (grid.it > 4096 || grid.jt > 4096 || grid.kt > 4096 ||
      grid.cells() > (std::int64_t{1} << 26))
    throw DeckError("deck: grid too large (limit 4096 cells per axis, "
                    "2^26 cells total)");
  if (nm_cap < 1 || nm_cap > 100)
    throw DeckError("deck: moments must be in 1..100");

  // Cell assignment: material 0 everywhere, then region overwrites.
  std::vector<std::uint8_t> cells(grid.cells(), 0);
  for (const RegionSpec& r : regions) {
    if (r.material >= materials.size())
      throw DeckError("deck: region references unknown material");
    if (r.i0 < 0 || r.i1 > grid.it || r.j0 < 0 || r.j1 > grid.jt ||
        r.k0 < 0 || r.k1 > grid.kt || r.i0 >= r.i1 || r.j0 >= r.j1 ||
        r.k0 >= r.k1)
      throw DeckError("deck: region box out of range");
    for (int k = r.k0; k < r.k1; ++k)
      for (int j = r.j0; j < r.j1; ++j)
        for (int i = r.i0; i < r.i1; ++i)
          cells[grid.index(i, j, k)] = r.material;
  }

  // Default MK: the largest divisor of KT not exceeding 10 (the deck's
  // MK must factor KT, as in Sweep3D).
  if (cfg.mk == 0) cfg.mk = largest_mk(grid.kt, 10);

  // The tail constructors (Problem, SnQuadrature, the blocking
  // validation) throw std::invalid_argument on bad values; a malformed
  // deck must always surface as DeckError, so rewrap them here.
  try {
    Deck deck{Problem(grid, std::move(materials), std::move(cells)), cfg,
              sn_order, nm_cap};
    for (const auto& [face, bc] : bcs) deck.problem.set_boundary(face, bc);

    // Surface bad blocking now rather than at run time.
    const SnQuadrature quad(deck.sn_order);
    deck.sweep.validate(grid.kt, quad.angles_per_octant());
    return deck;
  } catch (const DeckError&) {
    throw;
  } catch (const std::exception& e) {
    throw DeckError(std::string("deck: ") + e.what());
  }
}

Deck parse_deck_string(const std::string& text) {
  std::istringstream in(text);
  return parse_deck(in);
}

Deck load_deck(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw DeckError("deck: cannot open '" + path + "'");
  Deck deck = parse_deck(in);
  deck.source = path;
  return deck;
}

int deck_moments(const Deck& deck, const SnQuadrature& quad) {
  const int carried = MomentTable(quad, kDeckLMax).nm();
  if (deck.nm_cap < 1 || deck.nm_cap > carried)
    throw std::invalid_argument("a run carries 1.." + std::to_string(carried) +
                                " flux moments (P2 scattering)");
  return deck.nm_cap;
}

}  // namespace cellsweep::sweep
