// Network topologies as explicit link graphs, and the one place routing
// is decided.
//
// Every topology — 2D/3D mesh, 2D/3D torus, concentrated mesh, and
// file-loaded irregular graphs — is a directed graph of per-port links over
// router nodes. Topology::route_preference and Topology::distance answer
// "which port and how far" for every family, inline: from the topology's
// flat RouteTables when it has them, else from the analytic
// dimension-order rule over cached coordinates. Grids of up to
// kRouteTableMaxNodes nodes fill their tables from that rule; larger grids
// compute it per call; irregular graphs always carry Dijkstra-built
// tables (topology/route_tables.hpp). The fabric layer holds no routing
// state of its own, so one router implementation drives every family.
//
// Coordinate convention: x grows East, y grows South (row 0 is the north
// edge), z grows Down. Node id = x + width * (y + height * z). Concentrated
// meshes attach `concentration` cores to every router: core id =
// router * concentration + k.
#pragma once

#include <array>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/types.hpp"

namespace nocsim {

struct Coord {
  int x = 0;
  int y = 0;
  int z = 0;
  friend bool operator==(const Coord&, const Coord&) = default;
};

/// Up to two productive directions (dimension order: x, then y, then z)
/// plus how many are valid. The first valid entry is *the* preferred port;
/// the second is the port that becomes preferred after the first dimension's
/// offset is consumed (useful for deflection-tolerant port ranking). A node
/// can have three productive dimensions in 3D; the table keeps the first two
/// in dimension order.
struct RoutePreference {
  std::array<Dir, 2> dirs{Dir::Local, Dir::Local};
  int count = 0;  ///< 0 means "already at destination"
};

/// Flat per-(src, dst) routing tables: the hot-path form of
/// route_preference and distance, one packed byte and one uint16 hop count
/// per ordered node pair.
struct RouteTables {
  int nodes = 0;
  /// [src * nodes + dst]: (count & 3) | dir0 << 2 | dir1 << 5.
  std::vector<std::uint8_t> packed;
  /// [src * nodes + dst]: hop length of the preferred (dirs[0]) path.
  std::vector<std::uint16_t> hops;
  /// [src * nodes + dst]: latency-weighted shortest distance.
  std::vector<std::uint32_t> cost;

  [[nodiscard]] static std::uint8_t pack(const RoutePreference& p) {
    return static_cast<std::uint8_t>((p.count & 3) |
                                     (static_cast<int>(p.dirs[0]) << 2) |
                                     (static_cast<int>(p.dirs[1]) << 5));
  }

  [[nodiscard]] RoutePreference pref(NodeId src, NodeId dst) const {
    const std::uint8_t p = packed[index(src, dst)];
    RoutePreference r;
    r.count = p & 3;
    r.dirs[0] = static_cast<Dir>((p >> 2) & 7);
    r.dirs[1] = static_cast<Dir>((p >> 5) & 7);
    return r;
  }

  [[nodiscard]] int hop_distance(NodeId src, NodeId dst) const { return hops[index(src, dst)]; }

  [[nodiscard]] std::size_t index(NodeId src, NodeId dst) const {
    return static_cast<std::size_t>(src) * static_cast<std::size_t>(nodes) +
           static_cast<std::size_t>(dst);
  }
};

class Topology {
 public:
  enum class Kind : std::uint8_t { Mesh, Torus, Mesh3D, Torus3D, CMesh, Irregular };

  /// One directed link out of a node, indexed by output port (0..kNumDirs).
  /// `in_slot` is the input latch slot the link lands in at `to` — on grids
  /// it equals opposite(port) so the 2D latch layout is unchanged; irregular
  /// graphs pack slots densely. `dim`/`wrap` drive the torus dateline VC
  /// transform; `latency`/`width` are the link's physical parameters (used
  /// as Dijkstra weights; the fabric's uniform hop timing is unchanged —
  /// see ROADMAP item 3 for the full Link abstraction).
  struct Link {
    NodeId to = kInvalidNode;
    std::uint8_t in_slot = 0;
    std::uint8_t dim = 0;
    bool wrap = false;
    std::uint16_t latency = 1;
    std::uint16_t width = 1;
  };

  /// Reverse edge for input slot `s` of a node: which node and output port
  /// feeds it (credit returns walk this, replacing the grid-only
  /// opposite(dir) convention).
  struct InLink {
    NodeId from = kInvalidNode;
    std::uint8_t from_port = 0;
  };

  /// Largest grid whose routes are tabulated (16x16: 64 Ki pairs, 448 KiB).
  /// Below it a table lookup beats the analytic rule in the fabric's hot
  /// path; above it the tables grow as N^2 and the rule is computed per call.
  static constexpr int kRouteTableMaxNodes = 256;

  virtual ~Topology() = default;

  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] int width() const { return width_; }
  [[nodiscard]] int height() const { return height_; }
  [[nodiscard]] int depth() const { return depth_; }
  [[nodiscard]] int num_nodes() const { return width_ * height_ * depth_; }

  /// Cores per router (1 everywhere except the concentrated mesh).
  [[nodiscard]] int concentration() const { return concentration_; }
  [[nodiscard]] int num_cores() const { return num_nodes() * concentration_; }
  [[nodiscard]] NodeId router_of(NodeId core) const { return core / concentration_; }

  [[nodiscard]] Coord coord_of(NodeId n) const {
    NOCSIM_DCHECK(n >= 0 && n < num_nodes());
    return {n % width_, (n / width_) % height_, n / (width_ * height_)};
  }

  [[nodiscard]] NodeId node_at(Coord c) const {
    NOCSIM_DCHECK(c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_ && c.z >= 0 &&
                  c.z < depth_);
    return c.x + width_ * (c.y + height_ * c.z);
  }

  /// Neighbour of `n` through output port `d`, or kInvalidNode if the port
  /// is unused (mesh edge, absent irregular link).
  [[nodiscard]] NodeId neighbor(NodeId n, Dir d) const {
    return links_[static_cast<std::size_t>(n)][static_cast<std::size_t>(d)].to;
  }

  [[nodiscard]] const Link& link(NodeId n, int port) const {
    return links_[static_cast<std::size_t>(n)][static_cast<std::size_t>(port)];
  }
  [[nodiscard]] const InLink& in_link(NodeId n, int slot) const {
    return in_links_[static_cast<std::size_t>(n)][static_cast<std::size_t>(slot)];
  }

  /// Hop length of the routing path from a to b: the minimal hop distance
  /// on grids; on irregular graphs the length of the latency-shortest path
  /// the tables route along (it can exceed the unweighted hop minimum).
  [[nodiscard]] int distance(NodeId a, NodeId b) const {
    if (tables_.nodes != 0) return tables_.hop_distance(a, b);
    int sum = 0;
    for (int dim = 0; dim < 3; ++dim) sum += std::abs(grid_offset(dim, a, b));
    return sum;
  }

  /// Productive ports from `from` toward `to`. Hot: once per flit per hop.
  [[nodiscard]] RoutePreference route_preference(NodeId from, NodeId to) const {
    if (tables_.nodes != 0) return tables_.pref(from, to);
    return grid_route(from, to);
  }

  /// The topology's routing tables, or nullptr for a grid above
  /// kRouteTableMaxNodes (which routes analytically).
  [[nodiscard]] const RouteTables* route_tables() const {
    return tables_.nodes != 0 ? &tables_ : nullptr;
  }

  /// Number of usable output ports at `n`.
  [[nodiscard]] int degree(NodeId n) const { return out_degree_[static_cast<std::size_t>(n)]; }
  [[nodiscard]] int in_degree(NodeId n) const { return in_degree_[static_cast<std::size_t>(n)]; }

  /// One past the highest input slot in use at any node: the input-latch
  /// lane stride the fabric sizes its banks with (4 on 2D grids, 6 in 3D).
  [[nodiscard]] int in_slot_bound() const { return in_slot_bound_; }
  /// Any dateline-crossing link present (torus families): the buffered
  /// fabric splits its VCs into dateline classes iff this holds.
  [[nodiscard]] bool has_wrap() const { return has_wrap_; }

 protected:
  Topology(Kind kind, int width, int height, int depth, int concentration)
      : kind_(kind), width_(width), height_(height), depth_(depth),
        concentration_(concentration) {
    NOCSIM_CHECK(width > 0 && height > 0 && depth > 0 && concentration > 0);
  }

  /// Install the per-port link table and derive in-links, degrees, and the
  /// slot bound. Called exactly once from each subclass constructor.
  void finalize_links(std::vector<std::array<Link, kNumDirs>> links);

  /// Grid families: cache per-node coordinates for the analytic rule and,
  /// up to kRouteTableMaxNodes nodes, tabulate that rule.
  void init_grid_routes(bool wrap);
  /// Irregular graphs: install Dijkstra-built tables.
  void set_route_tables(RouteTables tables) { tables_ = std::move(tables); }

  /// Output port that moves along dimension 0/1/2 in the increasing /
  /// decreasing direction.
  static constexpr std::array<Dir, 3> kPosDir{Dir::East, Dir::South, Dir::Down};
  static constexpr std::array<Dir, 3> kNegDir{Dir::West, Dir::North, Dir::Up};

  Kind kind_;
  int width_;
  int height_;
  int depth_;
  int concentration_;

 private:
  std::vector<std::array<Link, kNumDirs>> links_;
  std::vector<std::array<InLink, kNumDirs>> in_links_;
  std::vector<std::uint8_t> out_degree_;
  std::vector<std::uint8_t> in_degree_;
  int in_slot_bound_ = 0;
  bool has_wrap_ = false;

  /// Signed shortest offset from `a` to `b` on a ring of `n` positions, in
  /// (-n/2, n/2]: positive means the increasing direction, and the
  /// half-way tie on an even ring stays positive.
  [[nodiscard]] static constexpr int ring_offset(int a, int b, int n) {
    int fwd = b - a;
    if (fwd < 0) fwd += n;
    if (fwd * 2 > n) fwd -= n;
    return fwd;
  }

  /// Signed offset from `a` to `b` along dimension `dim` (0 = x, 1 = y,
  /// 2 = z): the shorter way around a torus ring, the plain difference on a
  /// mesh.
  [[nodiscard]] int grid_offset(int dim, NodeId a, NodeId b) const {
    const auto d = static_cast<std::size_t>(dim);
    const int ca = coords_[static_cast<std::size_t>(a)][d];
    const int cb = coords_[static_cast<std::size_t>(b)][d];
    return wrap_ ? ring_offset(ca, cb, extent_[d]) : cb - ca;
  }

  /// The analytic dimension-order rule: productive ports in order x, y, z,
  /// keeping the first two.
  [[nodiscard]] RoutePreference grid_route(NodeId from, NodeId to) const {
    RoutePreference pref;
    for (std::size_t dim = 0; dim < 3 && pref.count < 2; ++dim) {
      const int off = grid_offset(static_cast<int>(dim), from, to);
      if (off == 0) continue;
      pref.dirs[static_cast<std::size_t>(pref.count++)] = off > 0 ? kPosDir[dim] : kNegDir[dim];
    }
    return pref;
  }

  RouteTables tables_;  ///< nodes == 0: none (grid above kRouteTableMaxNodes)
  std::vector<std::array<std::int16_t, 3>> coords_;  ///< grids: (x, y, z) per node
  std::array<int, 3> extent_{};                      ///< grids: (width, height, depth)
  bool wrap_ = false;                                ///< grids: rings in every dimension
};

/// Shared link construction for every grid family: k-ary n-cube with
/// optional per-dimension wraparound, routed by the analytic
/// dimension-order rule (torus rings take the shorter way; ties go to the
/// positive direction).
class GridTopology : public Topology {
 protected:
  GridTopology(Kind kind, int width, int height, int depth, int concentration, bool wrap);
};

/// 2D mesh: no wraparound; edge routers have degree 2 or 3.
class Mesh final : public GridTopology {
 public:
  Mesh(int width, int height) : GridTopology(Kind::Mesh, width, height, 1, 1, false) {}
  [[nodiscard]] std::string name() const override { return "mesh"; }
};

/// 2D torus: wraparound links; XY routing takes the shorter way around each
/// dimension (ties go to the positive direction).
class Torus final : public GridTopology {
 public:
  Torus(int width, int height) : GridTopology(Kind::Torus, width, height, 1, 1, true) {}
  [[nodiscard]] std::string name() const override { return "torus"; }
};

/// 3D mesh: dimension-ordered XYZ routing.
class Mesh3D final : public GridTopology {
 public:
  Mesh3D(int width, int height, int depth)
      : GridTopology(Kind::Mesh3D, width, height, depth, 1, false) {}
  [[nodiscard]] std::string name() const override { return "mesh3d"; }
};

/// 3D torus: per-dimension rings with dateline escape classes.
class Torus3D final : public GridTopology {
 public:
  Torus3D(int width, int height, int depth)
      : GridTopology(Kind::Torus3D, width, height, depth, 1, true) {}
  [[nodiscard]] std::string name() const override { return "torus3d"; }
};

/// Concentrated mesh: a 2D mesh of routers with `kConcentration` cores
/// fanned into each router's network interface. The fabric graph is the
/// plain router mesh; concentration only changes how many cores the
/// simulator attaches per router.
class CMesh final : public GridTopology {
 public:
  static constexpr int kConcentration = 4;
  CMesh(int width, int height)
      : GridTopology(Kind::CMesh, width, height, 1, kConcentration, false) {}
  [[nodiscard]] std::string name() const override { return "cmesh"; }
};

/// Irregular topology loaded from a text graph file:
///
///   # comment
///   nodes N
///   link SRC DST [latency L] [width W]
///
/// Each `link` line is one directed link (list both directions for a
/// bidirectional channel). Ports are assigned in ascending destination
/// order, input slots in ascending source order, so the graph — and every
/// routing table built from it — is a pure function of the file content.
/// Malformed files, self/duplicate links, zero latency/width, more than
/// kNumDirs links per node, and graphs that are not strongly connected are
/// all rejected with a CHECK.
class IrregularTopology final : public Topology {
 public:
  explicit IrregularTopology(const std::string& path);

  [[nodiscard]] std::string name() const override { return "irregular"; }
};

/// Config-driven topology selection. `file` is required for "irregular"
/// (and its node count must equal width*height*depth so SimConfig-derived
/// sizing stays consistent).
struct TopologySpec {
  std::string name = "mesh";
  int width = 4;
  int height = 4;
  int depth = 1;
  std::string file;
};

std::unique_ptr<Topology> make_topology(const TopologySpec& spec);

/// Legacy 2D factory (kept for tests and callers that predate TopologySpec).
std::unique_ptr<Topology> make_topology(const std::string& name, int width, int height);

/// Node count declared by an irregular topology file (the `nodes N` header),
/// so benches can size SimConfig before constructing the topology.
int peek_topology_nodes(const std::string& path);

}  // namespace nocsim
