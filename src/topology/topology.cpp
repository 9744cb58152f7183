#include "topology/topology.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "topology/route_tables.hpp"

namespace nocsim {

void Topology::finalize_links(std::vector<std::array<Link, kNumDirs>> links) {
  NOCSIM_CHECK(links.size() == static_cast<std::size_t>(num_nodes()));
  NOCSIM_CHECK(links_.empty());
  links_ = std::move(links);
  const auto n = static_cast<std::size_t>(num_nodes());
  in_links_.assign(n, {});
  out_degree_.assign(n, 0);
  in_degree_.assign(n, 0);
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (int p = 0; p < kNumDirs; ++p) {
      const Link& l = links_[static_cast<std::size_t>(u)][static_cast<std::size_t>(p)];
      if (l.to == kInvalidNode) continue;
      NOCSIM_CHECK(l.to >= 0 && l.to < num_nodes() && l.to != u);
      NOCSIM_CHECK(l.latency >= 1 && l.width >= 1);
      ++out_degree_[static_cast<std::size_t>(u)];
      InLink& in = in_links_[static_cast<std::size_t>(l.to)][l.in_slot];
      NOCSIM_CHECK_MSG(in.from == kInvalidNode, "two links claim one input slot");
      in.from = u;
      in.from_port = static_cast<std::uint8_t>(p);
      ++in_degree_[static_cast<std::size_t>(l.to)];
      in_slot_bound_ = std::max(in_slot_bound_, l.in_slot + 1);
      has_wrap_ = has_wrap_ || l.wrap;
    }
  }
}

void Topology::init_grid_routes(bool wrap) {
  wrap_ = wrap;
  extent_ = {width_, height_, depth_};
  const auto n = static_cast<std::size_t>(num_nodes());
  coords_.resize(n);
  for (NodeId v = 0; v < num_nodes(); ++v) {
    const Coord c = coord_of(v);
    coords_[static_cast<std::size_t>(v)] = {static_cast<std::int16_t>(c.x),
                                            static_cast<std::int16_t>(c.y),
                                            static_cast<std::int16_t>(c.z)};
  }
  if (num_nodes() > kRouteTableMaxNodes) return;
  // Every grid link has latency 1, so the latency-weighted cost is the hop
  // count.
  RouteTables t;
  t.nodes = num_nodes();
  t.packed.resize(n * n);
  t.hops.resize(n * n);
  t.cost.resize(n * n);
  for (NodeId a = 0; a < num_nodes(); ++a) {
    for (NodeId b = 0; b < num_nodes(); ++b) {
      const std::size_t i = t.index(a, b);
      t.packed[i] = RouteTables::pack(grid_route(a, b));
      t.hops[i] = static_cast<std::uint16_t>(distance(a, b));
      t.cost[i] = t.hops[i];
    }
  }
  tables_ = std::move(t);
}

GridTopology::GridTopology(Kind kind, int width, int height, int depth, int concentration,
                           bool wrap)
    : Topology(kind, width, height, depth, concentration) {
  const std::array<int, 3> size{width, height, depth};
  std::vector<std::array<Link, kNumDirs>> links(static_cast<std::size_t>(num_nodes()));
  for (NodeId n = 0; n < num_nodes(); ++n) {
    const Coord c = coord_of(n);
    const std::array<int, 3> at{c.x, c.y, c.z};
    for (int dim = 0; dim < 3; ++dim) {
      if (size[static_cast<std::size_t>(dim)] < 2) continue;
      for (const int step : {+1, -1}) {
        const Dir d = step > 0 ? kPosDir[static_cast<std::size_t>(dim)]
                               : kNegDir[static_cast<std::size_t>(dim)];
        int v = at[static_cast<std::size_t>(dim)] + step;
        bool wraps = false;
        if (v < 0 || v >= size[static_cast<std::size_t>(dim)]) {
          if (!wrap) continue;  // mesh edge
          v = (v + size[static_cast<std::size_t>(dim)]) % size[static_cast<std::size_t>(dim)];
          wraps = true;
        }
        Coord t = c;
        if (dim == 0) t.x = v;
        if (dim == 1) t.y = v;
        if (dim == 2) t.z = v;
        Link& l = links[static_cast<std::size_t>(n)][static_cast<std::size_t>(d)];
        l.to = node_at(t);
        l.in_slot = static_cast<std::uint8_t>(opposite(d));
        l.dim = static_cast<std::uint8_t>(dim);
        l.wrap = wraps;
      }
    }
  }
  finalize_links(std::move(links));
  init_grid_routes(wrap);
}

namespace {

struct ParsedLink {
  NodeId from = 0;
  NodeId to = 0;
  int latency = 1;
  int width = 1;
};

struct ParsedGraph {
  int nodes = 0;
  std::vector<ParsedLink> links;
};

ParsedGraph parse_topology_file(const std::string& path) {
  std::ifstream in(path);
  NOCSIM_CHECK_MSG(in.good(), "cannot open topology file");
  ParsedGraph g;
  bool have_nodes = false;
  std::string line;
  while (std::getline(in, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;  // blank / comment-only line
    if (word == "nodes") {
      NOCSIM_CHECK_MSG(!have_nodes, "malformed topology file: repeated 'nodes' directive");
      NOCSIM_CHECK_MSG(static_cast<bool>(ls >> g.nodes),
                       "malformed topology file: expected 'nodes N'");
      NOCSIM_CHECK_MSG(g.nodes >= 2, "topology file must declare at least 2 nodes");
      have_nodes = true;
      continue;
    }
    NOCSIM_CHECK_MSG(have_nodes, "topology file must start with a 'nodes N' header");
    NOCSIM_CHECK_MSG(word == "link", "malformed topology file: unknown directive");
    ParsedLink l;
    NOCSIM_CHECK_MSG(static_cast<bool>(ls >> l.from >> l.to),
                     "malformed topology file: expected 'link FROM TO'");
    std::string key;
    while (ls >> key) {
      int value = 0;
      NOCSIM_CHECK_MSG(static_cast<bool>(ls >> value),
                       "malformed topology file: link attribute missing its value");
      if (key == "latency") {
        l.latency = value;
      } else if (key == "width") {
        l.width = value;
      } else {
        NOCSIM_CHECK_MSG(false, "malformed topology file: unknown link attribute");
      }
    }
    NOCSIM_CHECK_MSG(l.from >= 0 && l.from < g.nodes && l.to >= 0 && l.to < g.nodes,
                     "topology file: link endpoint out of range");
    NOCSIM_CHECK_MSG(l.from != l.to, "topology file: self-link");
    NOCSIM_CHECK_MSG(l.latency >= 1, "topology file: link latency must be >= 1");
    NOCSIM_CHECK_MSG(l.width >= 1, "topology file: link width must be >= 1");
    g.links.push_back(l);
  }
  NOCSIM_CHECK_MSG(have_nodes, "topology file must start with a 'nodes N' header");
  return g;
}

}  // namespace

IrregularTopology::IrregularTopology(const std::string& path)
    : Topology(Kind::Irregular, 1, 1, 1, 1) {
  ParsedGraph g = parse_topology_file(path);
  width_ = g.nodes;  // node id space is (N, 1, 1)

  // Duplicate directed links are configuration errors, not parallel
  // channels; detect on the sorted edge list.
  std::sort(g.links.begin(), g.links.end(), [](const ParsedLink& a, const ParsedLink& b) {
    return a.from != b.from ? a.from < b.from : a.to < b.to;
  });
  for (std::size_t i = 1; i < g.links.size(); ++i) {
    NOCSIM_CHECK_MSG(g.links[i - 1].from != g.links[i].from || g.links[i - 1].to != g.links[i].to,
                     "topology file: duplicate link");
  }

  // Output ports in ascending destination order (the sort above already
  // groups by source and orders by destination), input slots in ascending
  // source order: the graph is a pure function of the file content.
  std::vector<std::array<Link, kNumDirs>> links(static_cast<std::size_t>(g.nodes));
  std::vector<int> out_port(static_cast<std::size_t>(g.nodes), 0);
  std::vector<int> in_slot(static_cast<std::size_t>(g.nodes), 0);
  for (const ParsedLink& pl : g.links) {
    const int port = out_port[static_cast<std::size_t>(pl.from)]++;
    NOCSIM_CHECK_MSG(port < kNumDirs, "topology file: node out-degree exceeds 6 ports");
    Link& l = links[static_cast<std::size_t>(pl.from)][static_cast<std::size_t>(port)];
    l.to = pl.to;
    l.latency = static_cast<std::uint16_t>(pl.latency);
    l.width = static_cast<std::uint16_t>(pl.width);
  }
  // Second pass in (to, from) order assigns input slots ascending by source.
  std::sort(g.links.begin(), g.links.end(), [](const ParsedLink& a, const ParsedLink& b) {
    return a.to != b.to ? a.to < b.to : a.from < b.from;
  });
  for (const ParsedLink& pl : g.links) {
    const int slot = in_slot[static_cast<std::size_t>(pl.to)]++;
    NOCSIM_CHECK_MSG(slot < kNumDirs, "topology file: node in-degree exceeds 6 ports");
    for (int p = 0; p < kNumDirs; ++p) {
      Link& l = links[static_cast<std::size_t>(pl.from)][static_cast<std::size_t>(p)];
      if (l.to == pl.to) {
        l.in_slot = static_cast<std::uint8_t>(slot);
        break;
      }
    }
  }
  finalize_links(std::move(links));

  // Dijkstra tables double as the connectivity check: an unreachable pair
  // fails with "not strongly connected" inside the builder.
  set_route_tables(build_route_tables(*this));
}

std::unique_ptr<Topology> make_topology(const TopologySpec& spec) {
  const bool flat = spec.depth == 1;
  if (spec.name == "mesh" && flat) return std::make_unique<Mesh>(spec.width, spec.height);
  if (spec.name == "torus" && flat) return std::make_unique<Torus>(spec.width, spec.height);
  if (spec.name == "mesh3d") {
    return std::make_unique<Mesh3D>(spec.width, spec.height, spec.depth);
  }
  if (spec.name == "torus3d") {
    return std::make_unique<Torus3D>(spec.width, spec.height, spec.depth);
  }
  if (spec.name == "cmesh" && flat) return std::make_unique<CMesh>(spec.width, spec.height);
  if (spec.name == "irregular") {
    NOCSIM_CHECK_MSG(!spec.file.empty(), "irregular topology requires a topology_file");
    auto topo = std::make_unique<IrregularTopology>(spec.file);
    NOCSIM_CHECK_MSG(topo->num_nodes() == spec.width * spec.height * spec.depth,
                     "topology_file node count must equal width*height*depth");
    return topo;
  }
  NOCSIM_CHECK_MSG(flat, "2D topology name with depth > 1 (use 'mesh3d'/'torus3d')");
  NOCSIM_CHECK_MSG(false,
                   "unknown topology name (expected 'mesh', 'torus', 'mesh3d', 'torus3d', "
                   "'cmesh', or 'irregular')");
  return nullptr;
}

std::unique_ptr<Topology> make_topology(const std::string& name, int width, int height) {
  TopologySpec spec;
  spec.name = name;
  spec.width = width;
  spec.height = height;
  return make_topology(spec);
}

int peek_topology_nodes(const std::string& path) {
  std::ifstream in(path);
  NOCSIM_CHECK_MSG(in.good(), "cannot open topology file");
  std::string line;
  while (std::getline(in, line)) {
    if (const auto hash = line.find('#'); hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    std::string word;
    if (!(ls >> word)) continue;
    NOCSIM_CHECK_MSG(word == "nodes", "topology file must start with a 'nodes N' header");
    int n = 0;
    NOCSIM_CHECK_MSG(static_cast<bool>(ls >> n), "malformed topology file: expected 'nodes N'");
    return n;
  }
  NOCSIM_CHECK_MSG(false, "topology file must start with a 'nodes N' header");
  return 0;
}

}  // namespace nocsim
