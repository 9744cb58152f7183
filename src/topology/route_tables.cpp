#include "topology/route_tables.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>
#include <set>
#include <utility>

namespace nocsim {
namespace {

constexpr std::uint32_t kInfCost = std::numeric_limits<std::uint32_t>::max();

bool is_positive_dir(Dir d) { return d == Dir::East || d == Dir::South || d == Dir::Down; }

/// Rank the minimal-port candidates of one (src, dst) pair into a
/// RoutePreference. `cand` holds output-port indices, ascending.
RoutePreference rank_candidates(const Topology& topo, NodeId u, const std::uint8_t* cand,
                                int n_cand) {
  RoutePreference pref;
  if (topo.kind() == Topology::Kind::Irregular) {
    // Lowest-index next-hop: ports were assigned in ascending neighbour
    // order by the parser, so this is also lowest-neighbour-id.
    for (int i = 0; i < n_cand && pref.count < 2; ++i) {
      pref.dirs[static_cast<std::size_t>(pref.count++)] = static_cast<Dir>(cand[i]);
    }
    return pref;
  }
  // Grid families: dimension order; a ring tie (both directions minimal)
  // resolves to the positive direction, matching ring_offset's "ties stay
  // positive".
  for (int dim = 0; dim < 3 && pref.count < 2; ++dim) {
    int chosen = -1;
    for (int i = 0; i < n_cand; ++i) {
      const Topology::Link& l = topo.link(u, cand[i]);
      if (l.dim != dim) continue;
      if (chosen < 0 || is_positive_dir(static_cast<Dir>(cand[i]))) chosen = cand[i];
    }
    if (chosen >= 0) pref.dirs[static_cast<std::size_t>(pref.count++)] = static_cast<Dir>(chosen);
  }
  return pref;
}

}  // namespace

RouteTables build_route_tables(const Topology& topo) {
  const int n = topo.num_nodes();
  const auto nn = static_cast<std::size_t>(n) * static_cast<std::size_t>(n);
  RouteTables t;
  t.nodes = n;
  t.packed.assign(nn, 0);
  t.hops.assign(nn, 0);
  t.cost.assign(nn, 0);

  // Reverse adjacency: rev[v] lists every link u --port--> v.
  struct RevEdge {
    NodeId u;
    std::uint16_t latency;
  };
  std::vector<std::vector<RevEdge>> rev(static_cast<std::size_t>(n));
  for (NodeId u = 0; u < n; ++u) {
    for (int p = 0; p < kNumDirs; ++p) {
      const Topology::Link& l = topo.link(u, p);
      if (l.to == kInvalidNode) continue;
      rev[static_cast<std::size_t>(l.to)].push_back(RevEdge{u, l.latency});
    }
  }

  std::vector<std::uint32_t> dist(static_cast<std::size_t>(n));
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);

  for (NodeId dst = 0; dst < n; ++dst) {
    // Reverse Dijkstra from dst: dist[u] = minimal latency-weighted cost of
    // any u -> dst path. Heap pop order does not affect the final array.
    std::fill(dist.begin(), dist.end(), kInfCost);
    dist[static_cast<std::size_t>(dst)] = 0;
    using HeapItem = std::pair<std::uint32_t, NodeId>;
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
    heap.emplace(0, dst);
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d != dist[static_cast<std::size_t>(v)]) continue;  // stale entry
      for (const RevEdge& e : rev[static_cast<std::size_t>(v)]) {
        const std::uint32_t nd = d + e.latency;
        if (nd < dist[static_cast<std::size_t>(e.u)]) {
          dist[static_cast<std::size_t>(e.u)] = nd;
          heap.emplace(nd, e.u);
        }
      }
    }

    for (NodeId u = 0; u < n; ++u) {
      const std::size_t idx = t.index(u, dst);
      NOCSIM_CHECK_MSG(dist[static_cast<std::size_t>(u)] != kInfCost,
                       "topology is not strongly connected: a node cannot reach a destination");
      t.cost[idx] = dist[static_cast<std::size_t>(u)];
      if (u == dst) continue;
      // Minimal ports: links that lie on some shortest path.
      std::array<std::uint8_t, kNumDirs> cand{};
      int n_cand = 0;
      for (int p = 0; p < kNumDirs; ++p) {
        const Topology::Link& l = topo.link(u, p);
        if (l.to == kInvalidNode) continue;
        if (dist[static_cast<std::size_t>(l.to)] + l.latency == dist[static_cast<std::size_t>(u)]) {
          cand[static_cast<std::size_t>(n_cand++)] = static_cast<std::uint8_t>(p);
        }
      }
      NOCSIM_CHECK(n_cand > 0);
      t.packed[idx] = RouteTables::pack(rank_candidates(topo, u, cand.data(), n_cand));
    }

    // Hop lengths along the preferred path: dirs[0] strictly decreases the
    // weighted distance (positive latencies), so filling in ascending
    // (dist, id) order sees every next hop already resolved.
    std::sort(order.begin(), order.end(), [&dist](NodeId a, NodeId b) {
      const std::uint32_t da = dist[static_cast<std::size_t>(a)];
      const std::uint32_t db = dist[static_cast<std::size_t>(b)];
      return da != db ? da < db : a < b;
    });
    for (const NodeId u : order) {
      if (u == dst) continue;
      const RoutePreference pref = t.pref(u, dst);
      const NodeId next = topo.link(u, static_cast<int>(pref.dirs[0])).to;
      NOCSIM_DCHECK(next != kInvalidNode);
      t.hops[t.index(u, dst)] = static_cast<std::uint16_t>(t.hops[t.index(next, dst)] + 1);
    }
  }
  return t;
}

namespace {

/// The buffered fabric's dateline VC transform, mirrored exactly (see
/// BufferedFabric::next_vc_state): state = dim << 1 | crossed-dateline.
/// Wrap-free fabrics run a single class (state pinned to 0).
std::uint8_t next_state(const Topology& topo, NodeId u, int port, std::uint8_t s,
                        bool vc_classes) {
  if (!vc_classes) return 0;
  const Topology::Link& l = topo.link(u, port);
  if ((s >> 1) != l.dim) s = static_cast<std::uint8_t>(l.dim << 1);
  if (l.wrap) s |= 1;
  return s;
}

}  // namespace

bool check_cdg_acyclic(const Topology& topo, const RouteTables& tables) {
  const int n = topo.num_nodes();
  const bool vc_classes = topo.has_wrap();
  // Channel = (directed link, VC class). Wrap-free graphs use class 0 only.
  const std::size_t n_chan = static_cast<std::size_t>(n) * kNumDirs * 2;
  std::vector<std::set<std::uint32_t>> edges(n_chan);
  const auto chan_of = [vc_classes](NodeId u, int port, std::uint8_t s) {
    return static_cast<std::uint32_t>((u * kNumDirs + port) * 2 + (vc_classes ? (s & 1) : 0));
  };

  // Per destination, propagate the set of vc_states reachable on each
  // routing-tree link (flits inject with state 0; arrivals carry their
  // upstream link's transformed states). Only then are dependency edges
  // added — the naive all-states superset manufactures cycles through torus
  // dateline channels that no flit can actually occupy.
  std::vector<std::uint8_t> arr_mask(static_cast<std::size_t>(n));  // states arriving, by node
  std::vector<NodeId> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (NodeId dst = 0; dst < n; ++dst) {
    std::fill(arr_mask.begin(), arr_mask.end(), 0);
    // Far-to-near: a node's predecessors on the routing tree are strictly
    // farther (higher cost), so descending (cost, id) order resolves every
    // arrival mask before its node is processed.
    std::sort(order.begin(), order.end(), [&tables, dst](NodeId a, NodeId b) {
      const std::uint32_t ca = tables.cost[tables.index(a, dst)];
      const std::uint32_t cb = tables.cost[tables.index(b, dst)];
      return ca != cb ? ca > cb : a > b;
    });
    // Remember, per node, which upstream link delivered each arriving state
    // so dependency edges connect real channel pairs.
    struct Arrival {
      NodeId up;        ///< upstream node
      std::uint8_t port;  ///< its output port
      std::uint8_t mask;  ///< states on that link
    };
    std::vector<std::vector<Arrival>> arrivals(static_cast<std::size_t>(n));
    for (const NodeId u : order) {
      if (u == dst) continue;
      const RoutePreference pref = tables.pref(u, dst);
      NOCSIM_DCHECK(pref.count > 0);
      const int p = static_cast<int>(pref.dirs[0]);
      const NodeId v = topo.link(u, p).to;
      std::uint8_t out_mask =
          static_cast<std::uint8_t>(1u << next_state(topo, u, p, 0, vc_classes));
      for (const Arrival& a : arrivals[static_cast<std::size_t>(u)]) {
        for (std::uint8_t s = 0; s < 8; ++s) {
          if (!(a.mask & (1u << s))) continue;
          const std::uint8_t s2 = next_state(topo, u, p, s, vc_classes);
          out_mask |= static_cast<std::uint8_t>(1u << s2);
          edges[chan_of(a.up, a.port, s)].insert(chan_of(u, p, s2));
        }
      }
      if (v != dst) {
        arrivals[static_cast<std::size_t>(v)].push_back(
            Arrival{u, static_cast<std::uint8_t>(p), out_mask});
      }
    }
  }

  // Iterative DFS cycle detection over the channel graph.
  std::vector<std::uint8_t> color(n_chan, 0);  // 0 white, 1 on stack, 2 done
  std::vector<std::pair<std::uint32_t, std::set<std::uint32_t>::const_iterator>> stack;
  for (std::uint32_t root = 0; root < n_chan; ++root) {
    if (color[root] != 0) continue;
    color[root] = 1;
    stack.emplace_back(root, edges[root].begin());
    while (!stack.empty()) {
      auto& [c, it] = stack.back();
      if (it == edges[c].end()) {
        color[c] = 2;
        stack.pop_back();
        continue;
      }
      const std::uint32_t next = *it;
      ++it;
      if (color[next] == 1) return false;  // back edge: cycle
      if (color[next] == 0) {
        color[next] = 1;
        stack.emplace_back(next, edges[next].begin());
      }
    }
  }
  return true;
}

}  // namespace nocsim
