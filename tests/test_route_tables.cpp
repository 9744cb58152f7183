// Property tests for the Dijkstra route-table builder (route_tables.cpp).
//
// The builder's contract has four parts, and each gets a direct check here:
//   1. every table entry makes progress — following dirs[0] from any source
//      reaches the destination in exactly hops[] steps at exactly cost[]
//      accumulated latency;
//   2. cost[] is the true shortest latency-weighted distance (checked
//      against an independent Floyd-Warshall reference);
//   3. the tables are a pure function of the graph — building twice yields
//      byte-identical packed/hops/cost arrays — and on every grid family
//      they agree with the topology's analytic dimension-order rule, both
//      where the topology tabulates it and where it computes it per call;
//   4. the preferred paths are deadlock-free — check_cdg_acyclic holds for
//      every topology family the simulator ships.
//
// Randomized graphs are written through the irregular-topology file parser
// on purpose: the fuzz loop then also exercises the parse -> port-assignment
// -> build pipeline end to end, and the negative tests below pin the
// parser's rejection messages.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <limits>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fabric_harness.hpp"
#include "noc/bless_fabric.hpp"
#include "topology/route_tables.hpp"
#include "topology/topology.hpp"

namespace nocsim {
namespace {

struct TestLink {
  int from = 0;
  int to = 0;
  int latency = 1;
};

struct TestGraph {
  int nodes = 0;
  std::vector<TestLink> links;
};

std::string write_topo_file(const TestGraph& g, const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << "nodes " << g.nodes << "\n";
  for (const TestLink& l : g.links) {
    out << "link " << l.from << " " << l.to;
    if (l.latency != 1) out << " latency " << l.latency;
    out << "\n";
  }
  return path;
}

std::string write_topo_text(const std::string& text, const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream out(path);
  out << text;
  return path;
}

/// Random strongly-connected graph: a bidirectional ring (guarantees strong
/// connectivity and BLESS's degree >= 2) plus random extra links, capped at
/// the fabric's kNumDirs ports per node, latencies in [1, 4].
TestGraph random_graph(std::uint32_t seed) {
  std::mt19937 rng(seed);
  TestGraph g;
  g.nodes = 4 + static_cast<int>(rng() % 9);  // 4..12 nodes
  std::vector<int> out_deg(static_cast<std::size_t>(g.nodes), 0);
  std::vector<int> in_deg(static_cast<std::size_t>(g.nodes), 0);
  std::set<std::pair<int, int>> seen;
  const auto add = [&](int u, int v, int lat) {
    g.links.push_back(TestLink{u, v, lat});
    seen.emplace(u, v);
    ++out_deg[static_cast<std::size_t>(u)];
    ++in_deg[static_cast<std::size_t>(v)];
  };
  for (int i = 0; i < g.nodes; ++i) {
    const int j = (i + 1) % g.nodes;
    const int lat = 1 + static_cast<int>(rng() % 4);
    add(i, j, lat);
    add(j, i, 1 + static_cast<int>(rng() % 4));
  }
  const int extra = static_cast<int>(rng() % 8);
  for (int k = 0; k < extra; ++k) {
    const int u = static_cast<int>(rng() % static_cast<unsigned>(g.nodes));
    const int v = static_cast<int>(rng() % static_cast<unsigned>(g.nodes));
    if (u == v || seen.count({u, v}) != 0) continue;
    if (out_deg[static_cast<std::size_t>(u)] >= kNumDirs ||
        in_deg[static_cast<std::size_t>(v)] >= kNumDirs) {
      continue;
    }
    add(u, v, 1 + static_cast<int>(rng() % 4));
  }
  return g;
}

constexpr std::uint32_t kInf = std::numeric_limits<std::uint32_t>::max() / 4;

/// Independent reference: Floyd-Warshall over the raw link list.
std::vector<std::uint32_t> reference_distances(const TestGraph& g) {
  const auto n = static_cast<std::size_t>(g.nodes);
  std::vector<std::uint32_t> d(n * n, kInf);
  for (std::size_t i = 0; i < n; ++i) d[i * n + i] = 0;
  for (const TestLink& l : g.links) {
    auto& cell = d[static_cast<std::size_t>(l.from) * n + static_cast<std::size_t>(l.to)];
    cell = std::min(cell, static_cast<std::uint32_t>(l.latency));
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        d[i * n + j] = std::min(d[i * n + j], d[i * n + k] + d[k * n + j]);
      }
    }
  }
  return d;
}

/// Walk dirs[0] hops from src toward dst; EXPECTs arrival in exactly the
/// table's hop count at exactly the table's cost.
void check_walk(const Topology& topo, const RouteTables& t, NodeId src, NodeId dst) {
  NodeId at = src;
  std::uint32_t spent = 0;
  int steps = 0;
  const int limit = t.hop_distance(src, dst);
  while (at != dst) {
    ASSERT_LE(steps, limit) << "path " << src << " -> " << dst << " overruns its hop count";
    const RoutePreference p = t.pref(at, dst);
    ASSERT_GT(p.count, 0);
    const Topology::Link& l = topo.link(at, static_cast<int>(p.dirs[0]));
    ASSERT_NE(l.to, kInvalidNode);
    spent += l.latency;
    at = l.to;
    ++steps;
  }
  EXPECT_EQ(steps, limit) << "hops[" << src << "][" << dst << "] disagrees with the walk";
  const std::uint32_t cost = t.cost[static_cast<std::size_t>(src) * static_cast<std::size_t>(t.nodes) +
                                    static_cast<std::size_t>(dst)];
  EXPECT_EQ(spent, cost) << "preferred path " << src << " -> " << dst << " is not shortest";
}

TEST(RouteTableFuzz, EveryEntryReachesDestAtDijkstraCost) {
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    const TestGraph g = random_graph(seed);
    const std::string path =
        write_topo_file(g, "fuzz_" + std::to_string(seed) + ".topo");
    IrregularTopology topo(path);
    const RouteTables t = build_route_tables(topo);
    ASSERT_EQ(t.nodes, g.nodes);
    const std::vector<std::uint32_t> ref = reference_distances(g);
    for (NodeId s = 0; s < g.nodes; ++s) {
      for (NodeId d = 0; d < g.nodes; ++d) {
        const std::size_t idx = static_cast<std::size_t>(s) * static_cast<std::size_t>(g.nodes) +
                                static_cast<std::size_t>(d);
        EXPECT_EQ(t.cost[idx], ref[idx])
            << "seed " << seed << ": cost[" << s << "][" << d << "] != Floyd-Warshall";
        if (s == d) continue;
        check_walk(topo, t, s, d);
        // Any second-choice port must also lie on a shortest path.
        const RoutePreference p = t.pref(s, d);
        for (int i = 0; i < p.count; ++i) {
          const Topology::Link& l = topo.link(s, static_cast<int>(p.dirs[i]));
          ASSERT_NE(l.to, kInvalidNode);
          EXPECT_EQ(t.cost[static_cast<std::size_t>(l.to) * static_cast<std::size_t>(g.nodes) +
                           static_cast<std::size_t>(d)] +
                        l.latency,
                    t.cost[idx])
              << "seed " << seed << ": non-minimal candidate port";
        }
      }
    }
  }
}

TEST(RouteTableFuzz, SameGraphBuildsByteIdenticalTablesTwice) {
  for (std::uint32_t seed = 1; seed <= 25; ++seed) {
    const TestGraph g = random_graph(seed);
    const std::string pa =
        write_topo_file(g, "det_a_" + std::to_string(seed) + ".topo");
    const std::string pb =
        write_topo_file(g, "det_b_" + std::to_string(seed) + ".topo");
    IrregularTopology ta(pa);
    IrregularTopology tb(pb);
    const RouteTables ra = build_route_tables(ta);
    const RouteTables rb = build_route_tables(tb);
    EXPECT_EQ(ra.packed, rb.packed) << "seed " << seed;
    EXPECT_EQ(ra.hops, rb.hops) << "seed " << seed;
    EXPECT_EQ(ra.cost, rb.cost) << "seed " << seed;
  }
}

/// EXPECTs that the topology's route_preference and distance for src -> dst
/// equal the Dijkstra oracle's entry.
void expect_matches_oracle(const Topology& topo, const RouteTables& oracle, NodeId s,
                           NodeId d) {
  const RoutePreference want = oracle.pref(s, d);
  const RoutePreference got = topo.route_preference(s, d);
  ASSERT_EQ(got.count, want.count) << topo.name() << " " << s << "->" << d;
  for (int i = 0; i < want.count; ++i) {
    EXPECT_EQ(got.dirs[i], want.dirs[i]) << topo.name() << " " << s << "->" << d;
  }
  EXPECT_EQ(topo.distance(s, d), oracle.hop_distance(s, d))
      << topo.name() << " " << s << "->" << d;
}

TEST(RouteTableGrid, TablesMatchAnalyticPreferenceOnEveryGridFamily) {
  // Grid topologies tabulate the analytic dimension-order rule; the
  // builder's grid tie-break (dimension order, positive direction wins a
  // ring tie) is an independent derivation of the same routes from the
  // link graph. The two must agree on every pair of every family.
  const Mesh mesh(4, 4);
  const Torus torus_even(4, 4);  // even ring: exercises the half-way tie
  const Torus torus_odd(5, 3);
  const Torus ring_even(8, 1);
  const Torus ring_odd(7, 1);
  const Mesh3D mesh3d(3, 4, 3);
  const Torus3D torus3d_d2(4, 4, 2);  // a 2-ring: both z links reach one node
  const Torus3D torus3d_d3(4, 3, 3);
  const CMesh cmesh(4, 4);
  for (const Topology* topo :
       {static_cast<const Topology*>(&mesh), static_cast<const Topology*>(&torus_even),
        static_cast<const Topology*>(&torus_odd), static_cast<const Topology*>(&ring_even),
        static_cast<const Topology*>(&ring_odd), static_cast<const Topology*>(&mesh3d),
        static_cast<const Topology*>(&torus3d_d2), static_cast<const Topology*>(&torus3d_d3),
        static_cast<const Topology*>(&cmesh)}) {
    ASSERT_NE(topo->route_tables(), nullptr) << topo->name();
    const RouteTables oracle = build_route_tables(*topo);
    for (NodeId s = 0; s < topo->num_nodes(); ++s) {
      for (NodeId d = 0; d < topo->num_nodes(); ++d) expect_matches_oracle(*topo, oracle, s, d);
    }
  }
}

TEST(RouteTableCdg, AcyclicForEveryShippedFamily) {
  const Mesh mesh(4, 4);
  const Torus torus(4, 4);
  const Mesh3D mesh3d(3, 3, 3);
  const Torus3D torus3d(4, 4, 2);
  const CMesh cmesh(4, 4);
  for (const Topology* topo : {static_cast<const Topology*>(&mesh),
                               static_cast<const Topology*>(&torus),
                               static_cast<const Topology*>(&mesh3d),
                               static_cast<const Topology*>(&torus3d),
                               static_cast<const Topology*>(&cmesh)}) {
    EXPECT_TRUE(check_cdg_acyclic(*topo, build_route_tables(*topo))) << topo->name();
    EXPECT_TRUE(check_cdg_acyclic(*topo, *topo->route_tables())) << topo->name();
  }
  // The shipped irregular example: a line whose ring closure is a slow
  // escape link plus an express chord (see examples/irregular8.topo).
  IrregularTopology irr(NOCSIM_EXAMPLE_TOPO);
  EXPECT_TRUE(check_cdg_acyclic(irr, *irr.route_tables())) << "examples/irregular8.topo";
}

TEST(RouteTableCap, AnalyticPathMatchesOracleAbove256Nodes) {
  // Above kRouteTableMaxNodes a grid keeps no tables and computes the
  // analytic rule per call; on a 16x16x4 mesh and an 8x8x8 torus (even
  // rings: the half-way tie) that rule must still match the Dijkstra
  // oracle. Every source is checked against a stride of destinations
  // coprime with the sides, so every (x, y, z) offset occurs.
  const Mesh3D mesh(16, 16, 4);
  const Torus3D torus(8, 8, 8);
  for (const Topology* topo :
       {static_cast<const Topology*>(&mesh), static_cast<const Topology*>(&torus)}) {
    EXPECT_EQ(topo->route_tables(), nullptr) << topo->name();
    const RouteTables oracle = build_route_tables(*topo);
    for (NodeId s = 0; s < topo->num_nodes(); ++s) {
      for (NodeId d = s % 11; d < topo->num_nodes(); d += 11) {
        expect_matches_oracle(*topo, oracle, s, d);
      }
    }
    check_walk(*topo, oracle, 0, topo->num_nodes() - 1);
  }
  BlessFabric fabric(mesh);
  EXPECT_EQ(fabric.topology().num_nodes(), 1024);
}

TEST(RouteTableCap, IrregularRingAbove256NodesDeliversAPacket) {
  // Irregular graphs keep their Dijkstra tables at any size: a 300-node
  // bidirectional ring builds and routes a packet half-way around.
  TestGraph g;
  g.nodes = 300;
  for (int i = 0; i < g.nodes; ++i) {
    g.links.push_back(TestLink{i, (i + 1) % g.nodes, 1});
    g.links.push_back(TestLink{(i + 1) % g.nodes, i, 1});
  }
  const IrregularTopology topo(write_topo_file(g, "ring300.topo"));
  ASSERT_NE(topo.route_tables(), nullptr);
  EXPECT_EQ(topo.distance(0, 150), 150);
  BlessFabric fabric(topo);
  testutil::FabricHarness h(fabric);
  h.send(0, 150);
  ASSERT_TRUE(h.drain(10'000));
  ASSERT_EQ(h.deliveries().size(), 1u);
  EXPECT_EQ(h.deliveries()[0].at, 150);
  EXPECT_EQ(h.deliveries()[0].flit.hops, 150);
}

using RouteTableParserDeath = ::testing::Test;

TEST(RouteTableParserDeath, RejectsMalformedFile) {
  const std::string p =
      write_topo_text("nodes 4\nlink 0 1\nfrobnicate 1 2\n", "malformed.topo");
  EXPECT_DEATH(IrregularTopology t(p), "malformed topology file");
  const std::string q = write_topo_text("link 0 1\n", "headerless.topo");
  EXPECT_DEATH(IrregularTopology t(q), "must start with a 'nodes N' header");
}

TEST(RouteTableParserDeath, RejectsDisconnectedGraph) {
  // Two 2-node islands. The constructor runs the Dijkstra builder as its
  // connectivity check, so the rejection happens at construction time.
  const std::string p = write_topo_text(
      "nodes 4\nlink 0 1\nlink 1 0\nlink 2 3\nlink 3 2\n", "disconnected.topo");
  EXPECT_DEATH(IrregularTopology topo(p), "not strongly connected");
}

TEST(RouteTableParserDeath, RejectsDuplicateLink) {
  const std::string p = write_topo_text(
      "nodes 3\nlink 0 1\nlink 1 0\nlink 1 2\nlink 2 1\nlink 2 0\nlink 0 2\n"
      "link 0 1 latency 2\n",
      "dup.topo");
  EXPECT_DEATH(IrregularTopology t(p), "duplicate link");
}

TEST(RouteTableParserDeath, RejectsZeroLatencyLink) {
  const std::string p = write_topo_text(
      "nodes 2\nlink 0 1 latency 0\nlink 1 0\n", "zerolat.topo");
  EXPECT_DEATH(IrregularTopology t(p), "link latency must be >= 1");
}

}  // namespace
}  // namespace nocsim
