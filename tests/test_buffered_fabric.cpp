#include "noc/buffered_fabric.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "fabric_harness.hpp"
#include "noc/bless_fabric.hpp"
#include "noc/traffic.hpp"

namespace nocsim {
namespace {

using testutil::FabricHarness;

TEST(BufferedFabric, SingleFlitDelivery) {
  Mesh mesh(4, 4);
  BufferedFabric fabric(mesh);
  FabricHarness h(fabric);
  h.send(mesh.node_at({0, 0}), mesh.node_at({3, 3}));
  ASSERT_TRUE(h.drain());
  ASSERT_EQ(h.deliveries().size(), 1u);
  EXPECT_EQ(h.deliveries()[0].at, mesh.node_at({3, 3}));
  EXPECT_EQ(h.deliveries()[0].flit.hops, 6u);  // XY shortest path
}

TEST(BufferedFabric, MultiFlitPacketArrivesCompleteAndInOrder) {
  Mesh mesh(4, 4);
  BufferedFabric fabric(mesh);
  FabricHarness h(fabric);
  h.send_packet(mesh.node_at({0, 1}), mesh.node_at({3, 2}), 4);
  ASSERT_TRUE(h.drain());
  ASSERT_EQ(h.deliveries().size(), 4u);
  for (std::uint16_t i = 0; i < 4; ++i) {
    EXPECT_EQ(h.deliveries()[i].flit.flit_idx, i) << "wormhole order violated";
  }
}

TEST(BufferedFabricTorus, DeliveryAcrossWrapLinks) {
  Torus torus(4, 4);
  BufferedFabric fabric(torus);
  FabricHarness h(fabric);
  // Corner to corner: the shortest route uses wrap links in both dimensions.
  h.send(torus.node_at({0, 0}), torus.node_at({3, 3}));
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(h.deliveries()[0].flit.hops, 2u);  // 1 wrap hop per dimension
}

TEST(BufferedFabricTorus, DatelineAvoidsRingDeadlock) {
  // Adversarial pattern for ring deadlock: every node sends multi-flit
  // packets halfway around both rings (maximum wrap pressure), continuously.
  Torus torus(4, 4);
  BufferedFabric fabric(torus);
  FabricHarness h(fabric);
  Rng rng(3);
  for (int round = 0; round < 400; ++round) {
    for (NodeId n = 0; n < torus.num_nodes(); ++n) {
      const Coord c = torus.coord_of(n);
      const NodeId dst = torus.node_at({(c.x + 2) % 4, (c.y + 2) % 4});
      if (rng.next_bool(0.5)) h.send_packet(n, dst, 4);
    }
    h.step();
  }
  ASSERT_TRUE(h.drain(200'000)) << "torus wormhole deadlock: dateline scheme failed";
  EXPECT_EQ(h.delivered(), h.sent());
}

TEST(BufferedFabricTorus, RandomTrafficDrains) {
  Torus torus(5, 5);  // odd side exercises asymmetric wrap distances
  BufferedFabric fabric(torus);
  FabricHarness h(fabric);
  UniformTraffic pattern(torus);
  Rng rng(7);
  for (int cycle = 0; cycle < 2000; ++cycle) {
    for (NodeId n = 0; n < torus.num_nodes(); ++n) {
      if (rng.next_bool(0.35)) h.send_packet(n, pattern.pick(n, rng), 1 + (cycle % 3));
    }
    h.step();
  }
  ASSERT_TRUE(h.drain(300'000));
  EXPECT_EQ(h.delivered(), h.sent());
  for (const auto& d : h.deliveries()) {
    EXPECT_EQ(d.flit.hops, torus.distance(d.flit.src, d.flit.dst));
  }
}

TEST(BufferedFabric, NeverDeflects) {
  Mesh mesh(4, 4);
  BufferedFabric fabric(mesh);
  FabricHarness h(fabric);
  UniformTraffic pattern(mesh);
  Rng rng(5);
  for (int cycle = 0; cycle < 2000; ++cycle) {
    for (NodeId n = 0; n < 16; ++n) {
      if (rng.next_bool(0.4)) h.send(n, pattern.pick(n, rng));
    }
    h.step();
  }
  ASSERT_TRUE(h.drain());
  EXPECT_EQ(fabric.stats().deflections, 0u);
  for (const auto& d : h.deliveries()) {
    EXPECT_EQ(d.flit.hops, mesh.distance(d.flit.src, d.flit.dst)) << "non-minimal route";
  }
}

TEST(BufferedFabric, BufferAccountingBalances) {
  Mesh mesh(4, 4);
  BufferedFabric fabric(mesh);
  FabricHarness h(fabric);
  UniformTraffic pattern(mesh);
  Rng rng(6);
  for (int cycle = 0; cycle < 1000; ++cycle) {
    for (NodeId n = 0; n < 16; ++n) {
      if (rng.next_bool(0.3)) h.send(n, pattern.pick(n, rng));
    }
    h.step();
  }
  ASSERT_TRUE(h.drain());
  // Every buffered write is eventually read back out.
  EXPECT_EQ(fabric.stats().buffer_writes, fabric.stats().buffer_reads);
  EXPECT_GT(fabric.stats().buffer_writes, 0u);
}

struct BufLoadCase {
  int side;
  double rate;
  int pkt_len;
};
class BufferedDeliveryProperty : public ::testing::TestWithParam<BufLoadCase> {};

TEST_P(BufferedDeliveryProperty, ConservationUnderLoad) {
  const auto& lc = GetParam();
  Mesh mesh(lc.side, lc.side);
  BufferedFabric fabric(mesh);
  FabricHarness h(fabric);
  UniformTraffic pattern(mesh);
  Rng rng(42);
  for (int cycle = 0; cycle < 1500; ++cycle) {
    for (NodeId n = 0; n < mesh.num_nodes(); ++n) {
      if (rng.next_bool(lc.rate)) h.send_packet(n, pattern.pick(n, rng), lc.pkt_len);
    }
    h.step();
  }
  ASSERT_TRUE(h.drain(300'000)) << "packets stuck: possible deadlock or credit leak";
  EXPECT_EQ(h.delivered(), h.sent());
  for (const auto& d : h.deliveries()) EXPECT_EQ(d.at, d.flit.dst);
}

INSTANTIATE_TEST_SUITE_P(
    LoadSweep, BufferedDeliveryProperty,
    ::testing::Values(BufLoadCase{4, 0.05, 1}, BufLoadCase{4, 0.30, 1},
                      BufLoadCase{4, 0.10, 4}, BufLoadCase{4, 0.05, 9},
                      BufLoadCase{8, 0.10, 3}, BufLoadCase{8, 0.25, 1},
                      BufLoadCase{3, 0.40, 2}),
    [](const auto& inf) {
      return std::to_string(inf.param.side) + "x" + std::to_string(inf.param.side) + "_r" +
             std::to_string(static_cast<int>(inf.param.rate * 100)) + "_len" +
             std::to_string(inf.param.pkt_len);
    });

// The occupancy mask must track every FIFO exactly: a bit left set on an
// empty FIFO makes route_node read a missing head (a debug-build check
// fires), a bit cleared under a non-empty FIFO strands its flits. Multi-
// flit packets of mixed lengths keep wormholes, credit stalls and partial
// FIFOs in play; the torus adds the dateline VC classes. From light load to
// saturation, every flit must arrive exactly once and the fabric must end
// empty, with no flit left in any FIFO or on any link.
struct MaskDrainCase {
  std::string topology;
  double rate;
};
class OccupancyMaskDrain : public ::testing::TestWithParam<MaskDrainCase> {};

TEST_P(OccupancyMaskDrain, EveryFlitDeliveredOnceAndFabricEmpties) {
  const MaskDrainCase& mc = GetParam();
  const auto topo = make_topology(mc.topology, 4, 4);
  BufferedFabric fabric(*topo);
  FabricHarness h(fabric);
  UniformTraffic pattern(*topo);
  Rng rng(11);
  for (int cycle = 0; cycle < 1500; ++cycle) {
    for (NodeId n = 0; n < topo->num_nodes(); ++n) {
      if (rng.next_bool(mc.rate))
        h.send_packet(n, pattern.pick(n, rng), 1 + static_cast<int>(rng.next_below(5)));
    }
    h.step();
  }
  ASSERT_TRUE(h.drain(400'000)) << "flits stranded: stale occupancy bit or credit leak";
  EXPECT_EQ(h.delivered(), h.sent());
  std::map<std::tuple<NodeId, std::uint32_t, int>, int> seen;
  for (const auto& d : h.deliveries()) {
    EXPECT_EQ(d.at, d.flit.dst);
    ++seen[{d.flit.src, d.flit.packet, d.flit.flit_idx}];
  }
  EXPECT_EQ(seen.size(), h.sent());
  for (const auto& [key, count] : seen) ASSERT_EQ(count, 1) << "flit delivered twice";
  EXPECT_TRUE(fabric.empty());
  EXPECT_EQ(fabric.oldest_inflight_inject_cycle(), Fabric::kNoInflight);
  EXPECT_EQ(fabric.stats().buffer_writes, fabric.stats().buffer_reads);
}

INSTANTIATE_TEST_SUITE_P(
    LightToSaturation, OccupancyMaskDrain,
    ::testing::Values(MaskDrainCase{"mesh", 0.02}, MaskDrainCase{"mesh", 0.15},
                      MaskDrainCase{"mesh", 0.6}, MaskDrainCase{"torus", 0.02},
                      MaskDrainCase{"torus", 0.15}, MaskDrainCase{"torus", 0.6}),
    [](const auto& inf) {
      return inf.param.topology + "_r" + std::to_string(static_cast<int>(inf.param.rate * 100));
    });

TEST(BufferedFabric, HigherCapacityThanBlessUnderSaturation) {
  // The buffered network should deliver at least as much saturated goodput
  // as bufferless BLESS on the same mesh (the reason Fig. 13's buffered
  // curve sits on top).
  auto goodput = [](Fabric& fabric, const Topology& topo) {
    FabricHarness h(fabric);
    UniformTraffic pattern(topo);
    Rng rng(9);
    for (int cycle = 0; cycle < 5000; ++cycle) {
      for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        if (rng.next_bool(0.9)) h.send(n, pattern.pick(n, rng));
      }
      h.step();
    }
    return static_cast<double>(h.delivered()) / 5000.0;
  };
  Mesh mesh(4, 4);
  BufferedFabric buffered(mesh);
  BlessFabric bless(mesh);
  EXPECT_GE(goodput(buffered, mesh), goodput(bless, mesh) * 0.95);
}

}  // namespace
}  // namespace nocsim
