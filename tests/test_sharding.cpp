// Intra-run sharding tests: the cycle loop must compute the *same function*
// at every tile count. Every case serializes the full SimResult (%.17g
// doubles, order-sensitive Welford moments included) and requires
// byte-identity between --shards 1 (one tile) and every other tile count —
// not approximate equality, not same-to-6-digits.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/shard.hpp"
#include "common/shard_annotations.hpp"
#include "golden_util.hpp"
#include "noc/bless_fabric.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "noc/trace_sink.hpp"
#include "telemetry/telemetry.hpp"
#include "topology/topology.hpp"

namespace nocsim {
namespace {

using testutil::serialize_result;

// Shard counts exercised against the one-tile baseline. 7 is deliberately
// coprime to every mesh height used here: tiles get unequal row counts, and
// on the 8x8 mesh tiles of 64 nodes split across bitmap words mid-tile.
const int kShardCounts[] = {2, 4, 7};

TEST(ShardPlan, RowStripsAreContiguousAndCoverEveryNode) {
  for (const auto& [w, h, s] : {std::tuple{8, 8, 4}, {4, 4, 7}, {32, 32, 7}, {5, 3, 2}}) {
    const ShardPlan plan(w, h, s);
    ASSERT_GE(plan.tiles(), 1);
    ASSERT_LE(plan.tiles(), std::min(s, h)) << w << "x" << h << "/" << s;
    int expect_lo = 0;
    for (int t = 0; t < plan.tiles(); ++t) {
      const ShardPlan::TileRange r = plan.range(t);
      ASSERT_EQ(r.lo, expect_lo) << "gap between tiles";
      ASSERT_LT(r.lo, r.hi) << "empty tile";
      ASSERT_EQ(r.lo % w, 0) << "tile does not start on a row boundary";
      ASSERT_EQ(plan.tile_nodes(t), r.hi - r.lo);
      for (int n = r.lo; n < r.hi; ++n) {
        ASSERT_EQ(plan.tile_of(n), t);
        ASSERT_TRUE(plan.owns(t, n));
        ASSERT_EQ(plan.local_of(t, n), static_cast<std::uint32_t>(n - r.lo));
      }
      if (t > 0) {
        ASSERT_FALSE(plan.owns(t, r.lo - 1));
      }
      if (r.hi < w * h) {
        ASSERT_FALSE(plan.owns(t, r.hi));
      }
      expect_lo = r.hi;
    }
    ASSERT_EQ(expect_lo, w * h) << "tiles do not cover the mesh";
    ASSERT_EQ(plan.nodes(), w * h);
  }
}

TEST(ShardPlan, CapsTileCountAtRowCount) {
  const ShardPlan plan(16, 4, 64);
  EXPECT_EQ(plan.tiles(), 4);
  // A single-row mesh cannot be split at all.
  EXPECT_EQ(ShardPlan(16, 1, 8).tiles(), 1);
}

TEST(ShardPlan, ScaledPlanGivesEachTileItsRoutersCores) {
  // cmesh: core c sits behind router c / 4, so the core plan's tile t must
  // hold exactly the cores of the router plan's tile t.
  const ShardPlan routers(4, 4, 3);
  const ShardPlan cores = routers.scaled(4);
  ASSERT_EQ(cores.tiles(), routers.tiles());
  ASSERT_EQ(cores.nodes(), 64);
  for (int c = 0; c < 64; ++c) ASSERT_EQ(cores.tile_of(c), routers.tile_of(c / 4)) << c;
}

TEST(TileBits, WordsAreTileOwnedAndIndexedByLocalId) {
  const ShardPlan plan(4, 4, 4);  // four 4-node tiles: all in one word globally
  TileBits bits(plan);
  for (int t = 0; t < plan.tiles(); ++t) ASSERT_EQ(bits.words(t).size(), 1u);
  bits.set(2, plan.local_of(2, 9));
  EXPECT_TRUE(bits.test(2, 1));
  EXPECT_EQ(bits.words(2)[0], 0b10u);
  for (const int t : {0, 1, 3}) EXPECT_EQ(bits.words(t)[0], 0u) << "tile " << t;
}

// Scenario matrix. These deliberately mirror (and extend) the golden-diff
// cases: both routers, both topologies, the deterministic Algorithm 3 gate,
// control traffic modelled as real packets, and an 8x8 mesh where 7 shards
// split 8 rows unevenly.
struct ShardScenario {
  const char* name;
};

SimConfig scenario_config(const std::string& name, WorkloadSpec& wl) {
  SimConfig c;
  c.warmup_cycles = 2'000;
  c.measure_cycles = 6'000;
  c.cc_params.epoch = 1'000;
  c.seed = 1;
  if (name == "bless_4x4_hm") {
    Rng rng(17);
    wl = make_category_workload("HM", 16, rng);
  } else if (name == "buffered_4x4_hm") {
    c.router = RouterKind::Buffered;
    c.seed = 2;
    Rng rng(48);
    wl = make_category_workload("HM", 16, rng);
  } else if (name == "buffered_torus_4x4") {
    // Dateline VC classes + wraparound links under the halo exchange.
    c.router = RouterKind::Buffered;
    c.topology = "torus";
    c.seed = 5;
    Rng rng(9);
    wl = make_category_workload("HM", 16, rng);
  } else if (name == "throttled_static_4x4") {
    // Deterministic Algorithm 3 gate + starvation accounting.
    c.cc = CcMode::Static;
    c.static_rate = 0.4;
    c.randomized_throttle_gate = false;
    c.record_epoch_ipf = true;
    c.seed = 3;
    const char* apps[4] = {"matlab", "art.ref.train", "mcf2", "sphinx3"};
    for (int i = 0; i < 16; ++i) wl.app_names.push_back(apps[i % 4]);
  } else if (name == "bless_mesh3d_4x4x2") {
    // Two z layers: the shard plan treats them as extra rows (height*depth),
    // so 7 shards split the 8 stacked rows unevenly and 2x2 tiles span both
    // layers; Up/Down links ride the halo exchange.
    c.topology = "mesh3d";
    c.depth = 2;
    c.seed = 6;
    Rng rng(12);
    wl = make_category_workload("HM", 32, rng);
  } else if (name == "cmesh_4x4") {
    // Concentration: 64 cores fan into 16 routers, so the core bitmap is
    // 4x the router space and every NI serves four request streams.
    c.topology = "cmesh";
    c.seed = 8;
    Rng rng(29);
    wl = make_category_workload("HML", 64, rng);
  } else if (name == "distributed_cc_8x8") {
    // Distributed CC: every NI is visited every cycle, congested routers
    // mark flits, and marked responses throttle their receivers.
    c.width = 8;
    c.height = 8;
    c.cc = CcMode::Distributed;
    c.seed = 11;
    Rng rng(33);
    wl = make_category_workload("H", 64, rng);
  } else if (name == "central_cc_8x8") {
    // 8 rows / 7 shards is the maximally uneven strip split; control
    // packets ride the network as real traffic.
    c.width = 8;
    c.height = 8;
    c.cc = CcMode::Central;
    c.model_control_traffic = true;
    c.seed = 7;
    Rng rng(21);
    wl = make_category_workload("HML", 64, rng);
  } else if (name == "bless_irregular8" || name == "buffered_irregular8") {
    // A graph file: 1-wide node-id strips, so 7 shards give 1-2 routers a
    // tile and the express chord 2<->5 crosses tiles at every tiling.
    c.topology = "irregular";
    c.topology_file = NOCSIM_EXAMPLE_TOPO;
    c.width = 8;
    c.height = 1;
    if (name == "buffered_irregular8") c.router = RouterKind::Buffered;
    c.seed = 4;
    Rng rng(40);
    wl = make_category_workload("HM", 8, rng);
  } else {
    ADD_FAILURE() << "unknown shard scenario " << name;
  }
  return c;
}

class ShardedByteIdentity : public ::testing::TestWithParam<ShardScenario> {};

TEST_P(ShardedByteIdentity, SerializedResultMatchesSerialForEveryShardCount) {
  const std::string name = GetParam().name;
  WorkloadSpec wl_serial;
  SimConfig serial = scenario_config(name, wl_serial);
  const std::string golden = serialize_result(run_workload(serial, wl_serial));

  for (const int shards : kShardCounts) {
    WorkloadSpec wl;
    SimConfig c = scenario_config(name, wl);
    c.shards = shards;
    const std::string got = serialize_result(run_workload(c, wl));
    ASSERT_EQ(got, golden) << name << " diverges from serial at --shards " << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ShardedByteIdentity,
                         ::testing::Values(ShardScenario{"bless_4x4_hm"},
                                           ShardScenario{"buffered_4x4_hm"},
                                           ShardScenario{"buffered_torus_4x4"},
                                           ShardScenario{"bless_mesh3d_4x4x2"},
                                           ShardScenario{"cmesh_4x4"},
                                           ShardScenario{"throttled_static_4x4"},
                                           ShardScenario{"central_cc_8x8"},
                                           ShardScenario{"bless_irregular8"},
                                           ShardScenario{"buffered_irregular8"}),
                         [](const auto& inf) { return std::string(inf.param.name); });

// The telemetry time series — every per-epoch sigma/IPF/throttle-rate/
// counter cell, CSV-rendered — must also be byte-identical: sampling reads
// live NI and fabric state, so any drift in *when* state changes shows up
// here even if the end-of-run aggregates happen to agree.
TEST(ShardedTimeseries, CsvIsByteIdenticalToSerial) {
  const auto run_csv = [](int shards) {
    WorkloadSpec wl;
    SimConfig c = scenario_config("central_cc_8x8", wl);
    c.shards = shards;
    Simulator sim(c, wl);
    TelemetryHub hub;  // adopts the controller epoch as its cadence
    sim.attach_telemetry(&hub);
    sim.run();
    std::ostringstream out;
    hub.write_csv(out);
    return out.str();
  };
  const std::string serial = run_csv(1);
  ASSERT_NE(serial.find('\n'), std::string::npos);
  for (const int shards : kShardCounts) {
    ASSERT_EQ(run_csv(shards), serial) << "timeseries diverges at --shards " << shards;
  }
}

// Halo counters: one tile never stages a cross-tile write, so both counters
// are structurally zero; four tiles of a loaded mesh must record traffic.
TEST(ShardHaloCounters, OneTileIsZeroAndFourTilesCrossLinks) {
  const auto halo_writes = [](int shards, std::uint64_t* bytes) {
    WorkloadSpec wl;
    SimConfig c = scenario_config("central_cc_8x8", wl);
    c.shards = shards;
    const SimResult r = run_workload(c, wl);
    *bytes = r.fabric.halo_bytes;
    return r.fabric.halo_writes;
  };
  std::uint64_t bytes = ~std::uint64_t{0};
  EXPECT_EQ(halo_writes(1, &bytes), 0u);
  EXPECT_EQ(bytes, 0u);
  EXPECT_GT(halo_writes(4, &bytes), 0u);
  EXPECT_GT(bytes, 0u);
}

// Flit tracing under tiles: every tile buffers its events and the fabric
// replays them in tile order, so the recorded stream — every event, every
// flit field, in order — must match the one-tile stream on both routers.
class StreamDigest final : public FlitEventSink {
 public:
  void on_inject(Cycle now, NodeId at, const Flit& f) override { add(0, now, at, at, f); }
  void on_hop(Cycle now, NodeId from, NodeId to, const Flit& f) override {
    add(1, now, from, to, f);
  }
  void on_deflect(Cycle now, NodeId at, const Flit& f) override { add(2, now, at, at, f); }
  void on_eject(Cycle now, NodeId at, const Flit& f) override { add(3, now, at, at, f); }

  std::uint64_t events[4] = {0, 0, 0, 0};
  std::uint64_t hash = 0xcbf29ce484222325ULL;

 private:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (v >> (8 * i)) & 0xff;
      hash *= 0x100000001b3ULL;
    }
  }
  void add(int kind, Cycle now, NodeId at, NodeId to, const Flit& f) {
    ++events[kind];
    for (const std::uint64_t v :
         {std::uint64_t(kind), std::uint64_t(now), std::uint64_t(at), std::uint64_t(to),
          std::uint64_t(f.addr), std::uint64_t(f.src), std::uint64_t(f.dst),
          std::uint64_t(f.origin), std::uint64_t(f.packet), std::uint64_t(f.enqueue_cycle),
          std::uint64_t(f.inject_cycle), std::uint64_t(f.hops), std::uint64_t(f.deflections),
          std::uint64_t(f.flit_idx), std::uint64_t(f.packet_len), std::uint64_t(f.kind),
          std::uint64_t(f.vc_state), std::uint64_t(f.congested_bit)}) {
      mix(v);
    }
  }
};

class ShardedFlitTrace : public ::testing::TestWithParam<const char*> {};

TEST_P(ShardedFlitTrace, EventStreamMatchesOneTile) {
  const auto run_traced = [](const std::string& scenario, int shards) {
    WorkloadSpec wl;
    SimConfig c = scenario_config(scenario, wl);
    c.warmup_cycles = 500;
    c.measure_cycles = 1'500;
    c.shards = shards;
    Simulator sim(c, wl);
    StreamDigest digest;
    sim.attach_tracer(&digest);
    const std::string result = serialize_result(sim.run());
    return std::tuple{digest.hash, digest.events[0], digest.events[1], digest.events[2],
                      digest.events[3], result};
  };
  const std::string scenario = GetParam();
  const auto one = run_traced(scenario, 1);
  ASSERT_GT(std::get<1>(one), 0u) << "no injections traced";
  ASSERT_GT(std::get<2>(one), 0u) << "no hops traced";
  ASSERT_GT(std::get<4>(one), 0u) << "no ejections traced";
  if (scenario == "bless_4x4_hm") {
    ASSERT_GT(std::get<3>(one), 0u) << "no deflections traced";
  }
  for (const int shards : kShardCounts) {
    ASSERT_EQ(run_traced(scenario, shards), one)
        << scenario << " flit events diverge at --shards " << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(Routers, ShardedFlitTrace,
                         ::testing::Values("bless_4x4_hm", "buffered_4x4_hm"),
                         [](const auto& inf) { return std::string(inf.param); });

// Two sharded runs of the same config must agree with each other — thread
// scheduling must not leak into results even transiently.
TEST(ShardedDeterminism, RepeatedShardedRunsAreIdentical) {
  const auto run_once = [] {
    WorkloadSpec wl;
    SimConfig c = scenario_config("bless_4x4_hm", wl);
    c.shards = 4;
    return serialize_result(run_workload(c, wl));
  };
  EXPECT_EQ(run_once(), run_once());
}

// Distributed CC runs tiled like every other mode: each tile scans its own
// NIs every cycle and counts its own marked packets. The scenario must
// actually mark and throttle, or the identity below would be vacuous.
TEST(ShardedDeterminism, DistributedCcMatchesOneTileAtEveryShardCount) {
  const auto run_dist = [](int shards) {
    WorkloadSpec wl;
    SimConfig c = scenario_config("distributed_cc_8x8", wl);
    c.shards = shards;
    return run_workload(c, wl);
  };
  const SimResult one = run_dist(1);
  double throttled = 0.0;
  for (const NodeResult& nr : one.nodes) throttled += nr.mean_throttle_rate;
  ASSERT_GT(throttled, 0.0) << "no marked packet throttled any node";
  const std::string golden = serialize_result(one);
  for (const int shards : kShardCounts) {
    EXPECT_EQ(serialize_result(run_dist(shards)), golden)
        << "distributed CC diverges at --shards " << shards;
  }
}

// --- runtime shadow checker (common/shard_check.hpp) -----------------------
// Drive the bless fabric to stage a genuine cross-tile halo write in cycle
// 0, then run the *destination* tile's cycle-1 deliver, which applies it,
// while claiming (via the phase scope) to be the source tile. Under
// NOCSIM_SHARD_CHECK that apply writes a node the claimed tile does not own
// and must abort; in a release build the identical sequence runs to
// completion — the apply itself is a perfectly valid halo delivery, only
// its attribution is corrupted.
void drive_corrupted_halo_apply() {
  Mesh mesh(4, 4);
  const ShardPlan plan(4, 4, 2);  // tile 0: nodes 0-7, tile 1: nodes 8-15
  BlessFabric fabric(mesh, /*router_latency=*/1, /*link_latency=*/1);
  fabric.set_eject_sink([](NodeId, const Flit&) {});
  fabric.set_shard_plan(plan);

  // A flit at node 4 = (0,1) headed for node 12 = (0,3): its first hop
  // lands on node 8 = (0,2), which tile 1 owns, so routing tile 0 stages a
  // HaloWrite in the cycle-0 outbox from tile 0 to tile 1 instead of
  // touching tile 1's latches.
  Flit f;
  f.src = 4;
  f.dst = 12;
  fabric.shard_begin(0);
  ASSERT_TRUE(fabric.can_accept(4));
  fabric.request_inject(4, f);
  {
    NOCSIM_PHASE("route", &plan, 0);
    fabric.shard_route(0, 0);
  }
  fabric.shard_finish(0);
  fabric.shard_begin(1);
  {
    // The corruption: tile 1's inbox applied under tile 0's identity.
    NOCSIM_PHASE("deliver", &plan, 0);
    fabric.shard_deliver(1, 1);
  }
}

#if defined(NOCSIM_SHARD_CHECK)

TEST(ShardShadowChecker, OwnedAndSerialWritesPass) {
  const ShardPlan plan(4, 4, 2);
  // No phase scope: serial sections may touch any node.
  NOCSIM_SHARD_CHECK_WRITE(13, "serial write");
  {
    const shardcheck::PhaseScope scope(&plan, 0, "route");
    NOCSIM_SHARD_CHECK_WRITE(3, "owned write");  // tile 0 owns rows 0-1
    NOCSIM_SHARD_CHECK_HALO(0, 1);               // staging toward the other tile
  }
  {
    const shardcheck::PhaseScope scope(&plan, 1, "route");
    NOCSIM_SHARD_CHECK_WRITE(12, "owned write");  // tile 1 owns rows 2-3
  }
  // Scope restored on exit: serial again.
  NOCSIM_SHARD_CHECK_WRITE(0, "serial write");
}

TEST(ShardShadowCheckerDeathTest, ForeignWriteAborts) {
  const ShardPlan plan(4, 4, 2);
  EXPECT_DEATH(
      {
        const shardcheck::PhaseScope scope(&plan, 0, "route");
        NOCSIM_SHARD_CHECK_WRITE(12, "foreign write");  // tile 1's node
      },
      "shard-safety");
}

TEST(ShardShadowCheckerDeathTest, MisattributedHaloAborts) {
  const ShardPlan plan(4, 4, 2);
  EXPECT_DEATH(
      {
        const shardcheck::PhaseScope scope(&plan, 1, "route");
        NOCSIM_SHARD_CHECK_HALO(0, 1);  // claims src tile 0 while tile 1 runs
      },
      "shard-safety");
}

TEST(ShardShadowCheckerDeathTest, CorruptedHaloApplyTripsTheChecker) {
  EXPECT_DEATH(drive_corrupted_halo_apply(), "shard-safety");
}

#else  // !NOCSIM_SHARD_CHECK

TEST(ShardShadowChecker, CorruptedHaloApplyRunsToCompletionInRelease) {
  // Without the checker there is nothing to trip: the sequence is a valid
  // (if misattributed) halo apply and must finish normally.
  drive_corrupted_halo_apply();
}

#endif  // NOCSIM_SHARD_CHECK

}  // namespace
}  // namespace nocsim
