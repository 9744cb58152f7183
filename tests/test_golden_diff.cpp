// Differential golden tests for the cycle-loop hot path.
//
// The checksums below were captured from the straightforward (scan every
// router, std::deque NI queues, per-arrival event-wheel vectors)
// implementation of the per-cycle loop, *before* the active-worklist /
// flat-wheel / route-table optimization. Any optimization of the hot path
// must reproduce these three runs byte-for-byte: the optimized simulator
// is required to be a faster implementation of the same function, not a
// slightly different simulator.
//
// If a checksum mismatches, set NOCSIM_GOLDEN_DUMP=<dir> to write the full
// serialized metric text to <dir>/<case>.golden.txt and diff against a
// known-good build. Only re-pin a checksum for an *intentional* semantic
// change, never to make an optimization pass.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>

#include "golden_util.hpp"
#include "sim/experiment.hpp"

namespace nocsim {
namespace {

using testutil::fnv1a;
using testutil::serialize_result;

struct GoldenCase {
  const char* name;
  std::uint64_t checksum;
};

/// The run shape every snapshot shares (5k warmup + 20k measured cycles).
SimConfig base_config() {
  SimConfig c;
  c.warmup_cycles = 5'000;
  c.measure_cycles = 20'000;
  c.cc_params.epoch = 5'000;
  c.seed = 1;
  return c;
}

/// Golden case `name`, layered over `c`.
SimResult run_case(const std::string& name, SimConfig c = base_config()) {
  WorkloadSpec wl;
  if (name == "fig02_bless") {
    // Figure 2 (a)/(b) style: 4x4 FLIT-BLESS, balanced heavy/medium mix.
    Rng rng(17);
    wl = make_category_workload("HM", 16, rng);
  } else if (name == "buffered_baseline") {
    // The paper's buffered comparison point, same workload family.
    c.router = RouterKind::Buffered;
    c.seed = 2;
    Rng rng(48);
    wl = make_category_workload("HM", 16, rng);
  } else if (name == "throttled_hotspot") {
    // Figure 2 (c) style: network-heavy bursty mix under the verbatim
    // Algorithm 3 static gate — exercises the throttler + starvation path.
    c.cc = CcMode::Static;
    c.static_rate = 0.4;
    c.randomized_throttle_gate = false;
    c.record_epoch_ipf = true;
    c.seed = 3;
    wl.category = "bursty-H";
    const char* apps[4] = {"matlab", "art.ref.train", "mcf2", "sphinx3"};
    for (int i = 0; i < 16; ++i) wl.app_names.push_back(apps[i % 4]);
  } else if (name == "torus3d_8x8x2_bless" || name == "torus3d_8x8x2_buffered") {
    // 3D torus with dateline wrap links in all three dimensions, at a size
    // (128 routers) where the Dijkstra-built tables drive the fabric.
    c.topology = "torus3d";
    c.width = 8;
    c.height = 8;
    c.depth = 2;
    c.seed = 4;
    if (name == "torus3d_8x8x2_buffered") {
      c.router = RouterKind::Buffered;
      c.seed = 5;
    }
    Rng rng(31);
    wl = make_category_workload("HM", 128, rng);
  } else if (name == "central_cc") {
    // Algorithm 1's active path: 8x8 FLIT-BLESS under the central
    // controller with exponential L2 locality, heavy enough that epochs
    // find the network congested and throttle the low-IPF nodes.
    c.width = 8;
    c.height = 8;
    c.cc = CcMode::Central;
    c.l2_map = "exponential";
    c.seed = 6;
    Rng rng(59);
    wl = make_category_workload("HM", 64, rng);
  } else {
    ADD_FAILURE() << "unknown golden case " << name;
  }
  return run_workload(c, wl);
}

class GoldenDiff : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDiff, MetricsMatchPreOptimizationSnapshot) {
  const GoldenCase& gc = GetParam();
  const SimResult r = run_case(gc.name);
  const std::string text = serialize_result(r);
  const std::uint64_t sum = fnv1a(text);

  if (const char* dump_dir = std::getenv("NOCSIM_GOLDEN_DUMP")) {
    const std::string path = std::string(dump_dir) + "/" + gc.name + ".golden.txt";
    std::ofstream out(path);
    out << text;
  }
  EXPECT_EQ(sum, gc.checksum)
      << "golden checksum mismatch for '" << gc.name << "': actual 0x" << std::hex << sum
      << " — the hot path no longer reproduces the pre-optimization metrics. "
      << "Set NOCSIM_GOLDEN_DUMP=<dir> and diff the serialized runs.";
  if (std::string(gc.name) == "central_cc") {
    // The checksum only covers the controller if the controller acts.
    EXPECT_GT(r.congested_epoch_fraction, 0.0);
    EXPECT_TRUE(std::any_of(r.nodes.begin(), r.nodes.end(),
                            [](const NodeResult& n) { return n.mean_throttle_rate > 0.0; }));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Snapshots, GoldenDiff,
    ::testing::Values(GoldenCase{"fig02_bless", 0x624ed3e696cab0efULL},
                      GoldenCase{"buffered_baseline", 0x204aafecc685a5dbULL},
                      // Re-pinned when the deterministic throttle gate was
                      // restructured to block a contiguous leading run of
                      // each 128-attempt wrap (Algorithm 3's "first rate*128
                      // attempts") — an intentional semantic change; the
                      // whole-wrap blocked fraction is unchanged.
                      GoldenCase{"throttled_hotspot", 0x82cafa0e181d5d55ULL},
                      // Captured when the Dijkstra route-table builder and the
                      // 3D families were introduced; these pin the torus3d
                      // tables (dateline wraps in x, y and z) on both routers.
                      GoldenCase{"torus3d_8x8x2_bless", 0x2fdd6970c00a21f7ULL},
                      GoldenCase{"torus3d_8x8x2_buffered", 0x17ffa0aec453891cULL},
                      // Captured before the controller classes were folded
                      // into the simulator; pins Algorithm 1 (Eq. 1, Eq. 2,
                      // escalation) on an 8x8 mesh that really throttles.
                      GoldenCase{"central_cc", 0xe1bb0a213cf30555ULL}),
    [](const auto& inf) { return std::string(inf.param.name); });

// A congestion-control mode that never throttles must be exactly no
// congestion control: same serialized metrics as CcMode::None, bit for bit.
// (With control traffic off; the modelled control packets are real traffic.)

std::string serialized_fig02(const SimConfig& c) {
  return serialize_result(run_case("fig02_bless", c));
}

TEST(ControllerNoOp, CentralThatNeverFiresMatchesNone) {
  SimConfig c = base_config();
  c.cc = CcMode::Central;
  c.cc_params.beta_starve = 2.0;  // Eq. 1 threshold above any sigma
  c.cc_params.gamma_starve = 2.0;
  EXPECT_EQ(serialized_fig02(c), serialized_fig02(base_config()));
}

TEST(ControllerNoOp, StaticAtRateZeroMatchesNone) {
  SimConfig c = base_config();
  c.cc = CcMode::Static;
  c.static_rate = 0.0;
  EXPECT_EQ(serialized_fig02(c), serialized_fig02(base_config()));
}

TEST(ControllerNoOp, SelectiveAllZeroMatchesNone) {
  SimConfig c = base_config();
  c.cc = CcMode::Selective;
  c.selective_rates.assign(16, 0.0);
  EXPECT_EQ(serialized_fig02(c), serialized_fig02(base_config()));
}

}  // namespace
}  // namespace nocsim
