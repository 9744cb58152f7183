// Integration tests of the full closed loop: cores + caches + NIs + fabric
// + controller.
#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

namespace nocsim {
namespace {

SimConfig small_config() {
  SimConfig c;
  c.width = 4;
  c.height = 4;
  c.warmup_cycles = 5'000;
  c.measure_cycles = 40'000;
  c.cc_params.epoch = 10'000;  // scaled with the shorter runs
  c.seed = 1;
  return c;
}

TEST(Simulator, HeavyWorkloadMakesForwardProgress) {
  const auto wl = make_homogeneous_workload("mcf", 16);
  const SimResult r = run_workload(small_config(), wl);
  for (const NodeResult& n : r.nodes) {
    EXPECT_GT(n.retired, 0u) << n.app;
    EXPECT_GT(n.flits, 0u) << n.app;
  }
  EXPECT_GT(r.utilization, 0.05);
  EXPECT_GT(r.avg_net_latency, 0.0);
}

TEST(Simulator, LightWorkloadBarelyTouchesNetwork) {
  const auto wl = make_homogeneous_workload("povray", 16);
  const SimResult r = run_workload(small_config(), wl);
  EXPECT_LT(r.utilization, 0.05);
  EXPECT_LT(r.avg_starvation, 0.02);
  // A CPU-bound app should run near the issue-width-limited IPC.
  EXPECT_GT(r.ipc_per_node(), 1.5);
}

TEST(Simulator, SelfThrottlingPreventsFullSaturation) {
  // Paper §3.1 key insight: even unthrottled, the network never fully
  // saturates and there is no congestion collapse, because stalled
  // instruction windows bound outstanding requests.
  const auto wl = make_homogeneous_workload("mcf", 16);
  const SimResult r = run_workload(small_config(), wl);
  EXPECT_LT(r.utilization, 0.99);
  EXPECT_GT(r.ipc_per_node(), 0.05) << "throughput collapsed under self-generated load";
}

TEST(Simulator, IdleNodesAllowed) {
  WorkloadSpec wl;
  wl.category = "sparse";
  wl.app_names.assign(16, "");
  wl.app_names[0] = "mcf";
  wl.app_names[15] = "gromacs";
  const SimResult r = run_workload(small_config(), wl);
  EXPECT_GT(r.nodes[0].retired, 0u);
  EXPECT_GT(r.nodes[15].retired, 0u);
  EXPECT_EQ(r.nodes[3].retired, 0u);
}

TEST(Simulator, DeterministicAcrossRuns) {
  const auto wl = make_checkerboard_workload("mcf", "gromacs", 4, 4);
  const SimResult a = run_workload(small_config(), wl);
  const SimResult b = run_workload(small_config(), wl);
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].retired, b.nodes[i].retired);
    EXPECT_EQ(a.nodes[i].flits, b.nodes[i].flits);
  }
  EXPECT_EQ(a.fabric.flit_hops, b.fabric.flit_hops);
}

TEST(Simulator, SeedChangesOutcome) {
  const auto wl = make_homogeneous_workload("mcf2", 16);
  SimConfig c = small_config();
  const SimResult a = run_workload(c, wl);
  c.seed = 2;
  const SimResult b = run_workload(c, wl);
  EXPECT_NE(a.nodes[0].retired, b.nodes[0].retired);
}

TEST(Simulator, MeasuredIpfTracksCatalogClass) {
  // The synthetic substitution must land each app in its Table 1 intensity
  // class (H < 2, M in [2,100], L > 100) when run without contention.
  SimConfig c = small_config();
  c.measure_cycles = 60'000;
  for (const char* name : {"mcf", "gromacs", "povray", "lbm", "bzip2", "gcc"}) {
    WorkloadSpec wl;
    wl.category = name;
    wl.app_names.assign(16, "");
    wl.app_names[5] = name;  // interior node, alone in the network
    const SimResult r = run_workload(c, wl);
    const double ipf = r.nodes[5].ipf;
    const AppProfile& p = app_by_name(name);
    switch (p.cls) {
      case IntensityClass::Heavy:
        EXPECT_LT(ipf, 3.0) << name;
        break;
      case IntensityClass::Medium:
        EXPECT_GE(ipf, 1.5) << name;
        EXPECT_LE(ipf, 150.0) << name;
        break;
      case IntensityClass::Light:
        EXPECT_GT(ipf, 70.0) << name;
        break;
    }
  }
}

TEST(Simulator, BufferedFabricRunsClosedLoop) {
  SimConfig c = small_config();
  c.router = RouterKind::Buffered;
  const auto wl = make_homogeneous_workload("mcf", 16);
  const SimResult r = run_workload(c, wl);
  for (const NodeResult& n : r.nodes) EXPECT_GT(n.retired, 0u);
  EXPECT_GT(r.fabric.buffer_writes, 0u);
  EXPECT_EQ(r.avg_deflections, 0.0);  // buffered routers never deflect
}

TEST(Simulator, TorusRunsClosedLoop) {
  SimConfig c = small_config();
  c.topology = "torus";
  const auto wl = make_homogeneous_workload("mcf", 16);
  const SimResult r = run_workload(c, wl);
  for (const NodeResult& n : r.nodes) EXPECT_GT(n.retired, 0u);
}

TEST(Simulator, CentralControlThrottlesHeavyNodesOnly) {
  // mcf (IPF ~1, below mean) should be throttled; povray (IPF ~2e4, above
  // mean) must not be. Time-averaged rates over the measurement window.
  SimConfig c = small_config();
  c.cc = CcMode::Central;
  const auto wl = make_checkerboard_workload("mcf", "povray", 4, 4);
  const SimResult r = run_workload(c, wl);
  double mcf_rate = 0.0, povray_rate = 0.0;
  for (const NodeResult& n : r.nodes) {
    (n.app == "mcf" ? mcf_rate : povray_rate) += n.mean_throttle_rate / 8.0;
  }
  EXPECT_GT(mcf_rate, 0.10) << "heavy app barely throttled";
  EXPECT_LT(povray_rate, 0.05) << "light app should not be throttled";
}

TEST(Simulator, StaticThrottleReducesUtilization) {
  const auto wl = make_homogeneous_workload("mcf", 16);
  SimConfig c = small_config();
  const SimResult base = run_workload(c, wl);
  c.cc = CcMode::Static;
  c.static_rate = 0.8;
  const SimResult throttled = run_workload(c, wl);
  EXPECT_LT(throttled.utilization, base.utilization);
}

TEST(Simulator, ResponsesNeverThrottled) {
  // With an extreme static throttle, forward progress continues (responses
  // and L2 service are unthrottled; only request injection is gated).
  SimConfig c = small_config();
  c.cc = CcMode::Static;
  c.static_rate = 0.95;
  const auto wl = make_homogeneous_workload("mcf", 16);
  const SimResult r = run_workload(c, wl);
  for (const NodeResult& n : r.nodes) EXPECT_GT(n.retired, 0u);
}

TEST(Simulator, ControlTrafficModeDeliversRates) {
  SimConfig c = small_config();
  c.cc = CcMode::Central;
  c.model_control_traffic = true;
  const auto wl = make_checkerboard_workload("mcf", "povray", 4, 4);
  const SimResult r = run_workload(c, wl);
  int throttled = 0;
  for (const NodeResult& n : r.nodes) {
    if (n.app == "mcf" && n.mean_throttle_rate > 0.05) ++throttled;
  }
  EXPECT_GE(throttled, 6) << "rate-setting control packets were not delivered";
}

TEST(Simulator, DistributedModeSelfThrottlesUnderCongestion) {
  SimConfig c = small_config();
  c.cc = CcMode::Distributed;
  const auto wl = make_homogeneous_workload("mcf", 16);
  Simulator sim(c, wl);
  sim.run_cycles(60'000);
  double total_rate = 0.0;
  for (NodeId n = 0; n < 16; ++n) total_rate += sim.throttle_rate(n);
  EXPECT_GT(total_rate, 0.0) << "congested-bit feedback never triggered";
}

TEST(Simulator, LatencyHistogramsMatchFabricAccumulators) {
  const auto wl = make_homogeneous_workload("mcf", 16);
  const SimResult r = run_workload(small_config(), wl);
  // Every delivered flit lands in both distributions.
  EXPECT_EQ(r.latency.net.total(), r.fabric.net_latency.count());
  EXPECT_EQ(r.latency.total.total(), r.fabric.total_latency.count());
  ASSERT_GT(r.latency.net.total(), 0u);
  // Exact extremes agree with the streaming accumulator's.
  EXPECT_DOUBLE_EQ(r.latency.net.min(), r.fabric.net_latency.min());
  EXPECT_DOUBLE_EQ(r.latency.net.max(), r.fabric.net_latency.max());
  // Percentiles are ordered and bracket the mean's neighbourhood.
  EXPECT_LE(r.latency.net.p50(), r.latency.net.p95());
  EXPECT_LE(r.latency.net.p95(), r.latency.net.p99());
  EXPECT_LE(r.latency.net.p99(), r.latency.net.max());
  // A homogeneous mcf (Heavy) workload puts every classed flit in Heavy;
  // only Control flits (none here: central CC off) escape classing.
  std::uint64_t classed = 0;
  for (const auto& c : r.latency_by_class) classed += c.net.total();
  EXPECT_EQ(classed, r.latency.net.total());
  EXPECT_EQ(r.latency_by_class[0].net.total(), r.latency.net.total());
}

TEST(Simulator, LocalityMappingShortensHops) {
  // Closed-loop check of the locality substrate: with the exponential
  // mapper at lambda=1, delivered flits travel far fewer minimal hops than
  // under XOR interleaving.
  SimConfig c = small_config();
  const auto wl = make_homogeneous_workload("gromacs", 16);  // low contention
  const SimResult xor_map = run_workload(c, wl);
  c.l2_map = "exponential";
  const SimResult local = run_workload(c, wl);
  EXPECT_LT(local.avg_hops, xor_map.avg_hops - 0.5);
}

TEST(Simulator, ThrottleRateIntegralZeroWithoutCc) {
  const auto wl = make_homogeneous_workload("mcf", 16);
  const SimResult r = run_workload(small_config(), wl);
  for (const NodeResult& n : r.nodes) EXPECT_EQ(n.mean_throttle_rate, 0.0);
}

TEST(Simulator, EpochIpfRecordingMatchesAggregate) {
  SimConfig c = small_config();
  c.record_epoch_ipf = true;
  WorkloadSpec wl;
  wl.category = "one";
  wl.app_names.assign(16, "");
  wl.app_names[5] = "mcf";
  const SimResult r = run_workload(c, wl);
  ASSERT_FALSE(r.nodes[5].epoch_ipf.empty());
  // Every recorded epoch IPF should be in the same regime as the aggregate.
  for (const double ipf : r.nodes[5].epoch_ipf) {
    EXPECT_GT(ipf, r.nodes[5].ipf * 0.2);
    EXPECT_LT(ipf, r.nodes[5].ipf * 5.0);
  }
}

TEST(Simulator, ThrottledHomeNodeStillServesItsL2Slice) {
  // A node whose own requests are 95%-throttled still forwards responses
  // for blocks it homes — other nodes' progress must not collapse.
  SimConfig c = small_config();
  const auto wl = make_homogeneous_workload("mcf", 16);
  const SimResult base = run_workload(c, wl);
  SimConfig s = c;
  s.cc = CcMode::Selective;
  s.selective_rates.assign(16, 0.0);
  s.selective_rates[5] = 0.95;
  const SimResult r = run_workload(s, wl);
  double others_base = 0, others = 0;
  for (int i = 0; i < 16; ++i) {
    if (i == 5) continue;
    others_base += base.nodes[i].ipc;
    others += r.nodes[i].ipc;
  }
  EXPECT_GT(others, others_base * 0.9) << "victims of an unrelated node's throttle";
}

TEST(Simulator, RejectsMalformedConfig) {
  WorkloadSpec wl = make_homogeneous_workload("mcf", 16);
  {
    SimConfig c;
    c.l2_map = "nonsense";
    EXPECT_DEATH(Simulator(c, wl), "unknown L2 mapping");
  }
  {
    SimConfig c;
    WorkloadSpec short_wl = wl;
    short_wl.app_names.pop_back();
    EXPECT_DEATH(Simulator(c, short_wl), "one app per core");
  }
}

TEST(Simulator, FileTraceWorkloadEntry) {
  // "file:<path>" workload entries replay a trace through a core.
  const std::string path = ::testing::TempDir() + "/nocsim_sim_trace.txt";
  {
    std::ofstream out(path);
    // A loop of 20 non-memory insns then 4 memory accesses to a small set.
    out << "20\nm 100\nm 2000\nm 40000\nm 800000\n";
  }
  SimConfig c = small_config();
  WorkloadSpec wl;
  wl.category = "replay";
  wl.app_names.assign(16, "");
  wl.app_names[3] = "file:" + path;
  wl.app_names[7] = "mcf";  // mixing file and catalog entries works
  const SimResult r = run_workload(c, wl);
  EXPECT_GT(r.nodes[3].retired, 0u);
  EXPECT_GT(r.nodes[7].retired, 0u);
  std::remove(path.c_str());
}

TEST(Simulator, WeightedSpeedupBounds) {
  const auto wl = make_checkerboard_workload("mcf", "gromacs", 4, 4);
  SimConfig c = small_config();
  AloneIpcCache alone(c);
  SweepRunner runner;
  alone.prime({wl}, runner);
  const std::vector<double> alone_ipc = alone.get(wl);
  const SimResult shared = run_workload(c, wl);
  const double ws = weighted_speedup(shared, alone_ipc);
  EXPECT_GT(ws, 0.0);
  EXPECT_LE(ws, 16.5);  // N plus small measurement noise
}

}  // namespace
}  // namespace nocsim
