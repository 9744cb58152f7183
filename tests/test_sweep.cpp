// SweepRunner determinism and observability: the sweep's metrics must be a
// pure function of the point list (bit-identical for any --jobs value), the
// per-point seed derivation must fan out deterministically, and the RunLog
// must collect one complete, index-ordered record per run.
#include "sim/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <set>
#include <stdexcept>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "workload/workload.hpp"

namespace nocsim {
namespace {

/// SweepOptions builder (designated initializers would trip
/// -Wmissing-field-initializers now that the struct has telemetry fields).
SweepOptions sweep_opts(int jobs, bool derive_seeds, RunLog* log) {
  SweepOptions o;
  o.jobs = jobs;
  o.derive_seeds = derive_seeds;
  o.log = log;
  return o;
}

/// Small, fast 4x4 configuration (a few ms per run).
SimConfig tiny_config(std::uint64_t seed) {
  SimConfig c;
  c.width = 4;
  c.height = 4;
  c.warmup_cycles = 500;
  c.measure_cycles = 3'000;
  c.cc_params.epoch = 1'000;
  c.seed = seed;
  return c;
}

/// A 16-point sweep mixing categories, congestion control, and seeds.
std::vector<SweepPoint> tiny_points() {
  std::vector<SweepPoint> points;
  const std::vector<std::string> cats = {"H", "HM", "ML", "L"};
  for (int s = 0; s < 2; ++s) {
    for (const std::string& cat : cats) {
      Rng rng(31 + 7 * s);
      const WorkloadSpec wl = make_category_workload(cat, 16, rng);
      SimConfig c = tiny_config(s + 1);
      points.push_back({c, wl, cat + "/s" + std::to_string(s) + "/base", {}});
      SimConfig cc = c;
      cc.cc = CcMode::Central;
      points.push_back({cc, wl, cat + "/s" + std::to_string(s) + "/cc", {}});
    }
  }
  return points;
}

void expect_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_EQ(a.cycles, b.cycles);
  // Exact floating-point equality is intended: identical runs must produce
  // identical bits regardless of which worker executed them.
  EXPECT_EQ(a.avg_net_latency, b.avg_net_latency);
  EXPECT_EQ(a.avg_total_latency, b.avg_total_latency);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.avg_starvation, b.avg_starvation);
  EXPECT_EQ(a.avg_deflections, b.avg_deflections);
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    EXPECT_EQ(a.nodes[i].app, b.nodes[i].app);
    EXPECT_EQ(a.nodes[i].retired, b.nodes[i].retired);
    EXPECT_EQ(a.nodes[i].ipc, b.nodes[i].ipc);
    EXPECT_EQ(a.nodes[i].flits, b.nodes[i].flits);
    EXPECT_EQ(a.nodes[i].starvation, b.nodes[i].starvation);
  }
}

TEST(DeriveSeed, DistinctStreamsGiveDistinctSeeds) {
  const std::uint64_t base = 42;
  std::set<std::uint64_t> seen;
  for (std::uint64_t stream = 0; stream < 1'000; ++stream) {
    seen.insert(derive_seed(base, stream));
  }
  EXPECT_EQ(seen.size(), 1'000u);
}

TEST(DeriveSeed, PureFunctionOfBaseAndStream) {
  EXPECT_EQ(derive_seed(7, 3), derive_seed(7, 3));
  EXPECT_NE(derive_seed(7, 3), derive_seed(8, 3));
  EXPECT_NE(derive_seed(7, 3), derive_seed(7, 4));
  // Stream 0 must not be a fixed point of the base seed.
  EXPECT_NE(derive_seed(7, 0), 7u);
  EXPECT_NE(derive_seed(0, 0), 0u);
}

TEST(ConfigHash, SensitiveToConfigAndWorkload) {
  Rng rng(3);
  const WorkloadSpec wl = make_category_workload("HM", 16, rng);
  const SimConfig base = tiny_config(1);
  const std::uint64_t h = config_hash(base, wl);
  EXPECT_EQ(h, config_hash(base, wl));  // stable

  using Mutation = std::pair<const char*, std::function<void(SimConfig&)>>;
  // Every SimConfig value that can change a result: one edit each must
  // change the run identity.
  const std::vector<Mutation> sensitive = {
      {"width", [](SimConfig& c) { c.width = 8; }},
      {"height", [](SimConfig& c) { c.height = 8; }},
      {"depth", [](SimConfig& c) { c.depth = 2; }},
      {"topology", [](SimConfig& c) { c.topology = "torus"; }},
      {"topology_file", [](SimConfig& c) { c.topology_file = "a.topo"; }},
      {"router", [](SimConfig& c) { c.router = RouterKind::Buffered; }},
      {"adaptive_routing", [](SimConfig& c) { c.adaptive_routing = true; }},
      {"l2_map", [](SimConfig& c) { c.l2_map = "exponential"; }},
      {"locality_lambda", [](SimConfig& c) { c.locality_lambda = 0.5; }},
      {"cc", [](SimConfig& c) { c.cc = CcMode::Central; }},
      {"alpha_starve", [](SimConfig& c) { c.cc_params.alpha_starve += 0.1; }},
      {"beta_starve", [](SimConfig& c) { c.cc_params.beta_starve += 0.1; }},
      {"gamma_starve", [](SimConfig& c) { c.cc_params.gamma_starve += 0.1; }},
      {"alpha_throt", [](SimConfig& c) { c.cc_params.alpha_throt += 0.1; }},
      {"beta_throt", [](SimConfig& c) { c.cc_params.beta_throt += 0.1; }},
      {"gamma_throt", [](SimConfig& c) { c.cc_params.gamma_throt += 0.1; }},
      {"epoch", [](SimConfig& c) { c.cc_params.epoch += 1; }},
      {"escalation", [](SimConfig& c) { c.cc_params.escalation = false; }},
      {"static_rate", [](SimConfig& c) { c.static_rate = 0.5; }},
      {"selective_rates", [](SimConfig& c) { c.selective_rates.assign(16, 0.0); }},
      {"randomized_throttle_gate", [](SimConfig& c) { c.randomized_throttle_gate = false; }},
      {"model_control_traffic", [](SimConfig& c) { c.model_control_traffic = true; }},
      {"seed", [](SimConfig& c) { c.seed = 2; }},
      {"warmup_cycles", [](SimConfig& c) { c.warmup_cycles += 1; }},
      {"measure_cycles", [](SimConfig& c) { c.measure_cycles += 1; }},
      {"record_epoch_ipf", [](SimConfig& c) { c.record_epoch_ipf = true; }},
  };
  EXPECT_EQ(sensitive.size(), 26u);
  for (const auto& [name, mutate] : sensitive) {
    SimConfig c = base;
    mutate(c);
    EXPECT_NE(config_hash(c, wl), h) << name;
  }
  // Results are byte-identical at every tiling and with the watchdogs on or
  // off, so these values must not split one run identity.
  const std::vector<Mutation> insensitive = {
      {"shards", [](SimConfig& c) { c.shards = 4; }},
      {"watchdog.enabled", [](SimConfig& c) { c.watchdog.enabled = true; }},
      {"watchdog.period", [](SimConfig& c) { c.watchdog.period += 1; }},
      {"watchdog.max_flit_age", [](SimConfig& c) { c.watchdog.max_flit_age += 1; }},
      {"watchdog.max_blocked_streak", [](SimConfig& c) { c.watchdog.max_blocked_streak += 1; }},
      {"watchdog.abort", [](SimConfig& c) { c.watchdog.abort = true; }},
  };
  for (const auto& [name, mutate] : insensitive) {
    SimConfig c = base;
    mutate(c);
    EXPECT_EQ(config_hash(c, wl), h) << name;
  }

  WorkloadSpec wl2 = wl;
  wl2.app_names[5] = wl2.app_names[4];
  if (wl2.app_names[5] != wl.app_names[5]) {
    EXPECT_NE(config_hash(base, wl2), h);
  }
}

TEST(SweepRunner, MetricsBitIdenticalAcrossJobCounts) {
  const std::vector<SweepPoint> points = tiny_points();
  ASSERT_GE(points.size(), 16u);

  RunLog log1, log8;
  SweepRunner serial(sweep_opts(1, true, &log1));
  SweepRunner parallel(sweep_opts(8, true, &log8));
  const std::vector<SimResult> r1 = serial.run(points);
  const std::vector<SimResult> r8 = parallel.run(points);

  ASSERT_EQ(r1.size(), points.size());
  ASSERT_EQ(r8.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) expect_identical(r1[i], r8[i]);

  // RunRecords match field-for-field except wall_seconds.
  const std::vector<RunRecord> recs1 = log1.records();
  const std::vector<RunRecord> recs8 = log8.records();
  ASSERT_EQ(recs1.size(), points.size());
  ASSERT_EQ(recs8.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(recs1[i].index, i);
    EXPECT_EQ(recs8[i].index, i);
    EXPECT_EQ(recs1[i].label, recs8[i].label);
    EXPECT_EQ(recs1[i].config_hash, recs8[i].config_hash);
    EXPECT_EQ(recs1[i].seed, recs8[i].seed);
    EXPECT_EQ(recs1[i].cycles, recs8[i].cycles);
    EXPECT_EQ(recs1[i].system_throughput, recs8[i].system_throughput);
    EXPECT_EQ(recs1[i].avg_net_latency, recs8[i].avg_net_latency);
    EXPECT_EQ(recs1[i].utilization, recs8[i].utilization);
    EXPECT_EQ(recs1[i].deflection_rate, recs8[i].deflection_rate);
    EXPECT_EQ(recs1[i].starvation_rate, recs8[i].starvation_rate);
  }
}

TEST(SweepRunner, DeriveSeedsFansOutPerPoint) {
  // Two points sharing a base seed and workload: with derivation on, their
  // effective seeds (reported in the RunRecord) must differ and match the
  // published recipe.
  Rng rng(5);
  const WorkloadSpec wl = make_category_workload("HM", 16, rng);
  const SimConfig c = tiny_config(9);
  const std::vector<SweepPoint> points = {{c, wl, "p0", {}}, {c, wl, "p1", {}}};

  RunLog log;
  SweepRunner runner(sweep_opts(2, true, &log));
  runner.run(points);
  const std::vector<RunRecord> recs = log.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].seed, derive_seed(9, 0));
  EXPECT_EQ(recs[1].seed, derive_seed(9, 1));
  EXPECT_NE(recs[0].seed, recs[1].seed);
}

TEST(SweepRunner, SharedSeedStreamPairsArms) {
  // A paired design: base and cc arms of the same workload share a stream,
  // so both see the same derived seed.
  Rng rng(5);
  const WorkloadSpec wl = make_category_workload("HM", 16, rng);
  SimConfig base = tiny_config(9);
  SimConfig cc = base;
  cc.cc = CcMode::Central;
  const std::vector<SweepPoint> points = {{base, wl, "base", 0}, {cc, wl, "cc", 0}};

  RunLog log;
  SweepRunner runner(sweep_opts(2, true, &log));
  runner.run(points);
  const std::vector<RunRecord> recs = log.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].seed, recs[1].seed);
  EXPECT_EQ(recs[0].seed, derive_seed(9, 0));
}

TEST(SweepRunner, DeriveSeedsOffKeepsHandPinnedSeeds) {
  Rng rng(5);
  const WorkloadSpec wl = make_category_workload("L", 16, rng);
  const std::vector<SweepPoint> points = {{tiny_config(123), wl, "a", {}},
                                          {tiny_config(456), wl, "b", {}}};
  RunLog log;
  SweepRunner runner(sweep_opts(2, false, &log));
  runner.run(points);
  const std::vector<RunRecord> recs = log.records();
  ASSERT_EQ(recs.size(), 2u);
  EXPECT_EQ(recs[0].seed, 123u);
  EXPECT_EQ(recs[1].seed, 456u);
}

TEST(RunLog, RecordsSortedByIndexAndComplete) {
  RunLog log;
  for (const std::size_t i : {3u, 0u, 2u, 1u}) {
    RunRecord r;
    r.index = i;
    r.label = "r" + std::to_string(i);
    log.add(r);
  }
  const std::vector<RunRecord> recs = log.records();
  ASSERT_EQ(recs.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(recs[i].index, i);
    EXPECT_EQ(recs[i].label, "r" + std::to_string(i));
  }
}

TEST(RunLog, CsvAndJsonOutput) {
  RunLog log;
  RunRecord r;
  r.index = 0;
  r.label = "fig/\"quoted\"";
  r.config_hash = 0xdeadbeefULL;
  r.seed = 7;
  r.cycles = 1000;
  r.system_throughput = 3.5;
  log.add(r);

  std::ostringstream csv;
  log.write_csv(csv);
  const std::string csv_text = csv.str();
  EXPECT_NE(csv_text.find("index,label,config_hash,seed,cycles,system_throughput"),
            std::string::npos);
  EXPECT_NE(csv_text.find("00000000deadbeef"), std::string::npos);

  std::ostringstream json;
  log.write_json(json);
  const std::string json_text = json.str();
  EXPECT_EQ(json_text.front(), '[');
  EXPECT_NE(json_text.find("\\\"quoted\\\""), std::string::npos);
  EXPECT_NE(json_text.find("\"seed\": 7"), std::string::npos);
}

TEST(SweepRunner, RunIndexedFillsSlotsAndLogs) {
  RunLog log;
  SweepRunner runner(sweep_opts(4, true, &log));
  std::vector<int> slots(20, -1);
  runner.run_indexed(slots.size(), [&](std::size_t i) {
    slots[i] = static_cast<int>(i * i);
    RunRecord rec;
    rec.label = "pt" + std::to_string(i);
    rec.system_throughput = static_cast<double>(i);
    return rec;
  });
  for (std::size_t i = 0; i < slots.size(); ++i) {
    EXPECT_EQ(slots[i], static_cast<int>(i * i));
  }
  const std::vector<RunRecord> recs = log.records();
  ASSERT_EQ(recs.size(), slots.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(recs[i].index, i);
    EXPECT_EQ(recs[i].label, "pt" + std::to_string(i));
    EXPECT_EQ(recs[i].system_throughput, static_cast<double>(i));
  }
}

TEST(SweepRunner, RunIndexedRethrowsAfterJoiningWorkers) {
  for (const int jobs : {1, 4}) {
    SweepRunner runner(sweep_opts(jobs, true, nullptr));
    std::atomic<int> finished{0};
    EXPECT_THROW(runner.run_indexed(40,
                                    [&](std::size_t i) {
                                      if (i == 7) throw std::runtime_error("point 7");
                                      ++finished;
                                      return RunRecord{};
                                    }),
                 std::runtime_error);
    // One worker hands out no index after the throw.
    if (jobs == 1) {
      EXPECT_EQ(finished.load(), 7);
    }
  }
}

}  // namespace
}  // namespace nocsim
