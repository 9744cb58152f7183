// EventLog + watchdog tests. The headline properties:
//
//  1. Determinism: the provenance CSV is byte-identical between the serial
//     loop and every sharded tiling — events are simulated state, so the
//     byte-identity guarantee that covers metrics and telemetry covers them
//     too (the wall-clock profile is the one deliberate exemption).
//  2. Provenance: every throttle decision in a congested run is
//     reconstructible from the event CSV alone — recomputing Eq. 2 from the
//     recorded (ipf, escalation) reproduces the recorded rate bit-exactly,
//     and replaying the event stream reproduces the per-node throttle-rate
//     timeline the TelemetryHub sampled independently.
//  3. Watchdogs observe, never perturb: enabling them changes no metric
//     byte; they fire on crossings and can hard-stop the run on request.
#include "telemetry/event_log.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/workload.hpp"

#include "golden_util.hpp"

namespace nocsim {
namespace {

using testutil::serialize_result;

// Congested central-CC scenario (the test_sharding "central_cc_8x8" shape
// minus control traffic: rates must apply at the epoch boundary so the hub
// row and the event stream describe the same instant).
SimConfig hotspot_config(WorkloadSpec& wl) {
  SimConfig c;
  c.width = 8;
  c.height = 8;
  c.warmup_cycles = 2'000;
  c.measure_cycles = 8'000;
  c.cc_params.epoch = 1'000;
  c.cc = CcMode::Central;
  c.seed = 7;
  Rng rng(21);
  wl = make_category_workload("HML", 64, rng);
  return c;
}

std::string run_events_csv(int shards) {
  WorkloadSpec wl;
  SimConfig c = hotspot_config(wl);
  c.shards = shards;
  Simulator sim(c, wl);
  EventLog log;
  sim.attach_events(&log);
  sim.run();
  std::ostringstream out;
  log.write_csv(out);
  return out.str();
}

TEST(EventLog, EmitRespectsTheCapAndCountsDrops) {
  EventLog log(EventLog::Options{3});
  for (Cycle t = 0; t < 10; ++t) {
    log.emit(SimEvent{t, SimEventKind::CcEpoch, kInvalidNode, 0, 0, 0, 0, 0});
  }
  EXPECT_EQ(log.num_events(), 3u);
  EXPECT_EQ(log.dropped_events(), 7u);
  std::ostringstream out;
  log.write_csv(out);
  EXPECT_NE(out.str().find("# dropped=7"), std::string::npos) << out.str();
}

TEST(EventLog, HotspotRunEmitsProvenanceEvents) {
  WorkloadSpec wl;
  SimConfig c = hotspot_config(wl);
  Simulator sim(c, wl);
  EventLog log;
  sim.attach_events(&log);
  sim.run();
  // The congested scenario must actually exercise the stream: onset,
  // per-epoch controller state, and at least one throttle decision.
  EXPECT_GT(log.count_of(SimEventKind::HotspotOn), 0u);
  EXPECT_GT(log.count_of(SimEventKind::CcEpoch), 0u);
  EXPECT_GT(log.count_of(SimEventKind::ThrottleOn), 0u);
  EXPECT_EQ(log.dropped_events(), 0u);
}

TEST(EventLog, CsvIsByteIdenticalAcrossShardCounts) {
  const std::string serial = run_events_csv(1);
  ASSERT_NE(serial.find("throttle_on"), std::string::npos)
      << "scenario produced no throttle decisions; the identity check would be vacuous";
  for (const int shards : {2, 4, 7}) {
    EXPECT_EQ(run_events_csv(shards), serial) << "event stream diverges at --shards " << shards;
  }
}

// Minimal CSV row splitter for the event stream (no quoting in this format).
std::vector<std::string> split_csv(const std::string& line) {
  std::vector<std::string> cells;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = line.find(',', start);
    if (comma == std::string::npos) {
      cells.push_back(line.substr(start));
      return cells;
    }
    cells.push_back(line.substr(start, comma - start));
    start = comma + 1;
  }
}

// The acceptance property: the event CSV alone reconstructs every throttle
// decision. Two independent checks per event: (a) the recorded rate equals
// Eq. 2 recomputed from the recorded ipf and escalation; (b) replaying the
// stream reproduces the per-node rate timeline the hub sampled.
TEST(EventLog, ThrottleDecisionsReconstructFromTheCsvAlone) {
  WorkloadSpec wl;
  SimConfig c = hotspot_config(wl);
  Simulator sim(c, wl);
  EventLog log;
  sim.attach_events(&log);
  TelemetryHub hub;  // independent witness, sampled at the epoch cadence
  sim.attach_telemetry(&hub);
  sim.run();

  std::ostringstream out;
  log.write_csv(out);
  std::istringstream in(out.str());

  struct ThrottleEvent {
    Cycle cycle;
    int node;
    double rate;
  };
  std::vector<ThrottleEvent> throttles;
  int checked_eq2 = 0;
  std::string line;
  ASSERT_TRUE(std::getline(in, line));  // header
  ASSERT_EQ(line, "cycle,event,node,rate,ipf,sigma,sigma_net,value");
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> f = split_csv(line);
    ASSERT_EQ(f.size(), 8u) << line;
    const std::string& kind = f[1];
    if (kind != "throttle_on" && kind != "throttle_adjust" && kind != "throttle_off") continue;
    const ThrottleEvent ev{static_cast<Cycle>(std::stoull(f[0])), std::stoi(f[2]),
                           std::stod(f[3])};
    throttles.push_back(ev);
    if (kind == "throttle_off") {
      EXPECT_EQ(ev.rate, 0.0) << line;
      continue;
    }
    // (a) Eq. 2 from the row's own inputs: rate, ipf (f[4]), escalation
    // (f[8-1]). %.17g round-trips exactly, so this must match bit-for-bit.
    const double ipf = std::stod(f[4]);
    const double esc = std::stod(f[7]);
    const double expect = std::min(c.cc_params.throttle_rate(ipf) * esc, kRateCeiling);
    EXPECT_EQ(ev.rate, expect) << line;
    ++checked_eq2;
  }
  ASSERT_GT(checked_eq2, 0) << "no throttle decisions to reconstruct";

  // (b) Replay the stream against the hub's independent samples.
  std::vector<double> rate(static_cast<std::size_t>(c.num_nodes()), 0.0);
  std::size_t next = 0;
  int checked_cells = 0;
  for (const TelemetryRow& row : hub.rows) {
    while (next < throttles.size() && throttles[next].cycle <= row.cycle) {
      rate[static_cast<std::size_t>(throttles[next].node)] = throttles[next].rate;
      ++next;
    }
    for (std::size_t i = 0; i < rate.size(); ++i) {
      EXPECT_EQ(row.routers[i].throttle_rate, rate[i]) << "node " << i << " at cycle " << row.cycle;
      ++checked_cells;
    }
  }
  EXPECT_GT(checked_cells, 0);
}

// Attaching the full observability stack must not move a single metric
// byte: the profiler reads only the wall clock, the event log reads only
// simulated state.
TEST(EventLog, InstrumentationDoesNotPerturbResults) {
  WorkloadSpec wl;
  SimConfig c = hotspot_config(wl);
  const std::string bare = serialize_result(run_workload(c, wl));

  WorkloadSpec wl2;
  SimConfig c2 = hotspot_config(wl2);
  c2.watchdog.enabled = true;
  c2.watchdog.period = 100;
  Simulator sim(c2, wl2);
  PhaseProfiler prof;
  sim.attach_profiler(&prof);
  EventLog log;
  sim.attach_events(&log);
  const std::string instrumented = serialize_result(sim.run());
  EXPECT_EQ(instrumented, bare);
}

TEST(Watchdog, FlitAgeTripsOnALoadedMeshWithATinyThreshold) {
  WorkloadSpec wl;
  SimConfig c = hotspot_config(wl);
  c.watchdog.enabled = true;
  c.watchdog.period = 8;
  c.watchdog.max_flit_age = 4;  // routine in-flight ages trip it
  Simulator sim(c, wl);
  EventLog log;
  sim.attach_events(&log);
  sim.run();
  EXPECT_GT(log.count_of(SimEventKind::WatchdogFlitAge), 0u);
  EXPECT_GE(sim.max_flit_age_watermark(), c.watchdog.max_flit_age);
}

// Between cycles a flit whose last hop crossed a tile boundary waits in a
// halo outbox until the target tile's next deliver. The oldest-flit scan
// must see it there: a scan that missed it would read a younger oldest
// flit on some checks, and with a per-cycle check near the typical age
// the edge-triggered events would then depend on the tiling.
TEST(Watchdog, WatermarkIsIdenticalAtEveryShardCount) {
  for (const RouterKind router : {RouterKind::Bless, RouterKind::Buffered}) {
    const auto run = [router](int shards) {
      WorkloadSpec wl;
      SimConfig c = hotspot_config(wl);
      c.router = router;
      c.shards = shards;
      c.warmup_cycles = 1'000;
      c.measure_cycles = 4'000;
      c.watchdog.enabled = true;
      c.watchdog.period = 1;
      c.watchdog.max_flit_age = router == RouterKind::Bless ? 40 : 60;
      Simulator sim(c, wl);
      EventLog log;
      sim.attach_events(&log);
      sim.run();
      EXPECT_GT(log.count_of(SimEventKind::WatchdogFlitAge), 1u)
          << "the threshold never toggled: the comparison below would be vacuous";
      std::ostringstream out;
      log.write_csv(out);
      return std::pair{sim.max_flit_age_watermark(), out.str()};
    };
    const auto one = run(1);
    for (const int shards : {2, 4, 7}) {
      const auto got = run(shards);
      EXPECT_EQ(got.first, one.first) << "watermark at --shards " << shards;
      EXPECT_EQ(got.second, one.second) << "watchdog events at --shards " << shards;
    }
  }
}

TEST(Watchdog, BlockedStreakTripsUnderHarshDeterministicThrottling) {
  SimConfig c;
  c.width = 4;
  c.height = 4;
  c.warmup_cycles = 1'000;
  c.measure_cycles = 8'000;
  c.cc_params.epoch = 1'000;
  c.cc = CcMode::Static;
  c.static_rate = 0.99;  // deterministic gate: ~99-cycle blocked streaks
  c.randomized_throttle_gate = false;
  c.seed = 3;
  c.watchdog.enabled = true;
  c.watchdog.period = 16;
  c.watchdog.max_blocked_streak = 50;
  WorkloadSpec wl;
  {
    Rng rng(17);
    wl = make_category_workload("HM", 16, rng);
  }
  Simulator sim(c, wl);
  EventLog log;
  sim.attach_events(&log);
  sim.run();
  EXPECT_GT(log.count_of(SimEventKind::WatchdogBlocked), 0u);
}

TEST(Watchdog, StaysSilentWithDefaultThresholds) {
  WorkloadSpec wl;
  SimConfig c = hotspot_config(wl);
  c.watchdog.enabled = true;  // default thresholds dwarf a 10k-cycle run
  Simulator sim(c, wl);
  EventLog log;
  sim.attach_events(&log);
  sim.run();
  EXPECT_EQ(log.count_of(SimEventKind::WatchdogFlitAge), 0u);
  EXPECT_EQ(log.count_of(SimEventKind::WatchdogBlocked), 0u);
}

TEST(WatchdogDeathTest, AbortStopsTheRunOnATrip) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  WorkloadSpec wl;
  SimConfig c = hotspot_config(wl);
  c.watchdog.enabled = true;
  c.watchdog.period = 8;
  c.watchdog.max_flit_age = 4;
  c.watchdog.abort = true;
  EXPECT_DEATH(
      {
        Simulator sim(c, wl);
        sim.run();
      },
      "watchdog");
}

}  // namespace
}  // namespace nocsim
