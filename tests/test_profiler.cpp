// PhaseProfiler tests: the cost contract of the disabled path (zero
// allocation, pointer-test only), aggregation semantics of the (phase x
// tile) slots, the PhaseProfile JSON shape, barrier-wait attribution
// through the ShardTeam probe, and the merged Chrome trace.
//
// What is deliberately NOT tested: any actual timing value. The profile is
// wall-clock data — machine-dependent by design (see DESIGN.md) — so the
// assertions here pin structure and counts, never nanoseconds.
#include "telemetry/profiler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/flit_trace.hpp"
#include "workload/workload.hpp"

// Counting global operator new: lets the disabled-path test assert "zero
// allocations" directly instead of inferring it from timing.
namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return ::operator new(n); }
// Not inlined: GCC 12 would otherwise see free() applied to the result of
// operator new at the inlined call sites and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nocsim {
namespace {

TEST(ProfBeginEnd, DisabledPathAllocatesNothing) {
  PhaseProfiler prof;
  const int phase = prof.register_phase("route");
  prof.set_tiles(1);
  ASSERT_FALSE(prof.enabled());  // never enabled: the compiled-in-but-off path

  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 10'000; ++i) {
    prof_end(nullptr, phase, 0, prof_begin(nullptr));
    prof_end(&prof, phase, 0, prof_begin(&prof));
  }
  EXPECT_EQ(g_news.load(std::memory_order_relaxed), before)
      << "a timed phase on the disabled path must not allocate";
  EXPECT_EQ(prof.stat(phase, 0).count, 0u) << "disabled profiler must record nothing";
}

TEST(ProfBeginEnd, EnabledPathRecordsIntoTheRightSlot) {
  PhaseProfiler prof;
  const int route = prof.register_phase("route");
  const int core = prof.register_phase("core");
  prof.set_tiles(2);
  prof.enable();

  for (int i = 0; i < 5; ++i) {
    const std::uint64_t t0 = prof_begin(&prof);
    prof_end(&prof, route, 1, t0);
  }
  prof_end(&prof, core, 0, prof_begin(&prof));

  EXPECT_EQ(prof.stat(route, 1).count, 5u);
  EXPECT_EQ(prof.stat(route, 0).count, 0u);
  EXPECT_EQ(prof.stat(core, 0).count, 1u);
  EXPECT_EQ(prof.stat(core, 1).count, 0u);
  const PhaseProfiler::PhaseStat& s = prof.stat(route, 1);
  EXPECT_GE(s.max_ns, s.min_ns);
  EXPECT_GE(s.total_ns, s.max_ns);
}

TEST(PhaseProfiler, RecordAggregatesCountTotalMinMax) {
  PhaseProfiler prof;
  const int p = prof.register_phase("deliver");
  prof.set_tiles(1);
  prof.enable();
  prof.record(p, 0, 30);
  prof.record(p, 0, 10);
  prof.record(p, 0, 20);
  prof.record_wait(p, 0, 7);
  prof.record_wait(p, 0, 5);
  const PhaseProfiler::PhaseStat& s = prof.stat(p, 0);
  EXPECT_EQ(s.count, 3u);
  EXPECT_EQ(s.total_ns, 60u);
  EXPECT_EQ(s.min_ns, 10u);
  EXPECT_EQ(s.max_ns, 30u);
  EXPECT_EQ(s.wait_ns, 12u);
}

TEST(PhaseProfiler, TickSnapshotsPerPhaseDeltas) {
  PhaseProfiler prof;
  const int a = prof.register_phase("a");
  const int b = prof.register_phase("b");
  prof.set_tiles(2);
  prof.enable();
  prof.record(a, 0, 100);
  prof.record(a, 1, 50);
  prof.record_wait(b, 0, 25);
  prof.tick(1'000);
  prof.record(a, 0, 10);
  prof.tick(2'000);

  ASSERT_EQ(prof.samples().size(), 2u);
  const PhaseProfiler::Sample& s0 = prof.samples()[0];
  EXPECT_EQ(s0.cycle, 1'000u);
  ASSERT_EQ(s0.compute_ns.size(), 2u);
  EXPECT_EQ(s0.compute_ns[static_cast<std::size_t>(a)], 150u);  // tiles summed
  EXPECT_EQ(s0.wait_ns[static_cast<std::size_t>(b)], 25u);
  const PhaseProfiler::Sample& s1 = prof.samples()[1];
  EXPECT_EQ(s1.compute_ns[static_cast<std::size_t>(a)], 10u);  // delta, not total
  EXPECT_EQ(s1.wait_ns[static_cast<std::size_t>(b)], 0u);
}

// The JSON golden shape the CI smoke job validates: tool/kind tags, one
// entry per phase carrying aggregate + per-tile breakdown.
TEST(PhaseProfiler, JsonHasTheGoldenShape) {
  PhaseProfiler prof;
  prof.register_phase("begin");
  const int route = prof.register_phase("route");
  prof.set_tiles(2);
  prof.enable();
  prof.record(route, 0, 42);
  prof.record(route, 1, 17);

  std::stringstream ss;
  prof.write_json(ss);
  const std::string json = ss.str();
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"tool\": \"nocsim\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\": \"phase_profile\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"tiles\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"begin\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"name\": \"route\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"per_tile\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"wait_ns\""), std::string::npos) << json;
  // Zero-count phases must report min_ns 0, not the ~0 sentinel.
  EXPECT_EQ(json.find("18446744073709551615"), std::string::npos) << json;
}

SimConfig profiled_config() {
  SimConfig c;
  c.width = 4;
  c.height = 4;
  c.warmup_cycles = 2'000;
  c.measure_cycles = 6'000;
  c.cc_params.epoch = 1'000;
  c.seed = 1;
  return c;
}

TEST(PhaseProfiler, SerialSimulatorRunFillsSerialPhases) {
  SimConfig c = profiled_config();
  WorkloadSpec wl;
  {
    Rng rng(17);
    wl = make_category_workload("HM", 16, rng);
  }
  Simulator sim(c, wl);
  PhaseProfiler prof;
  sim.attach_profiler(&prof);
  sim.run();

  ASSERT_EQ(prof.tiles(), 1);
  const auto& names = prof.phase_names();
  const auto id_of = [&](const std::string& n) {
    return static_cast<int>(std::find(names.begin(), names.end(), n) - names.begin());
  };
  const Cycle total = c.warmup_cycles + c.measure_cycles;
  for (const char* name : {"begin", "inject", "route", "core", "epilogue"}) {
    EXPECT_EQ(prof.stat(id_of(name), 0).count, total) << name;
  }
  EXPECT_EQ(prof.num_phases(), 5) << "one phase per tile step, plus the epilogue";
  // tick() ran at epoch cadence plus the collect() flush.
  EXPECT_GE(prof.samples().size(), total / c.cc_params.epoch);
}

TEST(PhaseProfiler, ShardedRunRecordsPerTileComputeAndBarrierWait) {
  SimConfig c = profiled_config();
  c.shards = 2;
  WorkloadSpec wl;
  {
    Rng rng(17);
    wl = make_category_workload("HM", 16, rng);
  }
  Simulator sim(c, wl);
  PhaseProfiler prof;
  sim.attach_profiler(&prof);
  sim.run();

  ASSERT_EQ(prof.tiles(), 2);
  const auto& names = prof.phase_names();
  const auto id_of = [&](const std::string& n) {
    return static_cast<int>(std::find(names.begin(), names.end(), n) - names.begin());
  };
  const Cycle total = c.warmup_cycles + c.measure_cycles;
  for (const char* name : {"begin", "inject", "route", "core"}) {
    EXPECT_EQ(prof.stat(id_of(name), 0).count, total) << name << " tile 0";
    EXPECT_EQ(prof.stat(id_of(name), 1).count, total) << name << " tile 1";
  }
  // The serial epilogue is recorded once per cycle, on tile 0.
  EXPECT_EQ(prof.stat(id_of("epilogue"), 0).count, total);
  EXPECT_EQ(prof.stat(id_of("epilogue"), 1).count, 0u);
  // The cycle's one barrier follows core, the last tile step: every wait
  // the ShardTeam probe measured lands there. Across 8'000 cycles x 2
  // tiles, that total cannot round to zero.
  std::uint64_t core_wait = 0;
  for (int t = 0; t < prof.tiles(); ++t) core_wait += prof.stat(id_of("core"), t).wait_ns;
  EXPECT_GT(core_wait, 0u);
  for (int p = 0; p < prof.num_phases(); ++p) {
    if (p == id_of("core")) continue;
    for (int t = 0; t < prof.tiles(); ++t) {
      EXPECT_EQ(prof.stat(p, t).wait_ns, 0u) << prof.phase_names()[static_cast<std::size_t>(p)];
    }
  }
}

// perfbench/nocsim_perf.cpp looks these five phases up by name (std::find)
// and reads tile 0; a renamed or dropped phase would index past the end.
// Every tile count must register them and record into them.
TEST(PhaseProfiler, PerfbenchPhasesRecordAtOneAndFourTiles) {
  for (const int shards : {1, 4}) {
    SimConfig c = profiled_config();
    c.shards = shards;
    WorkloadSpec wl;
    {
      Rng rng(17);
      wl = make_category_workload("HM", 16, rng);
    }
    Simulator sim(c, wl);
    PhaseProfiler prof;
    sim.attach_profiler(&prof);
    sim.run_cycles(500);
    ASSERT_EQ(prof.tiles(), shards);
    const auto& names = prof.phase_names();
    for (const char* name : {"begin", "inject", "route", "core", "epilogue"}) {
      const auto it = std::find(names.begin(), names.end(), name);
      ASSERT_NE(it, names.end()) << name << " not registered at --shards " << shards;
      EXPECT_GT(prof.stat(static_cast<int>(it - names.begin()), 0).count, 0u)
          << name << " recorded nothing at --shards " << shards;
    }
  }
}

// Profiler + event tracks merge into one ChromeTracer JSON: flit lanes,
// host-profiler lanes (pid 1), provenance instants, and the tracer.dropped
// metadata all in a single structurally-valid traceEvents array.
TEST(PhaseProfiler, MergedChromeTraceCarriesAllThreeLayers) {
  SimConfig c = profiled_config();
  c.cc = CcMode::Central;
  WorkloadSpec wl;
  {
    Rng rng(17);
    wl = make_category_workload("HM", 16, rng);
  }
  Simulator sim(c, wl);
  ChromeTracer::Options topts;
  topts.sample_every = 8;
  ChromeTracer tracer(topts);
  sim.attach_tracer(&tracer);
  PhaseProfiler prof;
  sim.attach_profiler(&prof);
  EventLog events;
  sim.attach_events(&events);
  sim.run();

  std::stringstream ss;
  tracer.write_json(ss, &prof, &events);
  const std::string json = ss.str();
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"tracer.dropped\""), std::string::npos);
  EXPECT_NE(json.find("nocsim host profiler"), std::string::npos);
  EXPECT_NE(json.find("\"prof.route\""), std::string::npos);
  if (events.num_events() > 0) {
    EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  }
}

}  // namespace
}  // namespace nocsim
