// Telemetry layer tests: the time-series row semantics (counter deltas),
// the CSV round-trip through common/csv.hpp, pinned CSV digests, the
// Chrome trace exporter, and — the headline property — that a telemetry
// run's per-epoch sigma/IPF/throttle columns reproduce the central
// controller's Algorithm 1 decisions bit-exactly when recomputed from the
// parsed file.
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "golden_util.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flit_trace.hpp"
#include "workload/workload.hpp"

namespace nocsim {
namespace {

// ---------------------------------------------------------------------------
// Simulator integration.

SimConfig telemetry_config() {
  SimConfig c;
  c.width = 4;
  c.height = 4;
  c.cc = CcMode::Central;
  c.cc_params.epoch = 5'000;
  // Exact Eq. 1 / Eq. 2 reproduction: the escalation extension carries
  // state across epochs, which a single CSV row cannot recompute.
  c.cc_params.escalation = false;
  c.warmup_cycles = 10'000;  // a multiple of the epoch, so samples align
                             // with the measurement boundary
  c.measure_cycles = 40'000;
  c.seed = 1;
  return c;
}

struct HubRun {
  SimResult result;
  TelemetryHub hub;
  CsvTable table;
};

/// `c` on `wl` with a hub of `period` (0: the controller epoch) attached.
HubRun run_with_hub(const SimConfig& c, Cycle period = 0,
                    const WorkloadSpec& wl = make_homogeneous_workload("mcf", 16)) {
  Simulator sim(c, wl);
  HubRun out;
  out.hub.sample_period = period;
  sim.attach_telemetry(&out.hub);
  out.result = sim.run();
  std::stringstream ss;
  out.hub.write_csv(ss);
  out.table = CsvReader::read(ss);
  return out;
}

/// Column `n<i>.<field>` of a time-series CSV.
std::size_t node_column(const CsvTable& table, int i, const char* field) {
  // Built with += to dodge a GCC 12 -Wrestrict misfire on chained
  // literal + to_string concatenation at -O3.
  std::string name = "n";
  name += std::to_string(i);
  name += '.';
  name += field;
  return table.column(name);
}

// ---------------------------------------------------------------------------
// Row semantics and the CSV format.

// Counters are deltas over the interval since the previous sample: a row at
// twice the period holds the sum of the two rows it spans, while gauges
// read the same instant.
TEST(TelemetryHub, CounterColumnsHoldPerIntervalDeltas) {
  const SimConfig c = telemetry_config();
  const HubRun fine = run_with_hub(c, c.cc_params.epoch);
  const HubRun coarse = run_with_hub(c, 2 * c.cc_params.epoch);
  ASSERT_EQ(fine.hub.rows.size(), 2 * coarse.hub.rows.size());
  std::uint64_t injections = 0;
  for (std::size_t r = 0; r < coarse.hub.rows.size(); ++r) {
    const TelemetryRow& a = fine.hub.rows[2 * r];
    const TelemetryRow& b = fine.hub.rows[2 * r + 1];
    const TelemetryRow& ab = coarse.hub.rows[r];
    EXPECT_EQ(ab.cycle, b.cycle);
    EXPECT_EQ(ab.congested, b.congested);
    EXPECT_EQ(ab.throttled, b.throttled);
    EXPECT_EQ(ab.in_flight, b.in_flight);
    EXPECT_DOUBLE_EQ(ab.link_utilization, (a.link_utilization + b.link_utilization) / 2);
    for (std::size_t i = 0; i < ab.routers.size(); ++i) {
      EXPECT_EQ(ab.routers[i].sigma, b.routers[i].sigma);
      EXPECT_EQ(ab.routers[i].ipf, b.routers[i].ipf);
      EXPECT_EQ(ab.routers[i].throttle_rate, b.routers[i].throttle_rate);
      EXPECT_EQ(ab.routers[i].injections, a.routers[i].injections + b.routers[i].injections);
      EXPECT_EQ(ab.routers[i].deflections, a.routers[i].deflections + b.routers[i].deflections);
      EXPECT_EQ(ab.routers[i].blocked, a.routers[i].blocked + b.routers[i].blocked);
      EXPECT_EQ(ab.routers[i].retired, a.routers[i].retired + b.routers[i].retired);
      injections += ab.routers[i].injections;
    }
  }
  EXPECT_GT(injections, 0u);
}

TEST(TelemetryHub, GaugeCellsRoundTripDoublesExactly) {
  const std::vector<double> values = {1.0 / 3.0, 0.1, 6.02214076e23, 1e-300, 0.0, -1.5};
  TelemetryHub hub(1);
  hub.has_core = {true};
  for (std::size_t i = 0; i < values.size(); ++i) {
    TelemetryRow& row = hub.rows.emplace_back();
    row.cycle = i;
    row.link_utilization = values[i];
    row.routers.resize(1);
    row.routers[0].sigma = values[i];
    row.routers[0].throttle_rate = values[values.size() - 1 - i];
  }
  std::stringstream ss;
  hub.write_csv(ss);
  const CsvTable table = CsvReader::read(ss);
  ASSERT_EQ(table.rows.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto& row = table.rows[i];
    EXPECT_EQ(std::stod(row[table.column("fabric.link_utilization")]), values[i]);
    EXPECT_EQ(std::stod(row[table.column("n0.sigma")]), values[i]);
    EXPECT_EQ(std::stod(row[table.column("n0.throttle_rate")]), values[values.size() - 1 - i]);
  }
}

TEST(TelemetryHub, CsvRoundTripsThroughCsvReader) {
  TelemetryHub hub(100);
  hub.has_core = {false, true};  // router 0 has no core: no n0.retired
  TelemetryRow row;
  row.cycle = 99;
  row.congested = true;
  row.throttled = {0, 1};
  row.link_utilization = 0.25;
  row.in_flight = 6;
  row.routers.resize(2);
  row.routers[1].ipf = 12.5;
  row.routers[1].injections = 4;
  row.routers[1].retired = 40;
  hub.rows.push_back(row);
  row.cycle = 199;
  row.congested = false;
  row.throttled.clear();
  hub.rows.push_back(row);

  std::stringstream ss;
  hub.write_csv(ss);
  const CsvTable table = CsvReader::read(ss);
  ASSERT_EQ(table.comments.size(), 2u);
  EXPECT_EQ(table.comments[0], "nocsim telemetry time-series; sample period = 100 cycles");
  const std::vector<std::string> header = {
      "cycle", "cc.congested", "cc.throttled_nodes", "fabric.link_utilization",
      "fabric.in_flight", "n0.sigma", "n0.sigma_net", "n0.ipf", "n0.throttle_rate",
      "n0.injections", "n0.deflections", "n0.blocked", "n1.sigma", "n1.sigma_net", "n1.ipf",
      "n1.throttle_rate", "n1.injections", "n1.deflections", "n1.blocked", "n1.retired"};
  EXPECT_EQ(table.header, header);
  ASSERT_EQ(table.rows.size(), 2u);
  for (const auto& cells : table.rows) EXPECT_EQ(cells.size(), header.size());
  const auto& r0 = table.rows[0];
  EXPECT_EQ(r0[table.column("cycle")], "99");
  EXPECT_EQ(r0[table.column("cc.congested")], "1");
  EXPECT_EQ(r0[table.column("cc.throttled_nodes")], "0;1");
  EXPECT_EQ(r0[table.column("fabric.link_utilization")], "0.25");
  EXPECT_EQ(r0[table.column("fabric.in_flight")], "6");
  EXPECT_EQ(r0[table.column("n1.ipf")], "12.5");
  EXPECT_EQ(r0[table.column("n1.injections")], "4");
  EXPECT_EQ(r0[table.column("n1.retired")], "40");
  const auto& r1 = table.rows[1];
  EXPECT_EQ(r1[table.column("cc.congested")], "0");
  EXPECT_EQ(r1[table.column("cc.throttled_nodes")], "");
}

// The time-series bytes of two runs, pinned: any change to a column, its
// order, its formatting or a counter's delta moves a digest. The second run has
// one core and 15 idle routers, which have no `retired` column.
TEST(SimulatorTelemetry, CsvMatchesPinnedDigests) {
  const auto digest = [](const SimConfig& c, const WorkloadSpec& wl) {
    Simulator sim(c, wl);
    TelemetryHub hub;
    sim.attach_telemetry(&hub);
    sim.run();
    std::stringstream ss;
    hub.write_csv(ss);
    return testutil::fnv1a(ss.str());
  };
  EXPECT_EQ(digest(telemetry_config(), make_homogeneous_workload("mcf", 16)),
            0xdb0e1da19e63b3b3ULL);
  WorkloadSpec one_core;
  one_core.category = "mcf";
  one_core.app_names.assign(16, "");
  one_core.app_names[5] = "mcf";
  EXPECT_EQ(digest(telemetry_config(), one_core), 0xb89e45aec182a59cULL);
}

TEST(SimulatorTelemetry, EpochColumnsReproduceAlgorithm1Decisions) {
  const SimConfig c = telemetry_config();
  const HubRun run = run_with_hub(c);
  EXPECT_EQ(run.hub.sample_period, c.cc_params.epoch);
  ASSERT_EQ(run.table.rows.size(),
            (c.warmup_cycles + c.measure_cycles) / c.cc_params.epoch);

  const int n = c.num_nodes();
  std::vector<std::size_t> sigma_col(n), ipf_col(n), rate_col(n);
  for (int i = 0; i < n; ++i) {
    sigma_col[i] = node_column(run.table, i, "sigma");
    ipf_col[i] = node_column(run.table, i, "ipf");
    rate_col[i] = node_column(run.table, i, "throttle_rate");
    ASSERT_LT(rate_col[i], run.table.header.size()) << "missing columns for node " << i;
  }
  const std::size_t congested_col = run.table.column("cc.congested");
  const std::size_t throttled_col = run.table.column("cc.throttled_nodes");
  ASSERT_LT(congested_col, run.table.header.size());
  ASSERT_LT(throttled_col, run.table.header.size());

  int congested_rows = 0;
  int throttled_cells = 0;
  for (const auto& row : run.table.rows) {
    std::vector<double> sigma(n), ipf(n);
    for (int i = 0; i < n; ++i) {
      sigma[i] = std::stod(row[sigma_col[i]]);
      ipf[i] = std::stod(row[ipf_col[i]]);
    }
    // Algorithm 1, recomputed from the parsed cells. %.17g formatting makes
    // the parsed doubles bit-identical to what the controller consumed, and
    // the mean uses the controller's summation order (node index order), so
    // every comparison below is exact, not approximate.
    bool congested = false;
    for (int i = 0; i < n; ++i) {
      if (sigma[i] > c.cc_params.starve_threshold(ipf[i])) {
        congested = true;
        break;
      }
    }
    double mean_ipf = 0.0;
    std::size_t finite = 0;
    for (int i = 0; i < n; ++i) {
      if (ipf[i] < kIpfCap) {
        mean_ipf += ipf[i];
        ++finite;
      }
    }
    mean_ipf = finite ? mean_ipf / static_cast<double>(finite) : -1.0;

    EXPECT_EQ(std::stod(row[congested_col]), congested ? 1.0 : 0.0);
    std::string expect_throttled;
    for (int i = 0; i < n; ++i) {
      double expect_rate = 0.0;
      if (congested && ipf[i] < mean_ipf) {
        expect_rate = std::min(c.cc_params.throttle_rate(ipf[i]), kRateCeiling);
        expect_throttled += (expect_throttled.empty() ? "" : ";") + std::to_string(i);
        ++throttled_cells;
      }
      EXPECT_EQ(std::stod(row[rate_col[i]]), expect_rate) << "node " << i;
    }
    EXPECT_EQ(row[throttled_col], expect_throttled);
    congested_rows += congested ? 1 : 0;
  }
  // The heavy workload must actually exercise the mechanism, or this test
  // proves nothing.
  EXPECT_GT(congested_rows, 0);
  EXPECT_GT(throttled_cells, 0);
}

TEST(SimulatorTelemetry, CongestedEpochFractionMatchesHubRows) {
  const SimConfig c = telemetry_config();
  const HubRun run = run_with_hub(c);
  int measured = 0;
  int congested = 0;
  for (const TelemetryRow& row : run.hub.rows) {
    if (row.cycle < c.warmup_cycles) continue;  // warmup epoch
    ++measured;
    congested += row.congested ? 1 : 0;
  }
  ASSERT_EQ(measured, static_cast<int>(c.measure_cycles / c.cc_params.epoch));
  EXPECT_DOUBLE_EQ(run.result.congested_epoch_fraction,
                   static_cast<double>(congested) / static_cast<double>(measured));
}

TEST(SimulatorTelemetry, InjectionCounterDeltasSumToFabricInjections) {
  const SimConfig c = telemetry_config();
  const HubRun run = run_with_hub(c);
  std::uint64_t measured_injections = 0;
  for (const TelemetryRow& row : run.hub.rows) {
    if (row.cycle < c.warmup_cycles) continue;
    for (const RouterSample& s : row.routers) measured_injections += s.injections;
  }
  // Warmup is a whole number of epochs, so the measurement-window rows'
  // deltas cover exactly the cycles the (reset) fabric counter covers.
  EXPECT_EQ(measured_injections, run.result.fabric.flits_injected);
}

TEST(SimulatorTelemetry, TimeSeriesIsDeterministicForFixedSeed) {
  const SimConfig c = telemetry_config();
  std::string csv[2];
  for (auto& out : csv) {
    Simulator sim(c, make_homogeneous_workload("mcf", 16));
    TelemetryHub hub;
    sim.attach_telemetry(&hub);
    sim.run();
    std::stringstream ss;
    hub.write_csv(ss);
    out = ss.str();
  }
  EXPECT_EQ(csv[0], csv[1]);
}

// ---------------------------------------------------------------------------
// Flit tracer.

TEST(ChromeTracer, TraceIsStructurallyValidJsonAndHonoursSampling) {
  SimConfig c = telemetry_config();
  c.warmup_cycles = 2'000;
  c.measure_cycles = 8'000;
  Simulator sim(c, make_homogeneous_workload("mcf", 16));
  ChromeTracer::Options opts;
  opts.sample_every = 4;
  ChromeTracer tracer(opts);
  sim.attach_tracer(&tracer);
  sim.run();
  ASSERT_GT(tracer.num_events(), 0u);
  EXPECT_EQ(tracer.dropped_events(), 0u);

  std::stringstream ss;
  tracer.write_json(ss);
  const std::string json = ss.str();
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inject\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"eject\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);

  // 1-in-4 packet sampling: every recorded packet id is divisible by 4.
  std::size_t pos = 0;
  int checked = 0;
  const std::string key = "\"packet\": ";
  while ((pos = json.find(key, pos)) != std::string::npos) {
    pos += key.size();
    EXPECT_EQ(std::stoull(json.substr(pos, 24)) % 4, 0u);
    ++checked;
  }
  EXPECT_EQ(static_cast<std::size_t>(checked), tracer.num_events());
}

TEST(ChromeTracer, TraceIsDeterministicForFixedSeed) {
  SimConfig c = telemetry_config();
  c.warmup_cycles = 2'000;
  c.measure_cycles = 6'000;
  std::string json[2];
  for (auto& out : json) {
    Simulator sim(c, make_homogeneous_workload("mcf", 16));
    ChromeTracer::Options opts;
    opts.sample_every = 8;
    ChromeTracer tracer(opts);
    sim.attach_tracer(&tracer);
    sim.run();
    std::stringstream ss;
    tracer.write_json(ss);
    out = ss.str();
  }
  EXPECT_EQ(json[0], json[1]);
}

TEST(ChromeTracer, EventCapDropsInsteadOfGrowing) {
  SimConfig c = telemetry_config();
  c.warmup_cycles = 2'000;
  c.measure_cycles = 6'000;
  Simulator sim(c, make_homogeneous_workload("mcf", 16));
  ChromeTracer::Options opts;
  opts.sample_every = 1;
  opts.max_events = 100;
  ChromeTracer tracer(opts);
  sim.attach_tracer(&tracer);
  sim.run();
  EXPECT_EQ(tracer.num_events(), 100u);
  EXPECT_GT(tracer.dropped_events(), 0u);
  std::stringstream ss;
  tracer.write_json(ss);  // still valid output with the cap hit
  EXPECT_NE(ss.str().find("\"dropped_events\": "), std::string::npos);
}

// The tracer.dropped metadata record makes truncation visible inside the
// trace itself (not just in otherData, which some viewers hide): present on
// every trace, args carry the live drop count and the configured cap.
TEST(ChromeTracer, DroppedMetadataRecordReportsTruncation) {
  SimConfig c = telemetry_config();
  c.warmup_cycles = 2'000;
  c.measure_cycles = 6'000;
  const auto trace_with_cap = [&](std::size_t cap) {
    Simulator sim(c, make_homogeneous_workload("mcf", 16));
    ChromeTracer::Options opts;
    opts.sample_every = 1;
    opts.max_events = cap;
    ChromeTracer tracer(opts);
    sim.attach_tracer(&tracer);
    sim.run();
    std::stringstream ss;
    tracer.write_json(ss);
    return std::make_pair(ss.str(), tracer.dropped_events());
  };

  const auto [clean, clean_drops] = trace_with_cap(std::size_t{1} << 20);
  EXPECT_EQ(clean_drops, 0u);
  EXPECT_NE(clean.find("{\"name\": \"tracer.dropped\", \"ph\": \"M\", \"pid\": 0, "
                       "\"args\": {\"dropped_events\": 0, \"max_events\": 1048576}}"),
            std::string::npos)
      << "tracer.dropped metadata must appear even when nothing was dropped";

  const auto [capped, capped_drops] = trace_with_cap(50);
  ASSERT_GT(capped_drops, 0u);
  EXPECT_NE(capped.find("\"args\": {\"dropped_events\": " + std::to_string(capped_drops) +
                        ", \"max_events\": 50}}"),
            std::string::npos)
      << "tracer.dropped metadata must carry the live drop count";
}

}  // namespace
}  // namespace nocsim
