// Telemetry layer tests: TelemetryHub instrument semantics, the CSV
// round-trip through common/csv.hpp, the Chrome trace exporter, and — the
// headline property — that a telemetry run's per-epoch sigma/IPF/throttle
// columns reproduce the central controller's Algorithm 1 decisions
// bit-exactly when recomputed from the parsed file.
#include "telemetry/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "common/csv.hpp"
#include "sim/simulator.hpp"
#include "telemetry/flit_trace.hpp"
#include "workload/workload.hpp"

namespace nocsim {
namespace {

// ---------------------------------------------------------------------------
// Hub unit tests.

TEST(TelemetryHub, CounterInstrumentsEmitPerIntervalDeltas) {
  std::uint64_t v = 5;  // non-zero at registration: baseline, not reported
  TelemetryHub hub(TelemetryHub::Options{10});
  hub.add_counter("c", [&] { return v; });
  v = 12;
  hub.sample(9);
  hub.sample(19);  // unchanged: delta 0
  v = 45;
  hub.sample(29);
  ASSERT_EQ(hub.num_rows(), 3u);
  EXPECT_EQ(hub.cell(0, "c"), "7");
  EXPECT_EQ(hub.cell(1, "c"), "0");
  EXPECT_EQ(hub.cell(2, "c"), "33");
}

TEST(TelemetryHub, GaugeCellsRoundTripDoublesExactly) {
  const std::vector<double> values = {1.0 / 3.0, 0.1, 6.02214076e23, 1e-300, 0.0};
  double g = 0.0;
  TelemetryHub hub(TelemetryHub::Options{1});
  hub.add_gauge("g", [&] { return g; });
  for (std::size_t i = 0; i < values.size(); ++i) {
    g = values[i];
    hub.sample(i);
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::stod(hub.cell(i, "g")), values[i]) << hub.cell(i, "g");
  }
}

TEST(TelemetryHub, CsvRoundTripsThroughCsvReader) {
  TelemetryHub hub(TelemetryHub::Options{100});
  double g = 0.25;
  std::uint64_t c = 0;
  std::string t = "3;7";
  hub.add_gauge("g", [&] { return g; });
  hub.add_counter("c", [&] { return c; });
  hub.add_text("set", [&] { return t; });
  c = 4;
  hub.sample(99);
  g = -1.5;
  t = "";
  hub.sample(199);

  std::stringstream ss;
  hub.write_csv(ss);
  const CsvTable table = CsvReader::read(ss);
  ASSERT_EQ(table.header.size(), 4u);
  EXPECT_EQ(table.header[0], "cycle");
  ASSERT_EQ(table.rows.size(), 2u);
  for (const auto& row : table.rows) EXPECT_EQ(row.size(), table.header.size());
  EXPECT_EQ(table.rows[0][table.column("cycle")], "99");
  EXPECT_EQ(std::stod(table.rows[0][table.column("g")]), 0.25);
  EXPECT_EQ(table.rows[0][table.column("c")], "4");
  EXPECT_EQ(table.rows[0][table.column("set")], "3;7");
  EXPECT_EQ(std::stod(table.rows[1][table.column("g")]), -1.5);
  EXPECT_EQ(table.rows[1][table.column("set")], "");
  EXPECT_FALSE(table.comments.empty());
}

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
  CsvTable table;
  Cycle period = 0;
};

HubRun run_with_hub(const SimConfig& c) {
  Simulator sim(c, make_homogeneous_workload("mcf", 16));
  TelemetryHub hub;  // no period: adopts the controller epoch
  sim.attach_telemetry(&hub);
  HubRun out;
  out.result = sim.run();
  out.period = hub.sample_period();
  std::stringstream ss;
  hub.write_csv(ss);
  out.table = CsvReader::read(ss);
  return out;
}

TEST(SimulatorTelemetry, EpochColumnsReproduceAlgorithm1Decisions) {
  const SimConfig c = telemetry_config();
  const HubRun run = run_with_hub(c);
  EXPECT_EQ(run.period, c.cc_params.epoch);
  ASSERT_EQ(run.table.rows.size(),
            (c.warmup_cycles + c.measure_cycles) / c.cc_params.epoch);

  const int n = c.num_nodes();
  std::vector<std::size_t> sigma_col(n), ipf_col(n), rate_col(n);
  for (int i = 0; i < n; ++i) {
    // Built with += to dodge a GCC 12 -Wrestrict misfire on chained
    // literal + to_string concatenation at -O3.
    std::string p = "n";
    p += std::to_string(i);
    p += '.';
    sigma_col[i] = run.table.column(p + "sigma");
    ipf_col[i] = run.table.column(p + "ipf");
    rate_col[i] = run.table.column(p + "throttle_rate");
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
  const std::size_t congested_col = run.table.column("cc.congested");
  const std::size_t cycle_col = run.table.column("cycle");
  int measured = 0;
  int congested = 0;
  for (const auto& row : run.table.rows) {
    if (std::stoull(row[cycle_col]) < c.warmup_cycles) continue;  // warmup epoch
    ++measured;
    congested += (row[congested_col] == "1") ? 1 : 0;
  }
  ASSERT_EQ(measured, static_cast<int>(c.measure_cycles / c.cc_params.epoch));
  EXPECT_DOUBLE_EQ(run.result.congested_epoch_fraction,
                   static_cast<double>(congested) / static_cast<double>(measured));
}

TEST(SimulatorTelemetry, InjectionCounterDeltasSumToFabricInjections) {
  const SimConfig c = telemetry_config();
  const HubRun run = run_with_hub(c);
  const std::size_t cycle_col = run.table.column("cycle");
  std::uint64_t measured_injections = 0;
  for (const auto& row : run.table.rows) {
    if (std::stoull(row[cycle_col]) < c.warmup_cycles) continue;
    for (int i = 0; i < c.num_nodes(); ++i) {
      std::string name = "n";
      name += std::to_string(i);
      name += ".injections";
      measured_injections += std::stoull(row[run.table.column(name)]);
    }
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
