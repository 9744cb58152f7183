// TelemetryHub: the time series of one simulation, one typed row per
// sample.
//
// Simulator::sample_telemetry fills a row at each sample boundary — by
// default the congestion controller's epoch, right after the controller
// ran, so each row holds exactly the per-router (sigma, IPF) values
// Algorithm 1 consumed and the throttle rates and congested verdict it
// produced, alongside fabric gauges. Values stay typed until write_csv
// formats them (%.17g for doubles, so they round-trip exactly through the
// CSV) for `<stem>.timeseries.csv`.
//
// Cost model: a simulator with no hub attached pays one null-pointer test
// per cycle; a hub with period P costs one row every P cycles and nothing
// in between.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nocsim {

/// One router's values in a sample. Gauges are read at the sample instant;
/// counters are deltas over the interval since the previous sample.
struct RouterSample {
  double sigma = 0.0;          ///< gauge: starvation rate the controller read
  double sigma_net = 0.0;      ///< gauge: network-caused starvation rate
  double ipf = 0.0;            ///< gauge: instructions per flit
  double throttle_rate = 0.0;  ///< gauge: the NI throttler's current rate
  std::uint64_t injections = 0;   ///< counter: flits injected
  std::uint64_t deflections = 0;  ///< counter: deflections at this router
  std::uint64_t blocked = 0;      ///< counter: injections the throttler refused
  std::uint64_t retired = 0;      ///< counter: instructions, all cores behind the NI
};

struct TelemetryRow {
  Cycle cycle = 0;                ///< the last cycle of the interval
  bool congested = false;         ///< the controller's last verdict
  std::vector<NodeId> throttled;  ///< routers with a staged rate > 0, ascending
  double link_utilization = 0.0;  ///< mean fraction of links busy over the interval
  std::uint64_t in_flight = 0;    ///< flits in the fabric
  std::vector<RouterSample> routers;
};

struct TelemetryHub {
  /// Period 0 adopts the controller epoch when attached to a Simulator.
  explicit TelemetryHub(Cycle period = 0) : sample_period(period) {}

  Cycle sample_period;
  /// Per router: whether it has a core, and so a `retired` column.
  std::vector<bool> has_core;
  std::vector<TelemetryRow> rows;

  /// `# comment` lines, the `cycle,cc.congested,...` header, then one line
  /// per row. Parses back with CsvReader (common/csv.hpp).
  void write_csv(std::ostream& out) const;

  /// write_csv to `path`; false if the file cannot be written.
  bool write_csv_file(const std::string& path) const;
};

}  // namespace nocsim
