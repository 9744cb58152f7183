#include "telemetry/telemetry.hpp"

#include <fstream>
#include <iterator>

#include "common/check.hpp"
#include "common/csv.hpp"

namespace nocsim {

void TelemetryHub::write_csv(std::ostream& out) const {
  out << "# nocsim telemetry time-series; sample period = " << sample_period << " cycles\n"
      << "# gauges: value at sample instant; counters: delta over the interval\n"
      << "cycle,cc.congested,cc.throttled_nodes,fabric.link_utilization,fabric.in_flight";
  // RouterSample's fields in column order; `retired` is last, and only
  // routers with a core have it.
  static constexpr const char* kRouterColumns[] = {
      "sigma", "sigma_net", "ipf", "throttle_rate", "injections", "deflections", "blocked",
      "retired"};
  for (std::size_t i = 0; i < has_core.size(); ++i) {
    const std::size_t columns = std::size(kRouterColumns) - (has_core[i] ? 0U : 1U);
    for (std::size_t k = 0; k < columns; ++k) {
      out << ",n" << i << '.' << kRouterColumns[k];
    }
  }
  out << '\n';
  for (const TelemetryRow& row : rows) {
    NOCSIM_CHECK(row.routers.size() == has_core.size());
    out << row.cycle << ',' << (row.congested ? 1 : 0) << ',';
    for (std::size_t k = 0; k < row.throttled.size(); ++k) {
      out << (k ? ";" : "") << row.throttled[k];
    }
    out << ',' << format_exact(row.link_utilization) << ',' << row.in_flight;
    for (std::size_t i = 0; i < has_core.size(); ++i) {
      const RouterSample& s = row.routers[i];
      out << ',' << format_exact(s.sigma) << ',' << format_exact(s.sigma_net) << ','
          << format_exact(s.ipf) << ',' << format_exact(s.throttle_rate) << ',' << s.injections
          << ',' << s.deflections << ',' << s.blocked;
      if (has_core[i]) out << ',' << s.retired;
    }
    out << '\n';
  }
}

bool TelemetryHub::write_csv_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_csv(out);
  return static_cast<bool>(out);
}

}  // namespace nocsim
