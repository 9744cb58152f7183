// TelemetryHub: a registry of typed instruments sampled on a fixed cadence
// into a columnar time-series.
//
// Components register instruments once (cheap std::function closures over
// their own state); the hub then samples every instrument at each sample
// boundary — by default the congestion controller's epoch, so each row shows
// exactly the per-node (sigma, IPF, throttle rate) values Algorithm 1
// consumed, alongside fabric gauges and the controller's decisions. Rows are
// formatted at sample time (%.17g for gauges, so doubles round-trip exactly
// through the CSV) and exported with CsvWriter to `<stem>.timeseries.csv`.
//
// Cost model: a simulator with no hub attached pays one null-pointer test
// per cycle; a hub attached with period P pays one closure call per
// instrument every P cycles and nothing in between. No hot-path allocation:
// sampling appends to pre-reserved vectors (amortised), never per-flit.
//
// Instrument types:
//   gauge   — double read at sample time (sigma, throttle rate, utilization)
//   counter — monotone uint64; the hub emits per-interval *deltas*
//             (injections, deflections, retired instructions)
//   text    — free-form cell, must not contain ','/newlines (the
//             throttled-node set, ';'-joined)
#pragma once

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace nocsim {

class TelemetryHub {
 public:
  using GaugeFn = std::function<double()>;
  using CounterFn = std::function<std::uint64_t()>;
  using TextFn = std::function<std::string()>;

  struct Options {
    /// Cycles between samples. 0 = let the owning component choose (the
    /// Simulator substitutes its controller epoch on attach).
    Cycle sample_period = 0;
  };

  TelemetryHub() = default;
  explicit TelemetryHub(Options opts) : period_(opts.sample_period) {}

  TelemetryHub(const TelemetryHub&) = delete;
  TelemetryHub& operator=(const TelemetryHub&) = delete;

  [[nodiscard]] Cycle sample_period() const { return period_; }

  /// Called by the component that owns the cadence (Simulator) when the hub
  /// was constructed with sample_period == 0.
  void default_sample_period(Cycle period) {
    if (period_ == 0) period_ = period;
  }

  // -- Registration (before the first sample) -------------------------------

  void add_gauge(std::string name, GaugeFn fn);
  void add_counter(std::string name, CounterFn fn);
  void add_text(std::string name, TextFn fn);

  // -- Sampling -------------------------------------------------------------

  /// Read every instrument and append one row stamped `now`.
  void sample(Cycle now);

  /// Drop recorded rows (instruments stay registered). Counter baselines are
  /// kept, so the first post-clear delta spans only the interval since the
  /// last sample — used at the warmup/measurement boundary.
  void clear_rows();

  [[nodiscard]] std::size_t num_rows() const { return cycles_.size(); }
  [[nodiscard]] Cycle row_cycle(std::size_t r) const { return cycles_.at(r); }

  /// Cell (r, instrument named `name`) as recorded; CHECK-fails on an
  /// unknown name. For tests; bulk consumers should use write_csv.
  [[nodiscard]] const std::string& cell(std::size_t r, const std::string& name) const;

  // -- Export ---------------------------------------------------------------

  /// `# comment` lines, then `cycle,<instrument...>` header, then one row
  /// per sample. Parses back with CsvReader (common/csv.hpp).
  void write_csv(std::ostream& out) const;

  /// Convenience: write_csv to `path`. Returns false if the file cannot be
  /// opened.
  bool write_csv_file(const std::string& path) const;

 private:
  enum class Kind : std::uint8_t { Gauge, Counter, Text };

  struct Instrument {
    std::string name;
    Kind kind;
    GaugeFn gauge;
    CounterFn counter;
    TextFn text;
    std::uint64_t last = 0;  ///< counter baseline for delta emission
  };

  std::size_t index_of(const std::string& name) const;

  Cycle period_ = 0;
  std::vector<Instrument> instruments_;
  std::vector<Cycle> cycles_;                  ///< row timestamps
  std::vector<std::vector<std::string>> rows_; ///< [row][instrument], formatted
};

}  // namespace nocsim
