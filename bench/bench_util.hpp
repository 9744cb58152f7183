// Shared scaffolding for the figure/table reproduction binaries.
//
// Conventions: every bench prints '#' comment lines (what the figure shows,
// the paper's qualitative claim, and the run parameters) followed by a CSV
// header and data rows on stdout. Default parameters are scaled down from
// the paper's 10M-cycle runs so the whole bench suite completes in minutes;
// flags restore paper scale.
#pragma once

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>

#include "common/csv.hpp"
#include "common/flags.hpp"
#include "sim/experiment.hpp"
#include "sim/sweep.hpp"

namespace nocsim::bench {

/// Parse the value of `--trace-flits[=N]`: the flag parser stores a bare
/// `--trace-flits` as "true" (trace every packet); "0"/"false"/"" disable;
/// anything else is the packet sampling divisor N.
inline std::uint32_t parse_trace_every(const std::string& v) {
  if (v == "true") return 1;
  if (v.empty() || v == "0" || v == "false") return 0;
  return static_cast<std::uint32_t>(std::stoul(v));
}

/// Per-bench sweep plumbing: registers the standard --jobs, --run-log,
/// --derive-seeds and telemetry (--timeseries, --timeseries-period,
/// --trace-flits) flags, owns the RunLog, and hands out a SweepRunner bound
/// to it. Construct before flags.finish(); call flush() after the figure's
/// CSV has been emitted to write <stem>.runs.{csv,json} next to it.
///
/// The figure benches default --derive-seeds off: their seeds are
/// hand-pinned per point (EXPERIMENTS.md's numbers are reproduced from
/// them), so the sweep output is byte-identical to the historical serial
/// drivers for every --jobs value. Passing --derive-seeds fans the seeds
/// out per point instead (see sim/sweep.hpp).
class SweepContext {
 public:
  explicit SweepContext(Flags& flags) {
    SweepOptions options;
    options.jobs = get_jobs(flags);
    options.derive_seeds = flags.get_bool(
        "derive-seeds", false, "mix each point's sweep position into its seed");
    stem_ = flags.get_string(
        "run-log", flags.program_name(),
        "path stem for per-run records (<stem>.runs.csv/.json; \"\" disables)");
    const bool timeseries = flags.get_bool(
        "timeseries", false, "write per-run telemetry to <stem>.run<i>.timeseries.csv");
    options.telemetry_period = flags.get_cycles(
        "timeseries-period", 0, 0, "telemetry sample period, cycles (0 = controller epoch)");
    options.trace_flits = parse_trace_every(flags.get_string(
        "trace-flits", "0",
        "trace 1-in-N packets to <stem>.run<i>.trace.json (bare flag: every packet)"));
    options.profile = flags.get_bool(
        "profile", false, "write per-run phase profiles to <stem>.run<i>.profile.json");
    options.events = flags.get_bool(
        "events", false, "write per-run provenance events to <stem>.run<i>.events.csv");
    if (timeseries || options.trace_flits > 0 || options.profile || options.events) {
      if (stem_.empty()) {
        std::cerr << "nocsim: --timeseries/--trace-flits/--profile/--events need a "
                     "--run-log stem; telemetry disabled\n";
        options.trace_flits = 0;
        options.profile = false;
        options.events = false;
      } else {
        options.telemetry_stem = stem_;
      }
    }
    options.log = &log_;
    runner_ = SweepRunner(options);
  }

  [[nodiscard]] SweepRunner& runner() { return runner_; }
  [[nodiscard]] RunLog& log() { return log_; }

  /// Write the per-run record files (no-op when --run-log="").
  void flush() {
    if (!stem_.empty()) log_.write_files(stem_);
  }

 private:
  RunLog log_;
  SweepRunner runner_;
  std::string stem_;
};

/// Scaled-down Table 2 configuration shared by the small-NoC benches.
/// The controller epoch shrinks with the run length so the mechanism still
/// updates ~8+ times per measurement (the paper: 100 updates per 10M-cycle
/// run).
inline SimConfig small_noc_config(Cycle measure = 150'000, std::uint64_t seed = 1) {
  SimConfig c;
  c.width = 4;
  c.height = 4;
  c.warmup_cycles = 25'000;
  c.measure_cycles = measure;
  c.cc_params.epoch = std::max<Cycle>(5'000, measure / 8);
  c.seed = seed;
  return c;
}

/// Configuration for the large-scale locality studies (§3.2, §6.3):
/// exponential data mapping, cycle counts shrinking with network size so a
/// 64x64 run stays tractable.
inline SimConfig scaling_config(int side, Cycle measure, std::uint64_t seed = 1) {
  SimConfig c;
  c.width = side;
  c.height = side;
  c.l2_map = "exponential";
  c.locality_lambda = 1.0;
  c.warmup_cycles = measure / 5;
  c.measure_cycles = measure;
  c.cc_params.epoch = std::max<Cycle>(5'000, measure / 8);
  c.seed = seed;
  return c;
}

/// Default measured-cycle budget for an NxN mesh: large networks cost
/// ~O(N^2) per cycle, so the cycle count shrinks superlinearly with side to
/// keep any single run under ~20 s. Floor of 12k cycles preserves at least
/// a couple of controller epochs per measurement.
inline Cycle scaled_measure(int side, Cycle base_at_4x4) {
  const double factor = std::pow(side / 4.0, 1.6);
  return std::max<Cycle>(12'000, static_cast<Cycle>(static_cast<double>(base_at_4x4) / factor));
}

/// Mean of a metric across a workload sweep helper.
struct GainStats {
  double min = 1e300, max = -1e300, sum = 0;
  int n = 0;
  void add(double x) {
    min = std::min(min, x);
    max = std::max(max, x);
    sum += x;
    ++n;
  }
  [[nodiscard]] double avg() const { return n ? sum / n : 0.0; }
};

}  // namespace nocsim::bench
