// Parallel sweep execution with per-run structured records.
//
// Every bench driver reproduces a figure by running dozens of fully
// independent (config, workload) simulation points. SweepRunner fans those
// points out over --jobs worker threads: each point runs a private
// Simulator and writes into its own pre-allocated result slot, so there is
// no shared mutable state between runs and the sweep's metrics are a pure
// function of the point list — bit-identical for any --jobs value or thread
// schedule. Per-point seeds can be derived deterministically from the base
// seed and the point's position (seed fan-out without hand-numbering).
//
// Observability: a thread-safe RunLog collects one structured record per
// completed run (label, config hash, seed, cycles, throughput, latency,
// deflection/starvation rates, wall time) and writes machine-readable
// CSV and JSON files next to the figure's stdout output.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "workload/workload.hpp"

namespace nocsim {

class TelemetryHub;

/// Mix a point's position into the experiment's base seed (splitmix64-style
/// avalanche). Pure function of (base, stream): the derived seed is
/// independent of thread count and schedule, and distinct streams sharing a
/// base seed get distinct derived seeds.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream);

/// Order-sensitive 64-bit digest of every behaviour-relevant SimConfig
/// field plus the workload's application assignment — the identity of a run
/// in per-run records.
std::uint64_t config_hash(const SimConfig& config, const WorkloadSpec& workload);

/// One structured record per completed simulation run.
struct RunRecord {
  /// Run number: the point's position in its sweep plus the first index
  /// the log reserved for that sweep (RunLog::reserve).
  std::size_t index = 0;
  std::string label;           ///< caller-supplied tag ("fig7/4x4/HM/s0/cc")
  std::uint64_t config_hash = 0;
  std::uint64_t seed = 0;      ///< the seed the run actually used
  Cycle cycles = 0;            ///< measured cycles simulated
  double system_throughput = 0.0;  ///< sum of per-node IPC
  double avg_net_latency = 0.0;    ///< inject -> eject cycles
  double utilization = 0.0;
  double deflection_rate = 0.0;    ///< deflections per delivered flit
  double starvation_rate = 0.0;    ///< mean Algorithm 2 sigma
  double wall_seconds = 0.0;       ///< the one field that is not deterministic
};

/// Thread-safe collector of RunRecords. Records arrive in completion order
/// from the workers; readers always see them sorted by index, so file
/// output is deterministic apart from the wall_seconds column.
class RunLog {
 public:
  /// Reserve `n` consecutive run indices and return the first. Every sweep
  /// on one log takes its own block in submission order, so the records
  /// and `<stem>.run<i>.*` files of two sweeps never share an index.
  std::size_t reserve(std::size_t n);

  void add(RunRecord record);

  /// Snapshot, sorted by index.
  [[nodiscard]] std::vector<RunRecord> records() const;

  void write_csv(std::ostream& out) const;
  void write_json(std::ostream& out) const;

  /// Write `<stem>.runs.csv` and `<stem>.runs.json`. Returns false (with a
  /// warning on stderr) if either file cannot be written.
  bool write_files(const std::string& stem) const;

 private:
  mutable std::mutex mu_;
  std::vector<RunRecord> records_;
  std::size_t next_index_ = 0;
};

/// One simulation point of a sweep.
struct SweepPoint {
  SimConfig config;
  WorkloadSpec workload;
  std::string label;  ///< free-form tag carried into the RunRecord
  /// Stream mixed into config.seed when the runner derives seeds; defaults
  /// to the point's position. Paired designs (baseline vs throttled run of
  /// the same workload) share a stream so both arms see the same seed.
  std::optional<std::uint64_t> seed_stream;
  /// Optional caller-owned telemetry hub attached to this point's
  /// simulator, read by the caller after run() returns; with
  /// SweepOptions::telemetry_stem set the runner also writes it like its
  /// own hubs. Must outlive the sweep.
  TelemetryHub* hub = nullptr;
};

struct SweepOptions {
  int jobs = 1;              ///< worker threads (see get_jobs())
  /// Replace each point's seed with derive_seed(seed, stream): automatic
  /// per-point seed fan-out. The figure benches keep their hand-pinned
  /// seeds (--derive-seeds opts in); programmatic sweeps default to it.
  bool derive_seeds = true;
  RunLog* log = nullptr;     ///< optional per-run record sink

  // Telemetry (see src/telemetry/). When telemetry_stem is non-empty, every
  // run writes `<stem>.run<i>.timeseries.csv` from its point.hub, or from a
  // runner-owned hub if it has none. Output is deterministic for a fixed
  // (config, seed) at any --jobs: each run's telemetry is private to its
  // simulator and files are keyed by run index (RunRecord::index).
  std::string telemetry_stem;
  /// Sample period for runner-owned hubs; 0 = each run's controller epoch.
  Cycle telemetry_period = 0;
  /// When > 0, attach a flit tracer sampling 1-in-N packets to every run
  /// and write `<stem>.run<i>.trace.json` (requires telemetry_stem).
  std::uint32_t trace_flits = 0;
  /// Attach a PhaseProfiler to every run and write
  /// `<stem>.run<i>.profile.json` (requires telemetry_stem). The profile
  /// reports host wall time, so — alone among sweep outputs — its bytes are
  /// not deterministic; it never feeds back into simulated state.
  bool profile = false;
  /// Attach an EventLog to every run and write `<stem>.run<i>.events.csv`
  /// (requires telemetry_stem). Events carry only simulated state, so the
  /// CSV is byte-identical for a fixed (config, seed) at any --jobs/shards.
  bool events = false;
};

/// Runs a vector of sweep points on options().jobs threads and collects
/// results into index-ordered slots.
class SweepRunner {
 public:
  explicit SweepRunner(SweepOptions options = {}) : options_(options) {}

  [[nodiscard]] const SweepOptions& options() const { return options_; }

  /// Run every point; results are in point order regardless of schedule.
  std::vector<SimResult> run(const std::vector<SweepPoint>& points);

  /// Escape hatch for sweeps that are not Simulator runs (the open-loop
  /// network benches): runs fn(i) for i in [0, n) on the workers. fn returns
  /// the point's RunRecord with its metric fields filled in; the runner
  /// fills index and wall_seconds and logs it. Results travel through
  /// caller-owned per-index slots, as with run().
  void run_indexed(std::size_t n, const std::function<RunRecord(std::size_t)>& fn);

 private:
  /// The first run index of an n-point sweep: a block reserved from the
  /// log, or 0 without one.
  std::size_t reserve(std::size_t n);
  /// run_indexed over the run indices [first, first + n).
  void run_block(std::size_t first, std::size_t n,
                 const std::function<RunRecord(std::size_t)>& fn);

  SweepOptions options_;
};

}  // namespace nocsim
