// Cycle-loop macro-benchmark: end-to-end simulated-cycles-per-second of the
// closed-loop simulator on fig02-style configurations (HM workload mix) at
// 8x8 and 32x32. This is the repo's perf trajectory anchor: the committed
// BENCH_cycle_loop.json snapshot is produced by scripts/bench_baseline.sh
// from this binary, and CI's bench-smoke job fails on >15% regressions
// against it.
//
// Unlike micro_router (google-benchmark, per-component nanoseconds), this
// measures the full Simulator::step pipeline — fabric, NIs, cores, L2,
// controller — the quantity that decides how many paper-scale experiments
// (Figs. 13-16: up to 64x64 meshes, 1e8+ cycles) a machine-day buys.
//
// The simulated configuration is a pure function of the flags: before/after
// comparisons are apples-to-apples as long as --cycles/--reps match.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/csv.hpp"
#include "common/flags.hpp"
#include "sim/simulator.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/profiler.hpp"
#include "topology/topology.hpp"
#include "workload/workload.hpp"

namespace nocsim::bench {
namespace {

struct BenchConfig {
  std::string name;
  int side;
  Cycle warmup;
  Cycle cycles;     ///< measured cycles per rep
  int shards = 1;  ///< intra-run tiles (1 = serial loop)
};

struct BenchResult {
  BenchConfig cfg;
  double best_seconds = 0.0;
  double cycles_per_sec = 0.0;
};

/// Per-run observability outputs (off by default: timing the bare loop is
/// this benchmark's job, so the profiler is attached only on request).
struct ObsOptions {
  bool profile = false;
  bool events = false;
  std::string stem;  ///< <stem>.run<i>.profile.json / .events.csv
};

BenchResult run_config(const BenchConfig& bc, int reps, std::size_t index,
                       const ObsOptions& obs) {
  SimConfig c;
  c.width = c.height = bc.side;
  c.l2_map = bc.side > 8 ? "exponential" : "xor";
  c.warmup_cycles = bc.warmup;
  c.measure_cycles = bc.cycles;
  c.cc_params.epoch = 5'000;
  c.seed = 1;
  c.shards = bc.shards;
  Rng rng(17);
  const auto wl = make_category_workload("HM", bc.side * bc.side, rng);
  Simulator sim(c, wl);
  PhaseProfiler profiler;
  if (obs.profile) sim.attach_profiler(&profiler);
  EventLog events;
  if (obs.events) sim.attach_events(&events);
  sim.run_cycles(bc.warmup);

  BenchResult res{bc, 1e300, 0.0};
  for (int rep = 0; rep < reps; ++rep) {
    // nocsim-lint: allow(wallclock, raw-timing): wall time measures the host, it never feeds sim state.
    const auto t0 = std::chrono::steady_clock::now();
    sim.run_cycles(bc.cycles);
    // nocsim-lint: allow(wallclock, raw-timing): wall time measures the host, it never feeds sim state.
    const auto t1 = std::chrono::steady_clock::now();
    // nocsim-lint: allow(raw-timing): duration math on the host stamps above.
    const double secs = std::chrono::duration<double>(t1 - t0).count();
    if (secs < res.best_seconds) res.best_seconds = secs;
  }
  res.cycles_per_sec = static_cast<double>(bc.cycles) / res.best_seconds;

  const std::string base = obs.stem + ".run" + std::to_string(index);
  if (obs.profile) {
    profiler.tick(c.warmup_cycles + static_cast<Cycle>(reps) * bc.cycles);
    if (!profiler.write_json_file(base + ".profile.json")) {
      std::cerr << "cycle_loop: cannot write " << base << ".profile.json\n";
    }
  }
  if (obs.events && !events.write_csv_file(base + ".events.csv")) {
    std::cerr << "cycle_loop: cannot write " << base << ".events.csv\n";
  }
  return res;
}

/// Deterministic topology-smoke mode (--metrics): run ONE small config on
/// the requested topology family and write the simulated metrics as CSV.
/// No wall-clock timing is involved, so the file is a pure function of the
/// flags — CI diffs a sharded run's CSV against a serial run's byte for
/// byte. The default JSON timing mode is untouched.
int run_metrics(const std::string& path, const std::string& topology, int side, int depth,
                const std::string& topo_file, const std::string& router, int shards,
                Cycle cycles) {
  SimConfig c;
  c.topology = topology;
  c.depth = depth;
  c.topology_file = topo_file;
  if (topology == "irregular") {
    // SimConfig sizing must match the graph file's declared node count.
    c.width = peek_topology_nodes(topo_file);
    c.height = 1;
    c.depth = 1;
  } else {
    c.width = c.height = side;
  }
  c.router = (router == "buffered") ? RouterKind::Buffered : RouterKind::Bless;
  c.warmup_cycles = 2'000;
  c.measure_cycles = cycles;
  c.cc_params.epoch = 1'000;
  c.seed = 1;
  c.shards = shards;
  Rng rng(17);
  const auto wl = make_category_workload("HM", c.num_cores(), rng);
  Simulator sim(c, wl);
  const SimResult r = sim.run();

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cycle_loop: cannot write " << path << "\n";
    return 1;
  }
  out << "metric,value\n";
  out << "cycles," << r.cycles << "\n";
  out << "avg_net_latency," << format_exact(r.avg_net_latency) << "\n";
  out << "avg_total_latency," << format_exact(r.avg_total_latency) << "\n";
  out << "utilization," << format_exact(r.utilization) << "\n";
  out << "avg_hops," << format_exact(r.avg_hops) << "\n";
  out << "avg_deflections," << format_exact(r.avg_deflections) << "\n";
  out << "avg_starvation," << format_exact(r.avg_starvation) << "\n";
  for (std::size_t i = 0; i < r.nodes.size(); ++i) {
    out << "core." << i << ".retired," << r.nodes[i].retired << "\n";
    out << "core." << i << ".flits," << r.nodes[i].flits << "\n";
  }
  return 0;
}

/// The host CPU model from /proc/cpuinfo, so a committed baseline records
/// what machine produced it. "unknown" off Linux or on parse failure.
std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    std::size_t b = colon + 1;
    while (b < line.size() && line[b] == ' ') ++b;
    std::string model = line.substr(b);
    // Keep the JSON literal simple: drop characters that would need escaping.
    std::erase_if(model, [](char c) { return c == '"' || c == '\\'; });
    if (!model.empty()) return model;
    break;
  }
  return "unknown";
}

void write_json(std::ostream& out, const std::vector<BenchResult>& results, int reps) {
  out << "{\n";
  out << "  \"benchmark\": \"cycle_loop\",\n";
  out << "  \"unit\": \"simulated cycles per wall second (best of reps)\",\n";
  out << "  \"note\": \"machine-dependent; refresh with scripts/bench_baseline.sh. "
         "Sharded (_shN) configs only beat serial with >= N physical cores; on a "
         "single-core host they price the barrier overhead instead.\",\n";
  // host_threads lives in the environment record only: it describes the
  // machine, not the benchmark, and emitting it twice invited the two copies
  // to drift apart under hand edits.
  out << "  \"environment\": {\"cpu_model\": \"" << cpu_model()
      << "\", \"host_threads\": " << std::thread::hardware_concurrency() << "},\n";
  out << "  \"reps\": " << reps << ",\n";
  out << "  \"configs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const BenchResult& r = results[i];
    out << "    {\"name\": \"" << r.cfg.name << "\", \"side\": " << r.cfg.side
        << ", \"shards\": " << r.cfg.shards << ", \"measured_cycles\": " << r.cfg.cycles << ", \"wall_seconds\": "
        << r.best_seconds << ", \"cycles_per_sec\": " << r.cycles_per_sec
        << ", \"node_cycles_per_sec\": "
        << r.cycles_per_sec * r.cfg.side * r.cfg.side << "}"
        << (i + 1 < results.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto cycles8 =
      flags.get_cycles("cycles", 120'000, 1, "measured cycles per rep, 8x8 config");
  const auto cycles32 =
      flags.get_cycles("cycles-32", 6'000, 1, "measured cycles per rep, 32x32 configs");
  const auto cycles64 =
      flags.get_cycles("cycles-64", 1'500, 1, "measured cycles per rep, 64x64 configs");
  const int reps = flags.get_int("reps", 3, "timed repetitions; best is reported", 1);
  const int shards =
      flags.get_int("shards", 4, "tiles for the sharded 32x32/64x64 variants (>= 1)", 1);
  const bool skip_large =
      flags.get_bool("skip-32", false, "measure only the 8x8 config (quick check)");
  const std::string out_path =
      flags.get_string("out", "", "write the JSON report here instead of stdout");
  ObsOptions obs;
  obs.profile = flags.get_bool(
      "profile", false, "attach the phase profiler; write <stem>.run<i>.profile.json");
  obs.events = flags.get_bool(
      "events", false, "attach the provenance event log; write <stem>.run<i>.events.csv");
  obs.stem = flags.get_string(
      "obs-stem", "cycle_loop", "path stem for --profile/--events outputs");
  // Topology-smoke mode (see run_metrics): deterministic, no timing.
  const std::string metrics = flags.get_string(
      "metrics", "", "write simulated-metric CSV for one config here (topology smoke mode)");
  const std::string topology = flags.get_string(
      "topology", "mesh", "smoke-mode family: mesh | torus | mesh3d | torus3d | cmesh | irregular");
  const int side = flags.get_int("side", 4, "smoke-mode mesh side (width = height)", 2);
  const int depth = flags.get_int("depth", 1, "smoke-mode z extent (3d families)", 1);
  const std::string topo_file = flags.get_string(
      "topology-file", "", "smoke-mode graph file (topology = irregular)");
  const std::string router =
      flags.get_string("router", "bless", "smoke-mode router: bless | buffered");
  const Cycle metrics_cycles =
      flags.get_cycles("metrics-cycles", 5'000, 1, "smoke-mode measured cycles (>= 1)");
  if (flags.finish()) return 0;
  if (router != "bless" && router != "buffered") {
    std::cerr << "cycle_loop: unknown --router '" << router << "' (want bless | buffered)\n";
    return 2;
  }
  if (!metrics.empty()) {
    return run_metrics(metrics, topology, side, depth, topo_file, router, shards,
                       metrics_cycles);
  }

  std::vector<BenchConfig> configs = {{"fig02_8x8", 8, 5'000, cycles8}};
  if (!skip_large) {
    // Serial and sharded variants of each large mesh: same simulated
    // function (byte-identical results), so the pair directly prices the
    // sharding overhead/speedup on this host's core count.
    configs.push_back({"fig02_32x32", 32, 2'000, cycles32});
    configs.push_back({"fig02_32x32_sh" + std::to_string(shards), 32, 2'000, cycles32, shards});
    configs.push_back({"fig02_64x64", 64, 1'000, cycles64});
    configs.push_back({"fig02_64x64_sh" + std::to_string(shards), 64, 1'000, cycles64, shards});
  }

  std::vector<BenchResult> results;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const BenchConfig& bc = configs[i];
    results.push_back(run_config(bc, reps, i, obs));
    std::cerr << "cycle_loop: " << bc.name << " " << results.back().cycles_per_sec
              << " cycles/s (" << results.back().best_seconds << " s best of " << reps
              << ")\n";
  }

  if (out_path.empty()) {
    write_json(std::cout, results, reps);
  } else {
    std::ofstream out(out_path);
    if (!out) {
      std::cerr << "cycle_loop: cannot write " << out_path << "\n";
      return 1;
    }
    write_json(out, results, reps);
  }
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
