// Figures 13-16: scalability of the three architectures from 16 to 4096
// cores with exponential data locality (lambda = 1):
//
//   Fig 13  per-node system throughput (IPC/node)   — throttling keeps the
//           bufferless curve essentially flat, close to the buffered NoC;
//   Fig 14  average network latency                 — throttling holds it down;
//   Fig 15  network utilization                     — throttling operates the
//           network at a lower, efficient point;
//   Fig 16  % power reduction of BLESS-Throttling   — up to ~15% vs baseline
//           BLESS (fewer deflections) and ~19% vs Buffered (no buffers).
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

const std::vector<std::string>& archs() {
  static const std::vector<std::string> a = {"BLESS", "BLESS-Throttling",
                                            "BLESS-Throttling-NoEsc", "Buffered"};
  return a;
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const int max_side = flags.get_int("max-side", 64, "largest mesh side (64 = 4096 cores)", 4);
  const auto base_cycles =
      flags.get_cycles("cycles", 150'000, 1, "measured cycles at 4x4 (shrinks with size)");
  const std::string category =
      flags.get_string("category", "H", "workload category (paper: high intensity)");
  const std::string topology = flags.get_string(
      "topology", "mesh", "topology family: mesh | torus | mesh3d | torus3d | cmesh");
  const int depth = flags.get_int("depth", 1, "z extent (mesh3d / torus3d)", 1);
  const int shards = get_shards(flags);
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  std::vector<SweepPoint> points;
  std::size_t group = 0;
  for (int side = 4; side <= max_side; side *= 2) {
    const Cycle measure = scaled_measure(side, base_cycles);
    Rng rng(101);
    // Core count follows the family: depth layers and cmesh concentration
    // multiply the side*side router grid.
    const int cores = side * side * depth * (topology == "cmesh" ? CMesh::kConcentration : 1);
    const auto wl = make_category_workload(category, cores, rng);
    for (const std::string& arch : archs()) {
      SimConfig c = scaling_config(side, measure);
      c.topology = topology;
      c.depth = depth;
      c.shards = shards;  // byte-identical for any value; speeds up big meshes
      if (arch == "BLESS-Throttling") c.cc = CcMode::Central;
      if (arch == "BLESS-Throttling-NoEsc") {
        // Ablation: the paper's mechanism verbatim, without our hop-inflation
        // escalation extension (see CcParams::escalation).
        c.cc = CcMode::Central;
        c.cc_params.escalation = false;
      }
      if (arch == "Buffered") c.router = RouterKind::Buffered;
      points.push_back({c, wl, std::to_string(cores) + "/" + arch, group});
    }
    ++group;
  }
  const std::vector<SimResult> results = sweep.runner().run(points);

  CsvWriter csv(std::cout);
  csv.comment("Figures 13-16: BLESS vs BLESS-Throttling vs Buffered, locality lambda=1, " +
              category + " workloads.");
  csv.comment("Paper: congestion control restores ~linear scaling (flat IPC/node), holds");
  csv.comment("latency/utilization down, and cuts power up to 15% (vs BLESS) / 19% (vs");
  csv.comment("Buffered) at 4096 cores.");
  csv.header({"cores", "arch", "ipc_per_node", "avg_net_latency_cycles", "utilization",
              "avg_power_units", "starvation_rate"});

  std::size_t k = 0;
  for (int side = 4; side <= max_side; side *= 2) {
    const int cores = side * side * depth * (topology == "cmesh" ? CMesh::kConcentration : 1);
    double power_bless = 0, power_throttled = 0, power_buffered = 0;
    for (const std::string& arch : archs()) {
      const SimResult& r = results[k++];
      const double power = r.power.average_power(r.cycles);
      if (arch == "BLESS") power_bless = power;
      if (arch == "BLESS-Throttling") power_throttled = power;
      if (arch == "Buffered") power_buffered = power;
      csv.row(cores, arch, r.ipc_per_node(), r.avg_net_latency, r.utilization, power,
              r.avg_starvation);
    }
    csv.comment("fig16 @" + std::to_string(cores) + " cores: throttling saves " +
                std::to_string(100.0 * (1.0 - power_throttled / power_bless)) +
                "% vs BLESS, " +
                std::to_string(100.0 * (1.0 - power_throttled / power_buffered)) +
                "% vs Buffered");
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
