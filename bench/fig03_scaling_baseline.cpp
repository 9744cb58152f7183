// Figure 3 (a)(b)(c) + §3.2: scalability of the *baseline* bufferless NoC
// from 16 to 4096 cores with exponential data locality (lambda = 1).
//
// Paper: even with locality, (a) average network latency grows sharply with
// size under high-intensity load, (b) starvation rate roughly doubles from
// 16 to 4096 cores, (c) per-node IPC drops — congestion limits scaling.
// Also reproduces the motivating strawman: with uniform striping (no
// locality), per-node throughput collapses (-73% from 4x4 to 64x64).
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const int max_side = flags.get_int("max-side", 64, "largest mesh side (64 = 4096 cores)", 4);
  const auto base_cycles =
      flags.get_cycles("cycles", 150'000, 1, "measured cycles at 4x4 (shrinks with size)");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  std::vector<SweepPoint> size_points;
  for (int side = 4; side <= max_side; side *= 2) {
    // Keep total work bounded: larger networks get fewer cycles.
    const Cycle measure = scaled_measure(side, base_cycles);
    for (const std::string& intensity : {std::string("H"), std::string("ML")}) {
      Rng rng(101);
      const auto wl = make_category_workload(intensity, side * side, rng);
      size_points.push_back({scaling_config(side, measure), wl,
                             std::to_string(side * side) + "/" + intensity, {}});
    }
  }
  const std::vector<SimResult> scaling = sweep.runner().run(size_points);

  CsvWriter csv(std::cout);
  csv.comment("Figure 3: baseline BLESS scaling, exponential locality lambda=1.");
  csv.comment("Paper: latency and starvation climb with size; IPC/node falls ~steadily;");
  csv.comment("high-intensity workloads suffer most.");
  csv.header({"cores", "intensity", "utilization", "avg_net_latency_cycles",
              "starvation_rate", "ipc_per_node"});

  std::size_t k = 0;
  for (int side = 4; side <= max_side; side *= 2) {
    for (const std::string& intensity : {std::string("H"), std::string("ML")}) {
      const SimResult& r = scaling[k++];
      csv.row(side * side, intensity == "H" ? "high" : "low", r.utilization,
              r.avg_net_latency, r.avg_starvation, r.ipc_per_node());
    }
  }

  std::vector<SweepPoint> map_points;
  for (const int side : {4, max_side}) {
    const Cycle measure = scaled_measure(side, base_cycles);
    for (const std::string& map : {std::string("stripe"), std::string("exponential")}) {
      Rng rng(101);
      const auto wl = make_category_workload("H", side * side, rng);
      SimConfig c = scaling_config(side, measure);
      c.l2_map = map;
      map_points.push_back({c, wl, "strawman/" + std::to_string(side * side) + "/" + map, {}});
    }
  }
  const std::vector<SimResult> strawman = sweep.runner().run(map_points);

  csv.comment("");
  csv.comment("Section 3.2 strawman: uniform striping (no locality) vs exponential");
  csv.comment("locality. Paper: striping loses ~73% per-node throughput from 4x4 to 64x64.");
  csv.header({"cores", "mapping", "ipc_per_node", "utilization"});
  k = 0;
  for (const int side : {4, max_side}) {
    for (const std::string& map : {std::string("stripe"), std::string("exponential")}) {
      const SimResult& r = strawman[k++];
      csv.row(side * side, map, r.ipc_per_node(), r.utilization);
    }
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
