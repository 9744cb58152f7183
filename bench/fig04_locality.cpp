// Figure 4: sensitivity of per-node throughput to the degree of data
// locality in a 64x64 (4096-core) mesh.
//
// Paper: IPC/node is highly sensitive to average hop distance 1/lambda,
// falling steeply as destinations spread from 1 toward 16 hops.
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const int side = flags.get_int("side", 64, "mesh side (paper: 64)", 2);
  const auto measure = flags.get_cycles("cycles", 14'000, 1, "measured cycles per point");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  Rng rng(101);
  const auto wl = make_category_workload("H", side * side, rng);
  const std::vector<double> inv_lambdas = {1.0, 2.0, 4.0, 8.0, 16.0};
  std::vector<SweepPoint> points;
  for (const double inv_lambda : inv_lambdas) {
    SimConfig c = scaling_config(side, measure);
    c.locality_lambda = 1.0 / inv_lambda;
    points.push_back({c, wl, "inv_lambda=" + std::to_string(inv_lambda), {}});
  }
  const std::vector<SimResult> results = sweep.runner().run(points);

  CsvWriter csv(std::cout);
  csv.comment("Figure 4: IPC/node vs average hop distance (1/lambda), " +
              std::to_string(side) + "x" + std::to_string(side) + " mesh, H workload.");
  csv.comment("Paper: performance is highly sensitive to locality; throughput falls");
  csv.comment("steeply as the average request distance grows from 1 to 16 hops.");
  csv.header({"avg_hop_distance_target", "hops_per_flit_measured", "ipc_per_node",
              "utilization", "avg_net_latency_cycles"});

  for (std::size_t i = 0; i < inv_lambdas.size(); ++i) {
    const SimResult& r = results[i];
    csv.row(inv_lambdas[i], r.avg_hops, r.ipc_per_node(), r.utilization, r.avg_net_latency);
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
