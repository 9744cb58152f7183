// Table 1: average instructions-per-flit (IPF) and per-epoch IPF variance
// for every application in the catalog, measured by running each
// application alone in a 4x4 mesh.
//
// Paper: IPF spans four orders of magnitude, from mcf ~1 to povray ~20708,
// partitioning applications into H (<2), M (2-100) and L (>100) classes.
// Our synthetic substitutes are calibrated to the published means; the
// check column reports measured/published. Variance is an emergent product
// of the phase model, so it tracks the published *ordering* rather than the
// exact values.
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto measure =
      flags.get_cycles("cycles", 200'000, 1, "measured cycles per application");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  std::vector<SweepPoint> points;
  for (const AppProfile& profile : app_catalog()) {
    SimConfig c = small_noc_config(measure, 3);
    c.record_epoch_ipf = true;
    WorkloadSpec wl;
    wl.category = profile.name;
    wl.app_names.assign(16, "");
    wl.app_names[5] = profile.name;
    points.push_back({c, wl, profile.name, {}});
  }
  const std::vector<SimResult> results = sweep.runner().run(points);

  CsvWriter csv(std::cout);
  csv.comment("Table 1: per-application IPF (mean over the run, variance across epochs).");
  csv.comment("Published values from the paper for comparison; class H <2, M 2-100, L >100.");
  csv.header({"app", "class", "ipf_published", "ipf_measured", "measured_over_published",
              "ipf_epoch_variance", "var_published", "l1_miss_rate", "ipc_alone"});

  std::size_t i = 0;
  for (const AppProfile& profile : app_catalog()) {
    const NodeResult& node = results[i++].nodes[5];

    StatAccumulator epochs;
    for (const double ipf : node.epoch_ipf) {
      if (ipf < kIpfCap) epochs.add(ipf);
    }
    const double measured = node.ipf >= kIpfCap ? epochs.mean() : node.ipf;
    csv.row(profile.name, std::string(1, to_char(profile.cls)), profile.table_ipf, measured,
            measured / profile.table_ipf, epochs.variance(), profile.table_ipf_var,
            node.l1_miss_rate, node.ipc);
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
