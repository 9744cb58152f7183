// Figure 6: application phase behaviour — injected traffic intensity over
// time for representative applications.
//
// Paper: applications show temporal variation in injected traffic intensity
// due to phase behaviour; this is what makes a *dynamic* (periodic)
// throttling mechanism necessary and drives the per-epoch IPF variance of
// Table 1.
//
// Implementation: each run carries a caller-owned TelemetryHub sampling on
// the bin cadence; the per-bin injected-flit counts are the app node's
// `injections` counter (per-interval deltas) in each row.
#include "bench_util.hpp"
#include "telemetry/telemetry.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto measure = flags.get_cycles("cycles", 400'000, 1, "measured cycles");
  const auto bin = flags.get_cycles("bin", 10'000, 1, "trace bin width, cycles");
  const std::string apps_flag = flags.get_string(
      "apps", "mcf,mcf2,sphinx3,matlab,bzip2", "comma-separated application list");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  std::vector<std::string> apps;
  for (std::size_t pos = 0; pos < apps_flag.size();) {
    const auto comma = apps_flag.find(',', pos);
    apps.push_back(apps_flag.substr(pos, comma - pos));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }

  std::vector<SweepPoint> points;
  std::vector<TelemetryHub> hubs(apps.size(), TelemetryHub(bin));
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const SimConfig c = small_noc_config(measure, 3);
    WorkloadSpec wl;
    wl.category = apps[i];
    wl.app_names.assign(16, "");
    wl.app_names[5] = apps[i];
    points.push_back({c, wl, apps[i], {}, &hubs[i]});
  }
  sweep.runner().run(points);

  CsvWriter csv(std::cout);
  csv.comment("Figure 6: injected flits per " + std::to_string(bin) +
              "-cycle bin over time, one application per run (alone in a 4x4 mesh).");
  csv.comment("Paper: injection intensity varies with application phases (bursts, waves).");
  csv.comment("Bins cover the whole run (warmup included); bin_start_cycle is absolute.");
  csv.header({"app", "bin_start_cycle", "flits_injected", "flits_per_cycle"});

  for (std::size_t i = 0; i < apps.size(); ++i) {
    for (const TelemetryRow& row : hubs[i].rows) {
      const std::uint64_t flits = row.routers[5].injections;
      csv.row(apps[i], row.cycle + 1 - bin, flits,
              static_cast<double>(flits) / static_cast<double>(bin));
    }
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
