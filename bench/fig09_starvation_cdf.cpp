// Figure 9: CDF of per-workload average starvation rate for congested
// workloads (baseline utilization > 0.6), with and without the
// congestion-control mechanism.
//
// Paper: with throttling only 36% of congested 4x4 workloads exceed a 30%
// starvation rate, versus 61% without — the mechanism directly attacks
// network-admission congestion.
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const int seeds = flags.get_int("seeds", 5, "workloads per heavy category", 1);
  const auto measure = flags.get_cycles("cycles", 120'000, 1, "measured cycles per run");
  const double util_floor =
      flags.get_double("util-floor", 0.60, "congestion filter on baseline utilization");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  // Heavy-leaning categories produce the congested population. Both arms of
  // every pair run up front (the serial driver skipped the throttled run
  // for under-threshold workloads; running it costs nothing in parallel and
  // the filter below discards it identically).
  const std::vector<std::string> cats = {"H", "HM", "HML"};
  std::vector<SweepPoint> points;
  std::size_t pair = 0;
  for (const std::string& cat : cats) {
    for (int s = 0; s < seeds; ++s) {
      Rng rng(91 + 13 * s);
      const auto wl = make_category_workload(cat, 16, rng);
      SimConfig c = small_noc_config(measure, s + 1);
      const std::string tag = cat + "-" + std::to_string(s);
      points.push_back({c, wl, tag + "/base", pair});
      SimConfig cc = c;
      cc.cc = CcMode::Central;
      points.push_back({cc, wl, tag + "/cc", pair});
      ++pair;
    }
  }
  const std::vector<SimResult> results = sweep.runner().run(points);

  EmpiricalCdf base_cdf, throttled_cdf, base_net_cdf, throttled_net_cdf;
  for (std::size_t p = 0; p < pair; ++p) {
    const SimResult& base = results[2 * p];
    if (base.utilization <= util_floor) continue;
    const SimResult& thr = results[2 * p + 1];
    base_cdf.add(base.avg_starvation);
    throttled_cdf.add(thr.avg_starvation);
    base_net_cdf.add(base.avg_starvation_network);
    throttled_net_cdf.add(thr.avg_starvation_network);
  }

  CsvWriter csv(std::cout);
  csv.comment("Figure 9: CDF of average starvation rate, congested 4x4 workloads (baseline");
  csv.comment("utilization > " + std::to_string(util_floor) + "), BLESS vs BLESS-Throttling.");
  csv.comment("Paper: P(starvation > 0.3) drops from 61% to 36% with the mechanism.");
  csv.comment("Two sigma flavours: Algorithm 2 counts throttle-gate blocks as starved");
  csv.comment("cycles (so throttled nodes inflate it by design); the *_network columns");
  csv.comment("count only fabric-admission blocks — the congestion the mechanism fights.");
  csv.comment("workloads in population: " + std::to_string(base_cdf.size()));
  csv.header({"avg_starvation_rate", "cdf_bless", "cdf_bless_throttling",
              "cdf_bless_network", "cdf_bless_throttling_network"});
  for (double x = 0.0; x <= 0.5001; x += 0.025) {
    csv.row(x, base_cdf.size() ? base_cdf.at(x) : 0.0,
            throttled_cdf.size() ? throttled_cdf.at(x) : 0.0,
            base_net_cdf.size() ? base_net_cdf.at(x) : 0.0,
            throttled_net_cdf.size() ? throttled_net_cdf.at(x) : 0.0);
  }
  csv.comment("P(network starvation > 0.2): BLESS " +
              std::to_string(base_net_cdf.size() ? 1.0 - base_net_cdf.at(0.2) : 0.0) +
              ", BLESS-Throttling " +
              std::to_string(throttled_net_cdf.size() ? 1.0 - throttled_net_cdf.at(0.2) : 0.0));
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
