// Figures 11 and 12: fairness of the mechanism across the IPF spectrum.
//
// Two applications with IPF values (IPF1, IPF2) share a 4x4 mesh in a
// checkerboard (8 instances each); the grid sweeps both axes across four
// orders of magnitude. Figure 12 reports the baseline (un-throttled)
// network utilization of each pair; Figure 11 the per-application %
// throughput change when congestion control is enabled.
//
// Paper: utilization is high when either app is low-IPF; gains appear for
// the high-IPF app when paired with a low-IPF app; crucially the low-IPF
// app is NOT unfairly penalized (it can even gain from reduced congestion).
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto measure = flags.get_cycles("cycles", 120'000, 1, "measured cycles per pair");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  // Ladder across the IPF spectrum (published means in parentheses).
  const std::vector<std::string> ladder = {
      "mcf",        // 1.0
      "milc",       // 3.8
      "gromacs",    // 19.4
      "gobmk",      // 140.8
      "omnetpp",    // 804.4
      "povray",     // 20708.5
  };

  std::vector<SweepPoint> points;
  std::size_t pair = 0;
  for (const std::string& a : ladder) {
    for (const std::string& b : ladder) {
      const auto wl = make_checkerboard_workload(a, b, 4, 4);
      SimConfig c = small_noc_config(measure, 3);
      points.push_back({c, wl, a + "+" + b + "/base", pair});
      SimConfig cc = c;
      cc.cc = CcMode::Central;
      points.push_back({cc, wl, a + "+" + b + "/cc", pair});
      ++pair;
    }
  }
  const std::vector<SimResult> results = sweep.runner().run(points);

  CsvWriter csv(std::cout);
  csv.comment("Figures 11/12: 8+8 checkerboard of (app1, app2) across the IPF ladder.");
  csv.comment("Paper: baseline utilization is high iff either IPF is low (Fig 12); with CC");
  csv.comment("the high-IPF app gains and the low-IPF app is not unfairly hurt (Fig 11).");
  csv.header({"app1", "app2", "ipf1_published", "ipf2_published", "baseline_utilization",
              "app1_gain_pct", "app2_gain_pct", "system_gain_pct"});

  std::size_t p = 0;
  for (const std::string& a : ladder) {
    for (const std::string& b : ladder) {
      const SimResult& base = results[2 * p];
      const SimResult& thr = results[2 * p + 1];
      ++p;

      // Per-app mean IPC over the checkerboard positions. When a == b the
      // "two apps" coincide; report the same value on both axes.
      const auto app_ipc = [&](const SimResult& r, int parity) {
        double sum = 0;
        int n = 0;
        for (int i = 0; i < 16; ++i) {
          if ((i % 4 + i / 4) % 2 == parity) {
            sum += r.nodes[i].ipc;
            ++n;
          }
        }
        return sum / n;
      };
      const double a_gain = 100.0 * (app_ipc(thr, 0) / app_ipc(base, 0) - 1.0);
      const double b_gain = 100.0 * (app_ipc(thr, 1) / app_ipc(base, 1) - 1.0);
      csv.row(a, b, app_by_name(a).table_ipf, app_by_name(b).table_ipf, base.utilization,
              a_gain, b_gain,
              100.0 * (thr.system_throughput() / base.system_throughput() - 1.0));
    }
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
