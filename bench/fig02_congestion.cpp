// Figure 2 (a)(b)(c): congestion at the network and application level in a
// 4x4 bufferless NoC.
//
//   (a) average network latency vs average network utilization — BLESS
//       latency stays relatively stable (within ~2x) even under heavy load;
//   (b) starvation rate vs utilization — grows superlinearly, the better
//       congestion signal;
//   (c) static throttling sweep on a network-heavy workload — system
//       throughput peaks at an interior operating point (the paper reports
//       +14% over unthrottled), showing congestion control can pay even
//       though the network never collapses.
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto measure = flags.get_cycles("cycles", 120'000, 1, "measured cycles per workload");
  const int seeds = flags.get_int("seeds", 4, "workloads per category for panels (a)/(b)", 1);
  const auto sweep_measure =
      flags.get_cycles("sweep-cycles", 150'000, 1, "measured cycles per throttle point (c)");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  std::vector<SweepPoint> ab_points;
  for (const std::string& cat : workload_categories()) {
    for (int s = 0; s < seeds; ++s) {
      Rng rng(17 + 31 * s);
      const auto wl = make_category_workload(cat, 16, rng);
      ab_points.push_back(
          {small_noc_config(measure, s + 1), wl, "ab/" + cat + "-" + std::to_string(s), {}});
    }
  }
  const std::vector<SimResult> ab = sweep.runner().run(ab_points);

  CsvWriter csv(std::cout);
  csv.comment("Figure 2(a)/(b): network latency and starvation rate vs utilization, 4x4 BLESS.");
  csv.comment("Paper: latency stays within ~2x of baseline; starvation grows superlinearly.");
  csv.header({"panel", "workload", "category", "utilization", "avg_net_latency_cycles",
              "starvation_rate"});

  std::size_t k = 0;
  for (const std::string& cat : workload_categories()) {
    for (int s = 0; s < seeds; ++s) {
      const SimResult& r = ab[k++];
      csv.row("ab", cat + "-" + std::to_string(s), cat, r.utilization, r.avg_net_latency,
              r.avg_starvation);
    }
  }

  csv.comment("");
  csv.comment("Figure 2(c): static throttling sweep on a network-heavy, bursty workload");
  csv.comment("using the paper's Algorithm 3 (deterministic) gate on ALL injections.");
  csv.comment("Paper: throughput peaks at an interior operating point (+14%). We reproduce");
  csv.comment("the interior optimum (static throttling clips transient bursts) at a smaller");
  csv.comment("magnitude — see EXPERIMENTS.md for the divergence analysis.");
  csv.header({"panel", "throttle_rate", "utilization", "system_throughput_ipc",
              "gain_vs_unthrottled_pct", "avg_total_latency"});

  WorkloadSpec heavy;
  heavy.category = "bursty-H";
  {
    const char* apps[4] = {"matlab", "art.ref.train", "mcf2", "sphinx3"};
    for (int i = 0; i < 16; ++i) heavy.app_names.push_back(apps[i % 4]);
  }
  const std::vector<double> rates = {0.0, 0.1, 0.2,  0.3, 0.35, 0.4,
                                     0.45, 0.5, 0.6, 0.7, 0.8,  0.9};
  std::vector<SweepPoint> c_points;
  for (const double rate : rates) {
    SimConfig c = small_noc_config(sweep_measure, 3);
    c.randomized_throttle_gate = false;  // Algorithm 3 verbatim
    if (rate > 0.0) {
      c.cc = CcMode::Static;
      c.static_rate = rate;
    }
    c_points.push_back({c, heavy, "c/rate=" + std::to_string(rate), {}});
  }
  const std::vector<SimResult> panel_c = sweep.runner().run(c_points);
  const double base_throughput = panel_c[0].system_throughput();
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const SimResult& r = panel_c[i];
    const double throughput = r.system_throughput();
    csv.row("c", rates[i], r.utilization, throughput,
            100.0 * (throughput / base_throughput - 1.0), r.avg_total_latency);
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
