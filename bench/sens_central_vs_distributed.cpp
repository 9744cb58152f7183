// Section 6.6: centralized vs distributed coordination, plus the cost of
// modelling the central controller's 2n control packets as real traffic.
//
// Paper: the central algorithm wins because it knows every node's (IPF,
// sigma) state; the application-unaware "TCP-like" congested-bit variant is
// far less effective at reducing congestion. The control traffic (2n
// one-flit packets per 100k-cycle epoch) is negligible.
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const int seeds = flags.get_int("seeds", 4, "workloads per category", 1);
  const auto measure = flags.get_cycles("cycles", 120'000, 1, "measured cycles per run");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  // Four arms per workload: baseline, central, central with modelled
  // control traffic, distributed. One seed stream per workload.
  const std::vector<std::string> cats = {"H", "HM"};
  std::vector<SweepPoint> points;
  std::size_t group = 0;
  for (const std::string& cat : cats) {
    for (int s = 0; s < seeds; ++s) {
      Rng rng(55 + 13 * s);
      const auto wl = make_category_workload(cat, 16, rng);
      SimConfig c = small_noc_config(measure, s + 1);
      const std::string tag = cat + "-" + std::to_string(s);
      points.push_back({c, wl, tag + "/base", group});

      SimConfig cen = c;
      cen.cc = CcMode::Central;
      points.push_back({cen, wl, tag + "/central", group});

      SimConfig cen_t = cen;
      cen_t.model_control_traffic = true;
      points.push_back({cen_t, wl, tag + "/central+traffic", group});

      SimConfig dis = c;
      dis.cc = CcMode::Distributed;
      points.push_back({dis, wl, tag + "/distributed", group});
      ++group;
    }
  }
  const std::vector<SimResult> results = sweep.runner().run(points);

  CsvWriter csv(std::cout);
  csv.comment("Section 6.6: central vs distributed coordination on congested workloads.");
  csv.comment("Paper: distributed (congested-bit, application-unaware) is far less");
  csv.comment("effective; central control traffic (2n packets / epoch) is negligible.");
  csv.header({"category", "seed", "baseline_util", "central_gain_pct",
              "central_with_control_traffic_gain_pct", "distributed_gain_pct"});

  GainStats central, central_traffic, distributed;
  std::size_t k = 0;
  for (const std::string& cat : cats) {
    for (int s = 0; s < seeds; ++s) {
      const SimResult& base = results[k];
      const SimResult& r_cen = results[k + 1];
      const SimResult& r_cen_t = results[k + 2];
      const SimResult& r_dis = results[k + 3];
      k += 4;

      const auto gain = [&](const SimResult& r) {
        return 100.0 * (r.system_throughput() / base.system_throughput() - 1.0);
      };
      central.add(gain(r_cen));
      central_traffic.add(gain(r_cen_t));
      distributed.add(gain(r_dis));
      csv.row(cat, s, base.utilization, gain(r_cen), gain(r_cen_t), gain(r_dis));
    }
  }
  csv.comment("averages: central " + std::to_string(central.avg()) + "%, central+traffic " +
              std::to_string(central_traffic.avg()) + "%, distributed " +
              std::to_string(distributed.avg()) + "%");
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
