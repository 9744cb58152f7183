// Section 7 ("Traffic Engineering") exploration: regional hot-spots.
//
// The paper observes that multithreaded / co-located workloads create
// regional hot-spots, that source throttling gives only small gains there
// (it is a rate mechanism, not a routing one), and speculates that routing
// around the hot-spot — traffic engineering — would help more.
//
// This bench builds that scenario: a cluster of network-heavy applications
// in one corner of an 8x8 mesh (with exponential locality, so their traffic
// stays regional) surrounded by light applications, and compares:
//   - baseline BLESS (strict XY),
//   - the paper's congestion controller (rate control),
//   - minimal-adaptive deflection preference (a primitive form of routing
//     around contention),
//   - both combined.
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto measure = flags.get_cycles("cycles", 100'000, 1, "measured cycles per run");
  const int cluster = flags.get_int("cluster", 3, "side of the hot corner cluster", 1);
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  // Heavy cluster in the top-left corner; light apps elsewhere.
  const int side = 8;
  WorkloadSpec wl;
  wl.category = "hotspot";
  Rng rng(5);
  const auto heavy = apps_in_class(IntensityClass::Heavy);
  const auto light = apps_in_class(IntensityClass::Light);
  for (int y = 0; y < side; ++y) {
    for (int x = 0; x < side; ++x) {
      const bool hot = (x < cluster && y < cluster);
      const auto& pool = hot ? heavy : light;
      wl.app_names.push_back(pool[rng.next_below(pool.size())]->name);
    }
  }

  // Four variants of the same scenario; one seed stream so all arms compare
  // like for like under --derive-seeds.
  SimConfig base;
  base.width = base.height = side;
  base.l2_map = "exponential";
  base.warmup_cycles = 20'000;
  base.measure_cycles = measure;
  base.cc_params.epoch = measure / 8;

  SimConfig cc = base;
  cc.cc = CcMode::Central;

  SimConfig adaptive = base;
  adaptive.adaptive_routing = true;

  SimConfig both = adaptive;
  both.cc = CcMode::Central;

  const std::vector<SweepPoint> points = {
      {base, wl, "bless-xy", 0},
      {cc, wl, "bless-xy+throttling", 0},
      {adaptive, wl, "bless-adaptive", 0},
      {both, wl, "bless-adaptive+throttling", 0},
  };
  const std::vector<SimResult> results = sweep.runner().run(points);

  CsvWriter csv(std::cout);
  csv.comment("Section 7 exploration: " + std::to_string(cluster) + "x" +
              std::to_string(cluster) + " heavy cluster in an 8x8 mesh of light apps,");
  csv.comment("exponential locality (regional traffic). Paper: source throttling gives");
  csv.comment("only small gains on hot-spots; routing around them should do better.");
  csv.header({"variant", "cluster_ipc_per_node", "rest_ipc_per_node", "system_ipc",
              "cluster_starvation", "avg_net_latency"});

  for (std::size_t p = 0; p < points.size(); ++p) {
    const SimResult& r = results[p];
    double cluster_ipc = 0, rest_ipc = 0, cluster_starv = 0;
    int nc = 0, nr = 0;
    for (int i = 0; i < side * side; ++i) {
      const bool hot = (i % side) < cluster && (i / side) < cluster;
      if (hot) {
        cluster_ipc += r.nodes[i].ipc;
        cluster_starv += r.nodes[i].starvation;
        ++nc;
      } else {
        rest_ipc += r.nodes[i].ipc;
        ++nr;
      }
    }
    csv.row(points[p].label, cluster_ipc / nc, rest_ipc / nr, r.system_throughput(),
            cluster_starv / nc, r.avg_net_latency);
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
