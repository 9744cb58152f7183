// Ablations of design choices called out in DESIGN.md:
//
//   torus:   §6.3 "same scalability trends in a torus topology (… yields a
//            ~10% throughput improvement for all networks)";
//   routing: strict-XY deflection (paper baseline) vs minimal-adaptive port
//            preference — adaptivity hides most of the congestion cost that
//            motivates throttling;
//   gate:    Algorithm 3's deterministic N-of-M injection gate vs the
//            randomized gate ("randomized algorithms can also be used") —
//            the deterministic gate blocks in long runs, adding latency to
//            lightly-injecting applications.
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const auto measure = flags.get_cycles("cycles", 100'000, 1, "measured cycles per run");
  const int scaling_side =
      flags.get_int("torus-side", 16, "mesh/torus side for the topology ablation", 2);
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  // All three ablations as one sweep. Point layout:
  //   0-1  topology: mesh, torus
  //   2-3  routing:  strict-xy, minimal-adaptive
  //   4-7  gate:     deterministic base/cc, randomized base/cc
  std::vector<SweepPoint> points;
  {
    Rng rng(101);
    const auto wl = make_category_workload("H", scaling_side * scaling_side, rng);
    for (const std::string& topo : {std::string("mesh"), std::string("torus")}) {
      SimConfig c = scaling_config(scaling_side, measure);
      c.topology = topo;
      points.push_back({c, wl, "topology/" + topo, 0});
    }
  }
  {
    Rng rng(7);
    const auto wl = make_category_workload("H", 16, rng);
    for (const bool adaptive : {false, true}) {
      SimConfig c = small_noc_config(measure, 3);
      c.adaptive_routing = adaptive;
      points.push_back({c, wl,
                        std::string("routing/") + (adaptive ? "minimal-adaptive" : "strict-xy"),
                        1});
    }
  }
  {
    Rng rng(7);
    const auto wl = make_category_workload("HM", 16, rng);
    std::size_t group = 2;
    for (const bool randomized : {false, true}) {
      const std::string gate = randomized ? "randomized" : "deterministic";
      SimConfig c = small_noc_config(measure, 3);
      c.randomized_throttle_gate = randomized;
      points.push_back({c, wl, "gate/" + gate + "/base", group});
      SimConfig cc = c;
      cc.cc = CcMode::Central;
      points.push_back({cc, wl, "gate/" + gate + "/cc", group});
      ++group;
    }
  }
  const std::vector<SimResult> results = sweep.runner().run(points);

  CsvWriter csv(std::cout);

  csv.comment("Ablation 1 (§6.3): mesh vs torus, BLESS baseline, exponential locality.");
  csv.comment("Paper: torus shows the same trends with ~10% higher throughput.");
  csv.header({"ablation", "variant", "ipc_per_node", "utilization", "avg_net_latency"});
  for (std::size_t i = 0; i < 2; ++i) {
    const SimResult& r = results[i];
    csv.row("topology", i == 0 ? "mesh" : "torus", r.ipc_per_node(), r.utilization,
            r.avg_net_latency);
  }

  csv.comment("");
  csv.comment("Ablation 2: BLESS port preference under a heavy 4x4 workload.");
  csv.comment("Strict XY (paper baseline) deflects on any contention; minimal-adaptive");
  csv.comment("accepts either productive port and hides much of the congestion cost.");
  csv.header({"ablation", "variant", "ipc_per_node", "deflections_per_flit",
              "avg_net_latency", "utilization"});
  for (std::size_t i = 2; i < 4; ++i) {
    const SimResult& r = results[i];
    csv.row("routing", i == 2 ? "strict-xy" : "minimal-adaptive", r.ipc_per_node(),
            r.avg_deflections, r.avg_net_latency, r.utilization);
  }

  csv.comment("");
  csv.comment("Ablation 3: Algorithm 3 deterministic gate vs randomized gate, with the");
  csv.comment("central mechanism active on a congested HM workload.");
  csv.header({"ablation", "variant", "cc_gain_pct"});
  for (std::size_t i = 0; i < 2; ++i) {
    const double base = results[4 + 2 * i].system_throughput();
    const double thr = results[5 + 2 * i].system_throughput();
    csv.row("throttle-gate", i == 0 ? "deterministic" : "randomized",
            100.0 * (thr / base - 1.0));
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
