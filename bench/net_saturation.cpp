// Open-loop network characterization: latency and delivered throughput vs
// offered load, for BLESS (strict-XY and minimal-adaptive) and the buffered
// VC router, under classic synthetic patterns.
//
// This is the standard interconnection-network methodology (Dally & Towles)
// that the paper's §3 analysis presumes: it locates each fabric's
// saturation point and shows the bufferless network's signature behaviours
// — stable in-network latency, admission-side backpressure (flits queue at
// the NI, visible as the gap between offered and accepted load), and
// deflection-inflated hop counts near saturation.
#include <deque>
#include <memory>

#include "bench_util.hpp"
#include "noc/bless_fabric.hpp"
#include "noc/buffered_fabric.hpp"
#include "noc/traffic.hpp"

namespace nocsim::bench {
namespace {

struct OpenLoopResult {
  double accepted = 0;   ///< flits delivered / node / cycle
  double net_latency = 0;
  double total_latency = 0;
  double hops = 0;
  double deflections = 0;
};

OpenLoopResult run_open_loop(Fabric& fabric, const TrafficPattern& pattern, double rate,
                             Cycle cycles, std::uint64_t seed) {
  const int n = fabric.topology().num_nodes();
  std::vector<std::deque<Flit>> queues(n);
  std::uint64_t delivered = 0;
  fabric.set_eject_sink([&](NodeId, const Flit&) { ++delivered; });
  Rng rng(seed);
  PacketSeq seq = 0;
  for (Cycle now = 0; now < cycles; ++now) {
    fabric.begin_cycle(now);
    for (NodeId node = 0; node < n; ++node) {
      if (rng.next_bool(rate)) {
        Flit f;
        f.src = node;
        f.dst = pattern.pick(node, rng);
        f.packet = static_cast<std::uint32_t>(seq++);
        f.enqueue_cycle = static_cast<std::uint32_t>(now);
        queues[node].push_back(f);
      }
      if (!queues[node].empty() && fabric.can_accept(node)) {
        fabric.request_inject(node, queues[node].front());
        queues[node].pop_front();
      }
    }
    fabric.step(now);
  }
  const FabricStats& s = fabric.stats();
  return OpenLoopResult{
      static_cast<double>(delivered) / static_cast<double>(cycles) / n,
      s.net_latency.mean(), s.total_latency.mean(), s.hops_per_flit.mean(),
      s.deflections_per_flit.mean()};
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const int side = flags.get_int("side", 8, "mesh side", 2);
  const auto cycles = flags.get_cycles("cycles", 20'000, 1, "cycles per load point");
  const std::string pattern_name =
      flags.get_string("pattern", "uniform", "uniform | transpose | hotspot | exponential");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  // The topology and pattern are shared read-only; every task builds its own
  // fabric and writes its own result slot (this bench has no Simulator, so
  // it rides the runner's generic run_indexed escape hatch).
  const Mesh mesh(side, side);
  const auto pattern = make_traffic_pattern(pattern_name, mesh, 1.0);
  const std::uint64_t seed = 11;

  const std::vector<std::string> arch_names = {"bless-xy", "bless-adaptive", "buffered"};
  const std::vector<double> rates = {0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.40, 0.55};
  std::vector<OpenLoopResult> results(arch_names.size() * rates.size());

  sweep.runner().run_indexed(results.size(), [&](std::size_t i) {
    const std::size_t a = i / rates.size();
    const double rate = rates[i % rates.size()];
    const std::string& arch = arch_names[a];
    std::unique_ptr<Fabric> fabric;
    if (arch == "bless-xy")
      fabric = std::make_unique<BlessFabric>(mesh, 2, 1, BlessRouting::StrictXY);
    else if (arch == "bless-adaptive")
      fabric = std::make_unique<BlessFabric>(mesh, 2, 1, BlessRouting::MinimalAdaptive);
    else
      fabric = std::make_unique<BufferedFabric>(mesh);
    results[i] = run_open_loop(*fabric, *pattern, rate, cycles, seed);

    RunRecord rec;
    rec.label = arch + "@" + std::to_string(rate);
    rec.config_hash = derive_seed(a + 1, static_cast<std::uint64_t>(rate * 10'000));
    rec.seed = seed;
    rec.cycles = cycles;
    rec.system_throughput = results[i].accepted;
    rec.avg_net_latency = results[i].net_latency;
    rec.utilization = results[i].accepted;
    rec.deflection_rate = results[i].deflections;
    return rec;
  });

  CsvWriter csv(std::cout);
  csv.comment("Open-loop saturation study, " + std::to_string(side) + "x" +
              std::to_string(side) + " mesh, " + pattern_name + " traffic.");
  csv.comment("accepted = delivered flits/node/cycle; total latency includes NI queueing.");
  csv.comment("BLESS signature: net latency stays low past saturation while total latency");
  csv.comment("diverges (admission backpressure); deflections/flit climb with load.");
  csv.header({"arch", "offered_rate", "accepted_rate", "net_latency", "total_latency",
              "hops_per_flit", "deflections_per_flit"});

  std::size_t k = 0;
  for (const std::string& arch : arch_names) {
    for (const double rate : rates) {
      const OpenLoopResult& r = results[k++];
      csv.row(arch, rate, r.accepted, r.net_latency, r.total_latency, r.hops, r.deflections);
    }
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
