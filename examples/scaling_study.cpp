// Scenario: a quick architecture-exploration study — "will my bufferless
// design scale to the next product generation, and does congestion control
// change the answer?"
//
// Sweeps mesh sizes with fixed exponential data locality and compares the
// three architectures of the paper's §6.3 (baseline BLESS, BLESS with the
// congestion controller, and a 4-VC buffered router), printing per-node
// throughput and the relative power of each design point.
//
//   $ ./build/examples/scaling_study [--max-side=16] [--cycles=60000]
#include <cstdio>

#include "common/flags.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace nocsim;
  Flags flags(argc, argv);
  const int max_side = flags.get_int("max-side", 16, "largest mesh side to sweep", 4);
  const auto base_cycles = flags.get_cycles("cycles", 80'000, 1, "measured cycles at 4x4");
  if (flags.finish()) return 0;

  std::printf("%6s %-18s %10s %10s %10s %10s\n", "cores", "architecture", "ipc/node",
              "latency", "util", "power/cyc");
  for (int side = 4; side <= max_side; side *= 2) {
    Rng rng(101);
    const WorkloadSpec wl = make_category_workload("H", side * side, rng);
    const Cycle measure = std::max<Cycle>(20'000, base_cycles / (side / 4));
    for (const std::string& arch :
         {std::string("BLESS"), std::string("BLESS+CC"), std::string("Buffered")}) {
      SimConfig c;
      c.width = c.height = side;
      c.l2_map = "exponential";  // compiler/OS data placement: lambda = 1
      c.warmup_cycles = measure / 5;
      c.measure_cycles = measure;
      c.cc_params.epoch = std::max<Cycle>(5'000, measure / 8);
      if (arch == "BLESS+CC") c.cc = CcMode::Central;
      if (arch == "Buffered") c.router = RouterKind::Buffered;
      const SimResult r = run_workload(c, wl);
      std::printf("%6d %-18s %10.3f %10.1f %10.2f %10.0f\n", side * side, arch.c_str(),
                  r.ipc_per_node(), r.avg_net_latency, r.utilization,
                  r.power.average_power(r.cycles));
    }
  }
  std::printf("\nReading the table: without CC, IPC/node decays as the mesh grows even\n");
  std::printf("though each node's data stays ~1 hop away; CC restores near-flat scaling\n");
  std::printf("at a fraction of the buffered router's power.\n");
  return 0;
}
