// Scenario: cloud workload consolidation on a many-core chip.
//
// The paper motivates large CMPs with "cloud computing systems which
// aggregate many workloads onto one substrate" (§6.1). This example models
// an 8x8 (64-core) chip operated by a scheduler that co-locates latency-
// sensitive, CPU-bound services (high IPF) with batch/analytics jobs that
// hammer memory (low IPF), and asks the operator's question: *how much does
// enabling congestion control improve each tenant class?*
//
//   $ ./build/examples/cloud_consolidation [--batch-share=0.5]
#include <cstdio>
#include <map>

#include "common/flags.hpp"
#include "sim/experiment.hpp"

int main(int argc, char** argv) {
  using namespace nocsim;
  Flags flags(argc, argv);
  const double batch_share =
      flags.get_double("batch-share", 0.5, "fraction of cores running batch jobs");
  const auto measure = flags.get_cycles("cycles", 150'000, 1, "measured cycles");
  if (flags.finish()) return 0;

  // Tenant classes drawn from the Table 1 catalog.
  const std::vector<std::string> batch = {"mcf", "lbm", "milc", "libquantum", "leslie3d"};
  const std::vector<std::string> service = {"gromacs", "gcc", "h264ref", "povray", "sjeng"};

  Rng rng(7);
  WorkloadSpec wl;
  wl.category = "cloud-mix";
  for (int i = 0; i < 64; ++i) {
    const bool is_batch = rng.next_bool(batch_share);
    const auto& pool = is_batch ? batch : service;
    wl.app_names.push_back(pool[rng.next_below(pool.size())]);
  }

  SimConfig config;
  config.width = 8;
  config.height = 8;
  config.warmup_cycles = 25'000;
  config.measure_cycles = measure;
  config.cc_params.epoch = measure / 8;

  const SimResult base = run_workload(config, wl);
  SimConfig cc_cfg = config;
  cc_cfg.cc = CcMode::Central;
  const SimResult cc = run_workload(cc_cfg, wl);

  const auto tenant_ipc = [&](const SimResult& r, const std::vector<std::string>& pool) {
    double sum = 0;
    int n = 0;
    for (const NodeResult& node : r.nodes) {
      for (const auto& app : pool) {
        if (node.app == app) {
          sum += node.ipc;
          ++n;
          break;
        }
      }
    }
    return n ? sum / n : 0.0;
  };

  std::printf("64-core cloud consolidation, %.0f%% batch / %.0f%% service\n",
              100 * batch_share, 100 * (1 - batch_share));
  std::printf("baseline: util %.2f, starvation %.2f, system throughput %.1f IPC\n",
              base.utilization, base.avg_starvation, base.system_throughput());
  std::printf("with CC : util %.2f, starvation %.2f, system throughput %.1f IPC (%+.1f%%)\n",
              cc.utilization, cc.avg_starvation, cc.system_throughput(),
              100 * (cc.system_throughput() / base.system_throughput() - 1));
  std::printf("\nper-tenant-class average IPC:\n");
  std::printf("  batch    : %.3f -> %.3f (%+.1f%%)\n", tenant_ipc(base, batch),
              tenant_ipc(cc, batch),
              100 * (tenant_ipc(cc, batch) / tenant_ipc(base, batch) - 1));
  std::printf("  service  : %.3f -> %.3f (%+.1f%%)\n", tenant_ipc(base, service),
              tenant_ipc(cc, service),
              100 * (tenant_ipc(cc, service) / tenant_ipc(base, service) - 1));
  std::printf("\nThe controller throttles only the batch (low-IPF) tenants; the\n");
  std::printf("latency-sensitive services gain network admission (lower starvation).\n");
  return 0;
}
