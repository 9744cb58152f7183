// Section 6.4: sensitivity of the mechanism to its algorithm parameters —
// alpha/beta/gamma for both the starvation threshold (Eq. 1) and the
// throttling rate (Eq. 2), plus the controller epoch T.
//
// Paper findings (directions we expect to reproduce):
//   alpha_starve: > 0.6 under-throttles (-25%); < 0.3 over-throttles (-12%)
//   beta_starve:  0.0 best; 0.05-0.2 miss throttling activations (-10-15%)
//   gamma_starve: insensitive
//   alpha_throt:  optimum ~0.9; >1.0 over-throttles low-intensity apps
//   beta_throt:   small values fine; 0.25 over-throttles sensitive apps
//   gamma_throt:  0.75 best; 0.85 hurts (-30%); <0.65 under-throttles
//   epoch:        1k slightly better but costly; 1M too sluggish
#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const int seeds = flags.get_int("seeds", 3, "congested workloads per point", 1);
  const auto measure = flags.get_cycles("cycles", 120'000, 1, "measured cycles per run");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  // Congested workload population (HM mixes exercise the mechanism most).
  std::vector<WorkloadSpec> workloads;
  for (int s = 0; s < seeds; ++s) {
    Rng rng(77 + 13 * s);
    workloads.push_back(make_category_workload("HM", 16, rng));
  }

  // The full (parameter, value) grid, in emission order.
  struct Arm {
    std::string param;
    double value;
    CcParams params;
  };
  std::vector<Arm> arms;
  for (const double v : {0.2, 0.3, 0.4, 0.6, 0.8}) {
    CcParams p;
    p.alpha_starve = v;
    arms.push_back({"alpha_starve", v, p});
  }
  for (const double v : {0.0, 0.05, 0.1, 0.2}) {
    CcParams p;
    p.beta_starve = v;
    arms.push_back({"beta_starve", v, p});
  }
  for (const double v : {0.5, 0.7, 0.9}) {
    CcParams p;
    p.gamma_starve = v;
    arms.push_back({"gamma_starve", v, p});
  }
  for (const double v : {0.5, 0.7, 0.9, 1.1, 1.3}) {
    CcParams p;
    p.alpha_throt = v;
    arms.push_back({"alpha_throt", v, p});
  }
  for (const double v : {0.0, 0.1, 0.2, 0.3}) {
    CcParams p;
    p.beta_throt = v;
    arms.push_back({"beta_throt", v, p});
  }
  for (const double v : {0.55, 0.65, 0.75, 0.85, 0.95}) {
    CcParams p;
    p.gamma_throt = v;
    arms.push_back({"gamma_throt", v, p});
  }
  for (const double v : {2'000.0, 8'000.0, 15'000.0, 40'000.0, 120'000.0}) {
    arms.push_back({"epoch", v, CcParams{}});
  }

  // One baseline run per workload serves every arm (the serial driver
  // recomputed the identical baseline for each parameter point), plus one
  // throttled run per (arm, workload). Workload index keys the seed stream
  // so each arm compares against its baseline under --derive-seeds too.
  std::vector<SweepPoint> points;
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    points.push_back({small_noc_config(measure, i + 1), workloads[i],
                      "base/s" + std::to_string(i), i});
  }
  for (const Arm& arm : arms) {
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      SimConfig cc = small_noc_config(measure, i + 1);
      cc.cc = CcMode::Central;
      cc.cc_params = arm.params;
      // Scaled epoch unless this arm sweeps the epoch itself.
      cc.cc_params.epoch = small_noc_config(measure, i + 1).cc_params.epoch;
      if (arm.param == "epoch") cc.cc_params.epoch = static_cast<Cycle>(arm.value);
      points.push_back({cc, workloads[i],
                        arm.param + "=" + std::to_string(arm.value) + "/s" + std::to_string(i),
                        i});
    }
  }
  const std::vector<SimResult> results = sweep.runner().run(points);

  CsvWriter csv(std::cout);
  csv.comment("Section 6.4: parameter sensitivity; mean % throughput gain over " +
              std::to_string(seeds) + " congested HM workloads (defaults: a_s=0.4 b_s=0");
  csv.comment("g_s=0.7 a_t=0.9 b_t=0.2 g_t=0.75; epochs scaled to run length).");
  csv.header({"parameter", "value", "avg_gain_pct"});

  std::size_t k = workloads.size();  // throttled results start after the baselines
  for (const Arm& arm : arms) {
    double gain_sum = 0;
    for (std::size_t i = 0; i < workloads.size(); ++i) {
      const double b = results[i].system_throughput();
      const double t = results[k++].system_throughput();
      gain_sum += 100.0 * (t / b - 1.0);
    }
    csv.row(arm.param, arm.value, gain_sum / static_cast<double>(workloads.size()));
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
