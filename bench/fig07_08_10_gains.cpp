// Figures 7, 8 and 10: the headline result — system-throughput and
// weighted-speedup improvements of the congestion-control mechanism on
// multiprogrammed workloads in 4x4 and 8x8 meshes.
//
// Paper: up to 27.6% throughput gain, ~15% average in congested workloads
// (baseline utilization > 0.7); gains concentrate in the H and HM
// categories and vanish for L/ML (adequately provisioned network);
// weighted speedup improves up to ~17-18%, confirming the mechanism does
// not cheat by starving low-IPC applications.
//
// One binary regenerates all three figures because they share the same
// (baseline, throttled) workload sweep:
//   panel "fig7":  per-workload % throughput gain vs baseline utilization
//   panel "fig8":  min/avg/max gain per category and mesh size
//   panel "fig10": per-workload % weighted-speedup gain vs utilization
#include <map>

#include "bench_util.hpp"

namespace nocsim::bench {
namespace {

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const int seeds = flags.get_int("seeds", 3, "workloads per category per mesh size", 1);
  const auto measure = flags.get_cycles("cycles", 120'000, 1, "measured cycles per run");
  const bool with_8x8 = flags.get_bool("with-8x8", true, "include the 8x8 mesh");
  const bool with_ws = flags.get_bool("weighted-speedup", true,
                                      "compute Fig. 10 (needs alone-runs; slower)");
  SweepContext sweep(flags);
  if (flags.finish()) return 0;

  std::vector<int> sides = {4};
  if (with_8x8) sides.push_back(8);

  // Enumerate the whole (mesh, category, seed) population up front; each
  // workload contributes a (baseline, throttled) pair of sweep points
  // sharing a seed stream.
  struct Job {
    std::string category;
    int side;
    int seed;
    WorkloadSpec wl;
  };
  std::vector<Job> jobs;
  for (const int side : sides) {
    for (const std::string& cat : workload_categories()) {
      for (int s = 0; s < seeds; ++s) {
        Rng rng(1000 * side + 31 * s + 7);
        jobs.push_back({cat, side, s, make_category_workload(cat, side * side, rng)});
      }
    }
  }
  std::vector<SweepPoint> points;
  points.reserve(2 * jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const Job& job = jobs[j];
    SimConfig c = small_noc_config(measure, 1);
    c.width = c.height = job.side;
    c.seed = job.seed + 1;
    const std::string tag = std::to_string(job.side) + "x" + std::to_string(job.side) + "/" +
                            job.category + "-" + std::to_string(job.seed);
    points.push_back({c, job.wl, tag + "/base", j});
    SimConfig cc = c;
    cc.cc = CcMode::Central;
    points.push_back({cc, job.wl, tag + "/cc", j});
  }
  const std::vector<SimResult> results = sweep.runner().run(points);

  // Alone-run IPCs for weighted speedup, primed in parallel per mesh size
  // (the cache key is the application, and the base network differs by side).
  std::vector<double> ws_gain(jobs.size(), 0.0);
  if (with_ws) {
    for (const int side : sides) {
      SimConfig base_cfg = small_noc_config(measure, 1);
      base_cfg.width = base_cfg.height = side;
      AloneIpcCache alone(base_cfg);
      std::vector<WorkloadSpec> side_wls;
      for (const Job& job : jobs) {
        if (job.side == side) side_wls.push_back(job.wl);
      }
      alone.prime(side_wls, sweep.runner());
      for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (jobs[j].side != side) continue;
        const auto alone_ipc = alone.get(jobs[j].wl);
        ws_gain[j] = 100.0 * (weighted_speedup(results[2 * j + 1], alone_ipc) /
                                  weighted_speedup(results[2 * j], alone_ipc) -
                              1.0);
      }
    }
  }

  struct Row {
    std::string category;
    int side;
    double util, gain_pct, ws_gain_pct;
  };
  std::vector<Row> rows;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const SimResult& base = results[2 * j];
    const SimResult& thr = results[2 * j + 1];
    rows.push_back({jobs[j].category, jobs[j].side, base.utilization,
                    100.0 * (thr.system_throughput() / base.system_throughput() - 1.0),
                    ws_gain[j]});
  }

  CsvWriter csv(std::cout);
  csv.comment("Figure 7: % system-throughput improvement vs baseline network utilization.");
  csv.comment("Paper: up to 27.6% gain; 14.7% average in congested (util > 0.7) workloads.");
  csv.header({"panel", "mesh", "category", "baseline_utilization", "throughput_gain_pct"});
  GainStats congested;
  for (const Row& r : rows) {
    csv.row("fig7", std::to_string(r.side) + "x" + std::to_string(r.side), r.category,
            r.util, r.gain_pct);
    if (r.util > 0.60) congested.add(r.gain_pct);
  }
  csv.comment("congested (util>0.6) workloads: avg gain " + std::to_string(congested.avg()) +
              "%, max " + std::to_string(congested.max) + "% over " +
              std::to_string(congested.n) + " workloads");

  csv.comment("");
  csv.comment("Figure 8: gain breakdown by workload category (min/avg/max).");
  csv.comment("Paper: H and HM benefit most; L and ML barely change.");
  csv.header({"panel", "mesh", "category", "min_gain_pct", "avg_gain_pct", "max_gain_pct"});
  for (const int side : sides) {
    std::map<std::string, GainStats> by_cat;
    GainStats all;
    for (const Row& r : rows) {
      if (r.side != side) continue;
      by_cat[r.category].add(r.gain_pct);
      all.add(r.gain_pct);
    }
    const std::string mesh = std::to_string(side) + "x" + std::to_string(side);
    csv.row("fig8", mesh, "All", all.min, all.avg(), all.max);
    for (const std::string& cat : workload_categories()) {
      const GainStats& g = by_cat[cat];
      csv.row("fig8", mesh, cat, g.min, g.avg(), g.max);
    }
  }

  if (with_ws) {
    csv.comment("");
    csv.comment("Figure 10: % weighted-speedup improvement vs baseline utilization.");
    csv.comment("Paper: up to 17.2% (4x4) / 18.2% (8x8); no unfair starvation of low-IPC apps.");
    csv.header({"panel", "mesh", "category", "baseline_utilization", "ws_gain_pct"});
    for (const Row& r : rows) {
      csv.row("fig10", std::to_string(r.side) + "x" + std::to_string(r.side), r.category,
              r.util, r.ws_gain_pct);
    }
  }
  sweep.flush();
  return 0;
}

}  // namespace
}  // namespace nocsim::bench

int main(int argc, char** argv) { return nocsim::bench::run(argc, argv); }
