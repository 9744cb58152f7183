#include "sim/experiment.hpp"

#include <algorithm>
#include <set>

#include "sim/sweep.hpp"

namespace nocsim {
namespace {

/// The alone-run layout: the app by itself at a central position of the base
/// network.
WorkloadSpec alone_workload(const SimConfig& base, int num_nodes, const std::string& app) {
  WorkloadSpec alone;
  alone.category = "alone:" + app;
  alone.app_names.assign(static_cast<std::size_t>(num_nodes), "");
  const NodeId spot = base.width / 2 + (base.height / 2) * base.width;
  alone.app_names[spot] = app;
  return alone;
}

}  // namespace

SimResult run_workload(const SimConfig& config, const WorkloadSpec& workload) {
  Simulator sim(config, workload);
  return sim.run();
}

AloneIpcCache::AloneIpcCache(SimConfig base) : base_(std::move(base)) {
  base_.cc = CcMode::None;  // IPC_alone is interference-free by definition
}

std::vector<double> AloneIpcCache::get(const WorkloadSpec& workload) const {
  std::vector<double> out(workload.app_names.size(), 0.0);
  for (NodeId i = 0; i < static_cast<NodeId>(workload.app_names.size()); ++i) {
    const std::string& app = workload.app_names[i];
    if (app.empty()) continue;
    const auto it = cache_.find(app);
    NOCSIM_CHECK_MSG(it != cache_.end(), "alone IPC not primed for this application");
    out[i] = it->second;
  }
  return out;
}

void AloneIpcCache::prime(const std::vector<WorkloadSpec>& workloads, SweepRunner& runner) {
  std::set<std::string> missing;  // sorted: deterministic point order
  std::size_t num_nodes = 0;
  for (const WorkloadSpec& wl : workloads) {
    num_nodes = std::max(num_nodes, wl.app_names.size());
    for (const std::string& app : wl.app_names) {
      if (!app.empty() && !cache_.count(app)) missing.insert(app);
    }
  }
  if (missing.empty()) return;

  std::vector<SweepPoint> points;
  points.reserve(missing.size());
  for (const std::string& app : missing) {
    points.push_back(SweepPoint{base_, alone_workload(base_, static_cast<int>(num_nodes), app),
                                "alone:" + app, std::nullopt});
  }
  // Alone IPC is defined by the base config's own seed (the cache would
  // otherwise hold different values depending on each app's position in the
  // point list), so seed derivation is pinned off for these runs.
  SweepOptions options = runner.options();
  options.derive_seeds = false;
  SweepRunner alone_runner(options);
  const std::vector<SimResult> results = alone_runner.run(points);

  const NodeId spot = base_.width / 2 + (base_.height / 2) * base_.width;
  std::size_t i = 0;
  for (const std::string& app : missing) cache_.emplace(app, results[i++].nodes[spot].ipc);
}

SimConfig scaled_config(const SimConfig& base, int side) {
  SimConfig config = base;
  config.width = side;
  config.height = side;
  return config;
}

}  // namespace nocsim
