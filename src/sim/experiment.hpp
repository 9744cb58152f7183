// Experiment helpers shared by the bench binaries and examples.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"

namespace nocsim {

class SweepRunner;

/// Build and run one simulation.
SimResult run_workload(const SimConfig& config, const WorkloadSpec& workload);

/// Per-node alone-run IPCs for weighted speedup: node i's application runs
/// by itself (all other nodes idle) in the same network with no congestion
/// control. Cached per application (an app's alone IPC varies by <2% with
/// mesh position because the empty network adds almost no contention), so a
/// whole workload sweep needs at most one alone-run per catalog entry.
class AloneIpcCache {
 public:
  explicit AloneIpcCache(SimConfig base);

  /// IPC_alone for each node of `workload` (0.0 for idle nodes). Every
  /// application in it must have been primed.
  std::vector<double> get(const WorkloadSpec& workload) const;

  /// Run the alone-runs for every not-yet-cached application appearing in
  /// `workloads` through `runner` (one sweep point per application), so a
  /// whole workload sweep can look them up in parallel.
  void prime(const std::vector<WorkloadSpec>& workloads, SweepRunner& runner);

 private:
  SimConfig base_;
  std::map<std::string, double> cache_;
};

/// Convenience: scale a Table 2 config to an NxN mesh.
SimConfig scaled_config(const SimConfig& base, int side);

}  // namespace nocsim
