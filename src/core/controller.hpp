// Congestion control, configured by CcMode plus CcParams (sim/config.hpp).
//
// CentralController is the paper's one control law (Algorithm 1): every T
// cycles it collects (IPF, sigma) from all nodes, decides whether the
// network is congested (Eq. 1), and if so throttles the nodes whose IPF is
// below the mean at a rate inversely proportional to their IPF (Eq. 2).
// Central coordination is cheap on-chip (§6.6): 2n control packets per
// epoch and a trivial computation.
//
// The other modes need no controller object. The two strawmen are fixed
// per-node rates the simulator applies at every epoch boundary: uniform
// static throttling (§3.1, Fig. 2(c)) and selective throttling of a chosen
// subset (Fig. 5). The §6.6 "TCP-like" congested-bit alternative is
// DistributedCoordinator (core/distributed.hpp), driven by per-packet
// feedback instead of epochs.
#pragma once

#include <algorithm>
#include <span>

#include "common/types.hpp"

namespace nocsim {

/// Algorithm parameters (§6.1 "Congestion Control Parameters", defaults as
/// evaluated; §6.4 sweeps their sensitivity).
struct CcParams {
  double alpha_starve = 0.40;  ///< congestion-threshold scale
  double beta_starve = 0.00;   ///< congestion-threshold lower bound
  double gamma_starve = 0.70;  ///< congestion-threshold upper bound
  double alpha_throt = 0.90;   ///< throttle-rate scale
  double beta_throt = 0.20;    ///< throttle-rate lower bound
  double gamma_throt = 0.75;   ///< throttle-rate upper bound
  Cycle epoch = 100'000;       ///< controller period T

  /// Escalation extension (ours; not in the paper; tunables below).
  bool escalation = true;

  /// Eq. 1: per-node congestion-detection threshold on sigma.
  [[nodiscard]] double starve_threshold(double ipf) const {
    return std::min(beta_starve + alpha_starve / ipf, gamma_starve);
  }
  /// Eq. 2: throttling rate for a node chosen for throttling.
  [[nodiscard]] double throttle_rate(double ipf) const {
    return std::min(beta_throt + alpha_throt / ipf, gamma_throt);
  }
};

// ---- escalation extension (ours; not in the paper) ------------------------
// Under convergent local traffic at large scale, the deflection-orbit
// equilibrium can be stable under the fixed gamma_throt ceiling: flits
// travel many times their minimal distance, yet per-node request demand
// sits below the throttled capacity, so Eq. 2 alone cannot clear it. The
// controller therefore watches the network's *hop inflation* (traversed /
// minimal hops — computable centrally from flit headers) and temporarily
// escalates throttling rates while inflation stays pathological, releasing
// once the orbits collapse. Small-network behaviour is unchanged (inflation
// there stays ~2, below the threshold). See DESIGN.md "Calibration" and
// bench/fig13_16_scaling for the ablation (CcParams::escalation = false).
inline constexpr double kEscalationInflationThreshold = 3.0;  ///< hop inflation that triggers it
inline constexpr double kEscalationStep = 1.2;    ///< multiplicative increase per epoch
inline constexpr double kEscalationDecay = 0.85;  ///< relaxation per calm epoch
inline constexpr double kRateCeiling = 0.95;      ///< absolute cap on any throttle rate

/// IPF reported by a node that injected no flits in an epoch (effectively
/// infinitely CPU-bound for that period); also the distributed variant's
/// IPF before a node's first epoch.
inline constexpr double kIpfCap = 1e9;

/// One node's per-epoch report to the controller.
struct NodeTelemetry {
  double ipf = 0.0;               ///< epoch instructions-per-flit
  double starvation_rate = 0.0;   ///< windowed sigma at epoch end
};

/// Network-wide per-epoch state (from fabric counters).
struct NetTelemetry {
  double hop_inflation = 1.0;  ///< traversed hops / minimal hops, this epoch
};

/// Algorithm 1, exactly (plus the escalation extension of CcParams).
class CentralController {
 public:
  explicit CentralController(CcParams params) : params_(params) {}

  /// Epoch boundary: read telemetry, write the next epoch's per-node
  /// throttling rates into `rates` (same length as `telemetry`). Returns
  /// whether the network was congested (Eq. 1).
  bool on_epoch(std::span<const NodeTelemetry> telemetry, const NetTelemetry& net,
                std::span<double> rates);

  [[nodiscard]] double last_mean_ipf() const { return last_mean_ipf_; }
  /// Current escalation multiplier (1.0 unless the extension is active).
  [[nodiscard]] double escalation() const { return escalation_; }

 private:
  CcParams params_;
  double last_mean_ipf_ = 0.0;
  double escalation_ = 1.0;
};

}  // namespace nocsim
