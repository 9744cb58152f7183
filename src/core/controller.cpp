#include "core/controller.hpp"

#include "common/check.hpp"

namespace nocsim {

bool CentralController::on_epoch(std::span<const NodeTelemetry> telemetry,
                                 const NetTelemetry& net, std::span<double> rates) {
  NOCSIM_CHECK(telemetry.size() == rates.size());
  const auto n = telemetry.size();

  // Determine congestion state: the system is congested if *any* node's
  // starvation exceeds its intensity-adjusted threshold (Eq. 1). The
  // threshold scales with 1/IPF because network-intensive applications
  // naturally starve more at their higher injection rates.
  bool congested = false;
  for (const NodeTelemetry& t : telemetry) {
    if (t.starvation_rate > params_.starve_threshold(t.ipf)) {
      congested = true;
      break;
    }
  }

  // Whom to throttle: nodes whose IPF is below the mean (low IPF = high
  // network intensity = the heavy injectors). Nodes that produced *no*
  // traffic this epoch report the sentinel cap; including it would drag the
  // mean far above every real application and mark everything "below
  // average", so the mean is taken over traffic-producing nodes only —
  // zero-traffic nodes cannot be worth throttling anyway.
  double mean_ipf = 0.0;
  std::size_t finite = 0;
  for (const NodeTelemetry& t : telemetry) {
    if (t.ipf < kIpfCap) {
      mean_ipf += t.ipf;
      ++finite;
    }
  }
  mean_ipf = finite ? mean_ipf / static_cast<double>(finite)
                    : -1.0;  // nobody injected: nothing is below the mean
  last_mean_ipf_ = mean_ipf;

  // Escalation extension (see CcParams): while the network shows
  // pathological hop inflation despite throttling, raise the pressure; relax
  // once the deflection orbits collapse.
  if (params_.escalation) {
    if (congested && net.hop_inflation > kEscalationInflationThreshold) {
      // Bounded multiplier: the per-node rate is clamped to kRateCeiling
      // below anyway; 4x merely bounds the state variable.
      escalation_ = std::min(escalation_ * kEscalationStep, 4.0);
    } else {
      escalation_ = std::max(1.0, escalation_ * kEscalationDecay);
    }
  } else {
    escalation_ = 1.0;
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (congested && telemetry[i].ipf < mean_ipf) {
      rates[i] = std::min(params_.throttle_rate(telemetry[i].ipf) * escalation_,
                          kRateCeiling);  // Eq. 2 (escalated)
    } else {
      rates[i] = 0.0;
    }
  }
  return congested;
}

}  // namespace nocsim
