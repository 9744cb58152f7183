// Per-node congestion telemetry: the starvation monitor (Algorithm 2). The
// other controller input, IPF, is a division the simulator does at each
// epoch boundary (and again over the measurement window for results).
//
// Starvation (§3.1): sigma = (1/W) * sum over the last W cycles of
// starved(i), where starved means "tried to inject a flit but could not"
// (whether blocked by the network or by the throttling gate — Algorithm 3
// sets the starved bit on throttle blocks too). Hardware cost per node: a
// W-bit shift register and an up-down counter (§6.5).
//
// IPF (§4): instructions retired in an epoch divided by flits of traffic
// associated with the application in that epoch (requests it injected plus
// responses generated on its behalf). IPF depends only on the program's L1
// miss behaviour — not on how much service the network is giving it — which
// is what makes it a stable throttling criterion.
#pragma once

#include <cstdint>

#include "common/stats.hpp"

namespace nocsim {

/// W, the starvation window in cycles (§6.1).
inline constexpr int kStarvationWindow = 128;

class StarvationMonitor {
 public:
  explicit StarvationMonitor(int window = kStarvationWindow) : window_(window) {}

  void record(bool starved) {
    window_.record(starved);
    if (starved) ++starved_cycles_;
    ++observed_cycles_;
  }

  /// Batch form of record(false) x k: k cycles in which the node did not
  /// even try to inject. Bit-exact with the per-cycle loop; lets the
  /// simulator skip idle NIs and replay the gap on wake-up.
  void record_idle(std::uint64_t k) {
    window_.record_zeros(k);
    observed_cycles_ += k;
  }

  /// sigma over the last W cycles (the control signal).
  [[nodiscard]] double windowed_rate() const { return window_.rate(); }

  /// Long-run starvation fraction since the last reset (the reported
  /// metric: starved cycles / all cycles).
  [[nodiscard]] double lifetime_rate() const {
    return observed_cycles_
               ? static_cast<double>(starved_cycles_) / static_cast<double>(observed_cycles_)
               : 0.0;
  }

  void reset_lifetime() {
    starved_cycles_ = 0;
    observed_cycles_ = 0;
  }

 private:
  SlidingWindowRate window_;
  std::uint64_t starved_cycles_ = 0;
  std::uint64_t observed_cycles_ = 0;
};

}  // namespace nocsim
