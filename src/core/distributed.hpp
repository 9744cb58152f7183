// Distributed ("TCP-like") congestion control — the §6.6 comparison point.
//
// No central coordinator and no epochs. Instead:
//   (i)  while a node's windowed starvation rate exceeds a marking
//        threshold, its router sets a "congested" bit on every flit that
//        passes through it (the fabric implements the marking);
//   (ii) when a node receives a packet whose congested bit is set, it
//        self-throttles — analogous to a TCP sender backing off on a
//        congestion signal from anywhere along the path.
// The self-throttle rate uses the node's own locally-measured IPF via the
// same Eq. 2 formula, and decays after a hold period with no further marks.
//
// The paper found this variant markedly less effective than central
// coordination because the feedback is not application-aware: the *marked*
// packet's receiver backs off, regardless of whether throttling it helps.
// Reproducing that gap is the point of bench/sens_central_vs_distributed.
#pragma once

#include <cstdint>
#include <vector>

#include "core/controller.hpp"

namespace nocsim {

struct DistributedCcParams {
  double mark_threshold = 0.30;  ///< sigma above which a node marks flits
  Cycle hold_cycles = 50'000;    ///< how long one mark keeps a node throttled
  Cycle mark_update_period = 128;///< how often marking state is re-evaluated
};

/// Per-node distributed state machine; the simulator calls the hooks.
class DistributedCoordinator {
 public:
  DistributedCoordinator(int num_nodes, CcParams cc, DistributedCcParams dist)
      : cc_(cc),
        dist_(dist),
        until_(num_nodes, 0),
        ipf_(num_nodes, IpfSeed()),
        marks_(static_cast<std::size_t>(num_nodes), 0) {}

  /// Re-evaluate whether node n should be marking flits (call every
  /// mark_update_period cycles with the windowed sigma).
  [[nodiscard]] bool should_mark(double windowed_sigma) const {
    return windowed_sigma > dist_.mark_threshold;
  }

  /// A packet with the congested bit set completed at node n. Touches only
  /// node n's state, so the tile that owns n may call it concurrently with
  /// other tiles.
  void on_marked_packet(NodeId n, Cycle now) {
    until_[n] = now + dist_.hold_cycles;
    ++marks_[static_cast<std::size_t>(n)];
  }

  /// Node n finished a local IPF epoch (local measurement only).
  void set_local_ipf(NodeId n, double ipf) { ipf_[n] = ipf; }

  /// Current self-throttle rate for node n.
  [[nodiscard]] double rate(NodeId n, Cycle now) const {
    if (now >= until_[n]) return 0.0;
    return cc_.throttle_rate(ipf_[n]);
  }

  /// Marked packets received, summed over nodes (serial sections).
  [[nodiscard]] std::uint64_t marks_received() const {
    std::uint64_t sum = 0;
    for (const std::uint64_t m : marks_) sum += m;
    return sum;
  }
  [[nodiscard]] const DistributedCcParams& params() const { return dist_; }

 private:
  static constexpr double IpfSeed() { return 1e9; }  // unknown until first epoch

  CcParams cc_;
  DistributedCcParams dist_;
  std::vector<Cycle> until_;
  std::vector<double> ipf_;
  std::vector<std::uint64_t> marks_;  ///< marked packets received, per node
};

}  // namespace nocsim
