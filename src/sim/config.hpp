// Simulation configuration. Defaults reproduce the paper's Table 2:
//
//   Network topology          2D mesh, 4x4 or 8x8
//   Routing algorithm         FLIT-BLESS
//   Router (link) latency     2 (1) cycles
//   Core model                out-of-order; 3 insns/cycle, 1 mem insn/cycle;
//                             128-instruction window
//   Cache block               32 bytes
//   L1 cache                  private, 128 KB, 4-way
//   L2 cache                  shared, distributed, perfect
//   L2 address mapping        per-block interleaving, XOR mapping;
//                             randomized exponential for locality studies
//
// The fixed system parameters are named constants, not SimConfig fields:
// kRouterLatency / kLinkLatency, kRequestFlits / kResponseFlits,
// kL2Latency and kPrewarmInstructions below; the core and L1 in the
// CoreParams defaults (cpu/core.hpp); the escalation extension's tunables
// (kEscalationInflationThreshold, kEscalationStep, kEscalationDecay,
// kRateCeiling) in core/controller.hpp; the distributed variant's marking
// constants (kMarkThreshold, kMarkHoldCycles, kMarkUpdatePeriod) in
// core/distributed.hpp. SimConfig holds only what a driver varies.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/controller.hpp"
#include "topology/topology.hpp"

namespace nocsim {

enum class RouterKind : std::uint8_t { Bless, Buffered };
enum class CcMode : std::uint8_t { None, Central, Distributed, Static, Selective };

/// Router pipeline and link traversal, cycles (a hop costs their sum).
inline constexpr int kRouterLatency = 2;
inline constexpr int kLinkLatency = 1;
/// Packetization: an L1 miss costs one request flit to the home slice and
/// a data response of 1 header + 32 B block / 16 B flit payload = 3 flits
/// (128-bit flits, the "typical" width of §2.1).
inline constexpr int kRequestFlits = 1;
inline constexpr int kResponseFlits = 3;
/// Home-slice (shared L2 bank) service latency, cycles.
inline constexpr Cycle kL2Latency = 12;
/// Functional L1 warm-up per core before cycle 0 (no timing): removes the
/// compulsory-miss transient from the measurement.
inline constexpr std::uint64_t kPrewarmInstructions = 60'000;

struct SimConfig {
  // Network.
  int width = 4;
  int height = 4;
  int depth = 1;  ///< z extent (mesh3d / torus3d; must be 1 for 2D families)
  std::string topology = "mesh";  ///< mesh | torus | mesh3d | torus3d | cmesh | irregular
  /// Graph file for topology == "irregular" (see IrregularTopology); its
  /// node count must equal width * height * depth.
  std::string topology_file;
  RouterKind router = RouterKind::Bless;
  /// BLESS port preference (paper baseline: strict XY; see bench/abl_routing).
  bool adaptive_routing = false;

  // L2 home mapping.
  std::string l2_map = "xor";  ///< stripe | xor | exponential
  double locality_lambda = 1.0;  ///< Exp(lambda): mean hop distance 1/lambda

  // Congestion control.
  CcMode cc = CcMode::None;
  CcParams cc_params;
  /// CcMode::Static, in [0, 1). Fig. 2(c) semantics: the strawman gates
  /// *every* injection ("all routers that desire to inject a flit are
  /// blocked"), responses included; every other mode gates requests only.
  double static_rate = 0.0;
  std::vector<double> selective_rates;      ///< CcMode::Selective (one per node)
  /// Throttle-gate implementation (Algorithm 3 deterministic counter vs the
  /// randomized gate the paper also mentions). See bench/abl_throttle_gate.
  bool randomized_throttle_gate = true;
  /// Model the controller's 2n control packets per epoch as real network
  /// traffic (default: oracle telemetry, as in the paper's evaluation; the
  /// overhead ablation turns this on).
  bool model_control_traffic = false;

  // Run control.
  std::uint64_t seed = 1;
  /// Intra-run sharding: partition the mesh into up to `shards` row-strip
  /// tiles, one worker thread per tile, inside a single simulation. Results
  /// are byte-identical to shards = 1 for every value (order-sensitive
  /// reductions are buffered per tile and replayed in ascending tile order).
  int shards = 1;
  /// Livelock/starvation watchdogs (opt-in; see src/sim/simulator.cpp,
  /// watchdog_check). When enabled, every `period` cycles the simulator
  /// scans the fabric for the oldest in-flight flit and every NI for its
  /// consecutive-blocked-injection streak, emits provenance events on
  /// threshold crossings, and — with `abort` — hard-stops the run. The
  /// checks read simulated state only, so enabling them never changes
  /// simulation results.
  struct WatchdogConfig {
    bool enabled = false;
    Cycle period = 1'000;             ///< check cadence, cycles
    Cycle max_flit_age = 100'000;     ///< in-flight age considered livelocked
    Cycle max_blocked_streak = 100'000;  ///< blocked-injection cycles considered starved
    bool abort = false;               ///< NOCSIM_CHECK-fail on any trip
  };
  WatchdogConfig watchdog;

  Cycle warmup_cycles = 20'000;
  Cycle measure_cycles = 200'000;
  /// Record per-epoch IPF samples (Table 1 variance measurement).
  bool record_epoch_ipf = false;

  /// Routers in the fabric.
  [[nodiscard]] int num_nodes() const { return width * height * depth; }
  /// Cores attached to the fabric ("cmesh" fans kConcentration cores into
  /// each router's NI; every other family has one core per router).
  [[nodiscard]] int num_cores() const {
    return num_nodes() * (topology == "cmesh" ? CMesh::kConcentration : 1);
  }
};

}  // namespace nocsim
