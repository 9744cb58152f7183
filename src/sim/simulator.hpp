// The closed-loop system simulator: cores + private L1s + distributed
// perfect L2 + network interfaces + fabric + congestion controller.
//
// This is the paper's methodology (§6.1): a cycle-level model in which the
// network's backpressure feeds back into the cores' presented load. Every
// cycle:
//   1. the fabric latches arrivals and due L2 responses/local fills are
//      delivered to the NIs;
//   2. every NI attempts to inject at most one flit — responses first and
//      never throttled, then requests through the Algorithm 3 gate — and
//      records its starvation bit;
//   3. the fabric routes and moves flits; ejections flow through packet
//      reassembly into the L2 slices (requests) and cores (responses);
//   4. cores retire and issue; L1 misses enqueue new request packets;
//   5. at epoch boundaries the central controller updates throttle rates
//      from (IPF, sigma) telemetry, or the fixed-rate modes re-apply theirs.
// Steps 1-4 run per tile of a ShardPlan (config.shards row strips; one
// tile by default), the tiles of a step in parallel; step 5 and the fabric's
// replay run serially. Results are identical for every tile count.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "common/shard.hpp"
#include "common/shard_annotations.hpp"
#include "common/shard_team.hpp"
#include "core/controller.hpp"
#include "core/distributed.hpp"
#include "core/monitor.hpp"
#include "core/throttler.hpp"
#include "cpu/core.hpp"
#include "cpu/l2map.hpp"
#include "noc/fabric.hpp"
#include "noc/flit_ring.hpp"
#include "noc/reassembly.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/workload.hpp"

namespace nocsim {

class EventLog;
class PhaseProfiler;

class Simulator {
 public:
  Simulator(SimConfig config, WorkloadSpec workload);

  /// Warmup (stats discarded) then measurement; returns the full result.
  SimResult run();

  /// Append one row to `hub` (which must outlive the simulator) every hub
  /// sample period; a period of 0 adopts the controller epoch, so each row
  /// carries exactly the per-node (sigma, IPF) values Algorithm 1 consumed
  /// and the throttle rates it decided. Call once, before run(). With no
  /// hub attached the per-cycle cost is one null-pointer test.
  void attach_telemetry(TelemetryHub* hub);

  /// Attach a flit-level event tracer (forwarded to the fabric; see
  /// telemetry/flit_trace.hpp). Pass nullptr to detach.
  void attach_tracer(FlitEventSink* tracer) { fabric_->set_trace_sink(tracer); }

  /// Attach the wall-clock phase profiler (must outlive the simulator):
  /// registers the cycle-loop phases, sizes the per-tile slots, wires the
  /// ShardTeam barrier probe, and enables it. Call once, before run().
  /// With no profiler attached each phase costs one null-pointer test.
  /// Profiling never reads or writes simulated state, so results stay
  /// byte-identical with it on.
  void attach_profiler(PhaseProfiler* prof);

  /// Attach the congestion-provenance event log (must outlive the
  /// simulator). Call once, before run(). Events are emitted only from
  /// serial sections and carry only simulated state, so the stream is
  /// byte-identical across shard counts and attaching it never changes
  /// simulation results.
  void attach_events(EventLog* log);

  /// Highest in-flight flit age seen at any watchdog check (0 until the
  /// watchdog runs). Deterministic: a pure function of (config, seed).
  [[nodiscard]] Cycle max_flit_age_watermark() const { return wd_max_age_; }
  /// Current consecutive-blocked-injection streak of router n's NI.
  [[nodiscard]] Cycle blocked_streak(NodeId n) const { return nis_[n].blocked_streak; }

  /// Router whose NI serves core `c` (identity except on concentrated
  /// topologies, where `concentration` cores share each router).
  [[nodiscard]] NodeId router_of(NodeId c) const { return c / conc_; }

  /// Finer-grained control (tests): advance some cycles without the
  /// warmup/measure bookkeeping of run().
  void run_cycles(Cycle n);

  [[nodiscard]] Cycle now() const { return now_; }
  [[nodiscard]] const Fabric& fabric() const { return *fabric_; }
  [[nodiscard]] const Topology& topology() const { return *topo_; }
  [[nodiscard]] const SimConfig& config() const { return config_; }
  [[nodiscard]] const Core* core(NodeId n) const { return cores_[n].get(); }
  [[nodiscard]] double throttle_rate(NodeId n) const { return nis_[n].throttler.rate(); }

 private:
  struct Ni {
    explicit Ni(ReassemblyTable::PacketSink sink) : reassembly(std::move(sink)) {}
    FlitRing request_q;
    FlitRing response_q;  ///< responses + control traffic; never throttled
    ReassemblyTable reassembly;
    InjectionThrottler throttler;
    StarvationMonitor starvation;      ///< Algorithm 2 sigma (gate blocks count)
    StarvationMonitor starvation_net;  ///< network-admission blocks only
    PacketSeq next_seq = 0;
    bool response_turn = true;        ///< fair alternation between the queues
    int mid_packet = 0;               ///< 0 none, 1 response, 2 request in flight
    std::uint64_t epoch_flits = 0;    ///< flits attributed this epoch (IPF denom)
    std::uint64_t measure_flits = 0;  ///< flits attributed in the measurement window
    double rate_integral = 0.0;       ///< sum of applied throttle rate per cycle
    std::uint64_t injected_flits = 0; ///< flits injected, lifetime (telemetry counter)
    /// First cycle whose per-cycle bookkeeping (starvation bits, rate
    /// integral) has not been applied yet. While both queues are empty the
    /// NI is skipped and this lags now_; sync_ni replays the gap bit-exactly.
    Cycle synced_to = 0;
    /// Consecutive cycles the NI wanted to inject but could not (mirrors
    /// the Algorithm 2 starvation bit); reset on injection and on idle
    /// cycles. Read serially by the watchdog.
    Cycle blocked_streak = 0;
  };

  /// A serviced request waiting out the L2 latency.
  struct PendingL2 {
    NodeId home;
    NodeId requester;
    Addr block;
  };

  /// One cycle: the tile steps on the ShardTeam with a barrier between
  /// them, then the serial epilogue.
  void step();
  /// Tile t's L2 deliveries due now (its own home slices' wheel).
  void deliver_l2(Cycle now, int tile);
  /// Tile t's NI injections: the NI worklist, or every NI under
  /// distributed CC.
  void inject_tile(int tile);
  /// Tile t's runnable cores.
  void core_tile(int tile);
  /// One cycle of NI n; false when both queues are empty (the NI sleeps).
  bool ni_inject(NodeId n);
  /// src/dst are routers; origin is the core the packet works for (equal to
  /// src/dst except on concentrated topologies), stamped into every flit so
  /// ejection can attribute it without a router->core guess.
  void enqueue_packet(FlitRing& q, NodeId src, NodeId dst, PacketKind kind, Addr addr,
                      int len, PacketSeq seq, NodeId origin);
  /// Replay the idle cycles [synced_to, upto) of NI n: both queues were
  /// empty, so each skipped cycle recorded starvation=false on both monitors
  /// and (while measuring) accrued the unchanged throttle rate. Bit-exact
  /// with having run ni_inject every cycle.
  void sync_ni(NodeId n, Cycle upto);
  /// sync_ni + put n back on the NI worklist (a queue became non-empty).
  void wake_ni(NodeId n, Cycle upto);
  /// A fill is about to reach core n: if it was sleeping (blocked on the
  /// network), credit the skipped window-full cycles and re-arm its
  /// core_work_ bit so the core phase steps it again from this cycle on.
  void wake_core(NodeId n);
  /// Whether core n is on the runnable worklist (serial sections).
  [[nodiscard]] bool core_awake(NodeId n) const;
  void on_miss(NodeId n, Addr block);
  void on_flit_ejected(NodeId at, const Flit& f);
  void on_packet(NodeId at, const Flit& header);
  void epoch_update();
  /// Provenance: compare the controller's staged rates against the last
  /// decision, emit throttle/hotspot/starvation events with the inputs
  /// that produced them. Serial sections only (end of epoch_update).
  void emit_epoch_events(const NetTelemetry& net);
  /// Livelock/starvation checks (config.watchdog): oldest in-flight flit
  /// age and per-NI blocked streaks. Serial end-of-cycle, period cadence.
  void watchdog_check();
  /// Append the row of the sample closing this cycle to hub_. Serial
  /// end-of-cycle, after epoch_update.
  void sample_telemetry();
  void begin_measurement();
  SimResult collect(Cycle measured_cycles);

  // Shard-ownership annotations (common/shard_annotations.hpp) feed
  // tools/nocsim_lint's cross-file symbol table: phase bodies may write
  // TILE_LOCAL state only for nodes the running tile owns (runtime-checked
  // under NOCSIM_SHARD_CHECK), SHARED_READONLY state only from serial
  // sections, and cross-tile effects only through a fabric halo outbox.
  SimConfig config_ NOCSIM_SHARED_READONLY;
  WorkloadSpec workload_ NOCSIM_SHARED_READONLY;
  std::unique_ptr<Topology> topo_ NOCSIM_SHARED_READONLY;
  std::unique_ptr<Fabric> fabric_ NOCSIM_SHARED_READONLY;
  std::unique_ptr<L2Mapper> mapper_ NOCSIM_SHARED_READONLY;
  /// Congestion control: Algorithm 1 under CcMode::Central, the §6.6
  /// coordinator under CcMode::Distributed; every other mode applies
  /// fixed_rates_ (all zero under CcMode::None) at each epoch boundary.
  std::optional<CentralController> central_ NOCSIM_SHARED_READONLY;
  std::optional<DistributedCoordinator> distributed_ NOCSIM_SHARED_READONLY;
  std::vector<double> fixed_rates_ NOCSIM_SHARED_READONLY;
  /// The node that hosts the central controller: the other end of every
  /// modelled control packet (config.model_control_traffic).
  static constexpr NodeId kControllerNode = 0;

  /// Cores attached to this router's NI (topology concentration; 1
  /// everywhere except cmesh). Core id c maps to router c / conc_.
  int conc_ NOCSIM_SHARED_READONLY = 1;

  /// Row-strip tiles over ROUTERS (config.shards; one tile by default), and
  /// the same tiles over CORE ids (router r's cores are r*conc_ ..).
  ShardPlan plan_ NOCSIM_SHARED_READONLY;
  ShardPlan core_plan_ NOCSIM_SHARED_READONLY;
  std::unique_ptr<ShardTeam> team_ NOCSIM_SHARED_READONLY;

  std::vector<std::unique_ptr<Core>> cores_ NOCSIM_TILE_LOCAL;  ///< per CORE; null = idle
  std::vector<Ni> nis_ NOCSIM_TILE_LOCAL;  ///< per ROUTER
  /// NIs with a non-empty queue: the injection step walks only these
  /// (unused under distributed CC, whose per-cycle rate updates make every
  /// NI-cycle observable). Bits are set by wake_ni and cleared by the
  /// injection walk when ni_inject finds both queues drained.
  TileBits ni_work_ NOCSIM_TILE_LOCAL;
  /// Cores that can make progress (over core_plan_). A core whose window
  /// is full with the head instruction waiting on the network
  /// (Core::blocked) is put to sleep by the core phase: each skipped cycle
  /// is a pure window-full count, replayed by wake_core when a fill
  /// arrives. Fills always originate on the core's own tile.
  TileBits core_work_ NOCSIM_TILE_LOCAL;
  /// Per sleeping core: first cycle whose skipped step() has not been
  /// credited yet. Meaningful only while the core_work_ bit is clear.
  std::vector<Cycle> core_synced_ NOCSIM_TILE_LOCAL;

  /// Per-tile state of the cycle loop. The L2 service wheel holds the
  /// pending responses of the tile's own home slices (slot = cycle %
  /// (kL2Latency + 1)): every push and every delivery touches only the home
  /// node's NI and cores, so per-home order — all that matters — is the
  /// one-tile order. Histogram adds are exactly commutative and are folded
  /// in collect().
  struct SimTile {
    std::array<std::vector<PendingL2>, kL2Latency + 1> l2_wheel;
    LatencyHistograms lat_all;
    std::array<LatencyHistograms, kNumIntensityClasses> lat_class;
  };
  std::vector<SimTile> tiles_ NOCSIM_TILE_LOCAL;

  std::vector<NodeTelemetry> telemetry_ NOCSIM_SHARED_READONLY;
  std::vector<double> staged_rates_ NOCSIM_SHARED_READONLY;

  Cycle now_ NOCSIM_SHARED_READONLY = 0;
  std::uint64_t epoch_hops_at_last_ NOCSIM_SHARED_READONLY = 0;  ///< hop-inflation deltas
  std::uint64_t epoch_min_hops_at_last_ NOCSIM_SHARED_READONLY = 0;
  bool measuring_ NOCSIM_SHARED_READONLY = false;
  Cycle measure_start_ NOCSIM_SHARED_READONLY = 0;
  /// Epoch decisions (central and fixed-rate modes; the distributed variant
  /// has no epochs): the last verdict, and counts over the measurement
  /// window (reset by begin_measurement).
  bool congested_ NOCSIM_SHARED_READONLY = false;
  std::uint64_t epochs_ NOCSIM_SHARED_READONLY = 0;
  std::uint64_t congested_epochs_ NOCSIM_SHARED_READONLY = 0;

  /// [node][epoch] when recorded
  std::vector<std::vector<double>> epoch_ipf_ NOCSIM_SHARED_READONLY;

  // Telemetry (see attach_telemetry). The lifetime counters at the last
  // sample are the baselines of the next row's deltas (only RouterSample's
  // counter fields are used). node_class_ maps core -> intensity class
  // index, -1 for idle and file-trace cores.
  TelemetryHub* hub_ NOCSIM_SHARED_READONLY = nullptr;
  std::vector<RouterSample> hub_base_ NOCSIM_SHARED_READONLY;
  std::uint64_t hub_base_hops_ NOCSIM_SHARED_READONLY = 0;

  // Observability (see attach_profiler / attach_events). The profiler is
  // the only wall-clock consumer; everything below the event log records is
  // simulated state.
  PhaseProfiler* prof_ NOCSIM_SHARED_READONLY = nullptr;
  struct ProfPhases {
    int begin = 0, inject = 0, route = 0, core = 0, epilogue = 0;
  };
  ProfPhases phase_ NOCSIM_SHARED_READONLY;
  EventLog* events_ NOCSIM_SHARED_READONLY = nullptr;
  std::vector<double> event_rates_ NOCSIM_SHARED_READONLY;   ///< last decided rates
  std::vector<std::uint8_t> starve_flag_ NOCSIM_SHARED_READONLY;  ///< in a starve episode
  bool event_congested_ NOCSIM_SHARED_READONLY = false;
  bool wd_age_over_ NOCSIM_SHARED_READONLY = false;
  std::vector<std::uint8_t> wd_blocked_over_ NOCSIM_SHARED_READONLY;
  Cycle wd_max_age_ NOCSIM_SHARED_READONLY = 0;

  std::vector<int> node_class_ NOCSIM_SHARED_READONLY;
};

}  // namespace nocsim
