#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "cpu/file_trace.hpp"
#include "noc/bless_fabric.hpp"
#include "noc/buffered_fabric.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/profiler.hpp"
#include "workload/synth_trace.hpp"

namespace nocsim {
namespace {
std::uint64_t splitmix_of(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t s = seed ^ (0x7107 + stream * 0x9e3779b97f4a7c15ULL);
  return splitmix64(s);
}

/// The router tiling. Grid families map to (width, height*depth) rows (z
/// layers stack as extra rows); irregular graphs have no grid to tile, so
/// they split as contiguous node-id strips of a 1-wide column.
ShardPlan router_plan(const SimConfig& c) {
  NOCSIM_CHECK_MSG(c.shards >= 1, "shards must be >= 1");
  if (c.topology == "irregular") return ShardPlan(1, c.num_nodes(), c.shards);
  return ShardPlan(c.width, c.height * c.depth, c.shards);
}
}  // namespace

Simulator::Simulator(SimConfig config, WorkloadSpec workload)
    : config_(std::move(config)),
      workload_(std::move(workload)),
      plan_(router_plan(config_)),
      core_plan_(plan_) {
  const int n = config_.num_nodes();
  const int ncores = config_.num_cores();
  NOCSIM_CHECK_MSG(static_cast<int>(workload_.app_names.size()) == ncores,
                   "workload must name one app per core (\"\" for idle)");

  topo_ = make_topology(TopologySpec{config_.topology, config_.width, config_.height,
                                     config_.depth, config_.topology_file});
  conc_ = topo_->concentration();
  NOCSIM_CHECK(topo_->num_cores() == ncores);
  switch (config_.router) {
    case RouterKind::Bless:
      fabric_ = std::make_unique<BlessFabric>(*topo_, kRouterLatency, kLinkLatency,
                                              config_.adaptive_routing
                                                  ? BlessRouting::MinimalAdaptive
                                                  : BlessRouting::StrictXY);
      break;
    case RouterKind::Buffered:
      fabric_ = std::make_unique<BufferedFabric>(*topo_, kRouterLatency, kLinkLatency);
      break;
  }
  fabric_->set_eject_sink([this](NodeId at, const Flit& f) { on_flit_ejected(at, f); });

  mapper_ = make_l2_mapper(config_.l2_map, *topo_, config_.locality_lambda);

  fixed_rates_.assign(static_cast<std::size_t>(n), 0.0);
  switch (config_.cc) {
    case CcMode::None:
      break;
    case CcMode::Central:
      central_.emplace(config_.cc_params);
      break;
    case CcMode::Static:
      NOCSIM_CHECK_MSG(config_.static_rate >= 0.0 && config_.static_rate < 1.0,
                       "static rate must be in [0, 1)");
      fixed_rates_.assign(static_cast<std::size_t>(n), config_.static_rate);
      break;
    case CcMode::Selective:
      NOCSIM_CHECK_MSG(static_cast<int>(config_.selective_rates.size()) == n,
                       "selective rates must name one rate per node");
      fixed_rates_ = config_.selective_rates;
      break;
    case CcMode::Distributed:
      distributed_.emplace(n, config_.cc_params);
      fabric_->enable_marking();
      break;
  }

  nis_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    nis_.emplace_back([this, i](const Flit& header, Cycle) { on_packet(i, header); });
    nis_.back().throttler = InjectionThrottler(
        config_.randomized_throttle_gate ? InjectionThrottler::Gate::Randomized
                                         : InjectionThrottler::Gate::Deterministic,
        splitmix_of(config_.seed, static_cast<std::uint64_t>(i)));
  }

  cores_.resize(ncores);
  node_class_.assign(static_cast<std::size_t>(ncores), -1);
  for (NodeId i = 0; i < ncores; ++i) {
    const std::string& app = workload_.app_names[i];
    if (app.empty()) continue;
    // A workload entry is either a catalog application name or
    // "file:<path>" — a trace in the FileTrace text format.
    std::unique_ptr<TraceSource> trace;
    CoreParams core_params;
    if (app.rfind("file:", 0) == 0) {
      trace = std::make_unique<FileTrace>(FileTrace::load(app.substr(5)));
    } else {
      const AppProfile& profile = app_by_name(app);
      node_class_[static_cast<std::size_t>(i)] = static_cast<int>(profile.cls);
      trace = std::make_unique<SyntheticTrace>(profile, config_.seed,
                                               static_cast<std::uint64_t>(i));
      // The application's dependence-limited MLP caps outstanding misses
      // below the hardware MSHR count.
      core_params.max_outstanding_misses =
          std::min(core_params.max_outstanding_misses, profile.max_mlp);
    }
    cores_[i] = std::make_unique<Core>(i, core_params, std::move(trace),
                                       [this, i](Addr block) { on_miss(i, block); });
    cores_[i]->prewarm(kPrewarmInstructions);
  }

  NOCSIM_CHECK(plan_.nodes() == n);
  core_plan_ = plan_.scaled(conc_);
  fabric_->set_shard_plan(plan_);
  team_ = std::make_unique<ShardTeam>(plan_.tiles());
  tiles_.resize(static_cast<std::size_t>(plan_.tiles()));
  ni_work_ = TileBits(plan_);
  core_work_ = TileBits(core_plan_);
  core_synced_.assign(static_cast<std::size_t>(ncores), 0);
  for (NodeId i = 0; i < ncores; ++i) {
    if (!cores_[i]) continue;
    const int t = core_plan_.tile_of(i);
    core_work_.set(t, core_plan_.local_of(t, i));
  }
  telemetry_.resize(n);
  staged_rates_.assign(n, 0.0);
  epoch_ipf_.resize(n);
  if (config_.watchdog.enabled) {
    NOCSIM_CHECK_MSG(config_.watchdog.period >= 1, "watchdog period must be >= 1");
    wd_blocked_over_.assign(static_cast<std::size_t>(n), 0);
  }
}

void Simulator::sync_ni(NodeId n, Cycle upto) {
  NOCSIM_SHARD_CHECK_WRITE(n, "ni bookkeeping (sync_ni)");
  Ni& ni = nis_[n];
  if (ni.synced_to >= upto) return;
  const Cycle k = upto - ni.synced_to;
  ni.starvation.record_idle(k);
  ni.starvation_net.record_idle(k);
  ni.blocked_streak = 0;  // idle cycles are non-blocked by definition
  if (measuring_) {
    // The rate is constant across the gap (set_rate sites all sync first).
    // One add per cycle — k * r would round differently; the per-cycle sum
    // must stay bit-exact with the eager path. Adding 0.0 is an exact no-op
    // (the integral is never -0.0 or NaN), so the unthrottled common case
    // skips the replay loop entirely.
    const double r = ni.throttler.rate();
    if (r != 0.0) {
      for (Cycle c = 0; c < k; ++c) ni.rate_integral += r;
    }
  }
  ni.synced_to = upto;
}

void Simulator::wake_ni(NodeId n, Cycle upto) {
  sync_ni(n, upto);
  const int t = plan_.tile_of(n);
  ni_work_.set(t, plan_.local_of(t, n));
}

void Simulator::wake_core(NodeId n) {
  // n is a CORE id; ownership checks index the router-partitioned plan.
  NOCSIM_SHARD_CHECK_WRITE(router_of(n), "core wake (wake_core)");
  const int t = core_plan_.tile_of(n);
  const std::uint32_t local = core_plan_.local_of(t, n);
  if (core_work_.test(t, local)) return;
  cores_[n]->skip_blocked(now_ - core_synced_[n]);
  core_work_.set(t, local);
}

bool Simulator::core_awake(NodeId n) const {
  const int t = core_plan_.tile_of(n);
  return core_work_.test(t, core_plan_.local_of(t, n));
}

void Simulator::enqueue_packet(FlitRing& q, NodeId src, NodeId dst, PacketKind kind,
                               Addr addr, int len, PacketSeq seq, NodeId origin) {
  for (int i = 0; i < len; ++i) {
    Flit f;
    f.src = src;
    f.dst = dst;
    f.origin = origin;
    f.kind = kind;
    f.addr = addr;
    f.packet = seq;
    f.flit_idx = static_cast<std::uint16_t>(i);
    f.packet_len = static_cast<std::uint16_t>(len);
    f.enqueue_cycle = now_;
    q.push_back(f);
  }
}

void Simulator::on_miss(NodeId n, Addr block) {
  // n is a CORE id; the network sees its router (identical except cmesh).
  const NodeId rtr = router_of(n);
  NOCSIM_SHARD_CHECK_WRITE(rtr, "miss bookkeeping (on_miss)");
  const NodeId home = mapper_->home(rtr, block);
  if (home == rtr) {
    // Local slice: no network traversal, just the L2 service latency.
    tiles_[static_cast<std::size_t>(plan_.tile_of(rtr))]
        .l2_wheel[(now_ + kL2Latency) % (kL2Latency + 1)]
        .push_back(PendingL2{home, n, block});
    return;
  }
  Ni& ni = nis_[rtr];
  // on_miss fires from the core step, after this cycle's injection loop: if
  // the NI was asleep, cycle now_ itself was still an idle (skipped) cycle.
  wake_ni(rtr, now_ + 1);
  enqueue_packet(ni.request_q, rtr, home, PacketKind::Request, block, kRequestFlits,
                 ni.next_seq++, /*origin=*/n);
  // IPF flit attribution (§4): requests the app injects + responses
  // generated on its behalf. Attributed at creation time.
  const auto attributed = static_cast<std::uint64_t>(kRequestFlits + kResponseFlits);
  ni.epoch_flits += attributed;
  if (measuring_) ni.measure_flits += attributed;
}

void Simulator::on_flit_ejected(NodeId at, const Flit& f) {
  NOCSIM_SHARD_CHECK_WRITE(at, "ejection sink (on_flit_ejected)");
  nis_[at].reassembly.on_flit(f, now_);
  if (!measuring_) return;
  // Latency distributions (per-flit, like the fabric's mean accumulators).
  const double net = static_cast<double>(now_ - f.inject_cycle);
  const double total = static_cast<double>(now_ - f.enqueue_cycle);
  // Fires on the tile thread that owns `at` (route phase): accumulate in the
  // tile's histograms. Histogram counts/min/max are exactly commutative, so
  // the collect()-time fold is bit-identical to one-tile adds.
  SimTile& st = tiles_[static_cast<std::size_t>(plan_.tile_of(at))];
  LatencyHistograms* all = &st.lat_all;
  std::array<LatencyHistograms, kNumIntensityClasses>* cls = &st.lat_class;
  all->net.add(net);
  all->total.add(total);
  // Attribute to the app that owns the flit: a Request belongs to its
  // source core, a Response to the core it fills — both stamped as the
  // flit's origin at enqueue (Control flits carry none). Flits of
  // idle/file-trace cores have no intensity class.
  const NodeId owner = f.origin;
  if (owner == kInvalidNode) return;
  const int c = node_class_[static_cast<std::size_t>(owner)];
  if (c < 0) return;
  (*cls)[static_cast<std::size_t>(c)].net.add(net);
  (*cls)[static_cast<std::size_t>(c)].total.add(total);
}

void Simulator::on_packet(NodeId at, const Flit& header) {
  NOCSIM_SHARD_CHECK_WRITE(at, "packet sink (on_packet)");
  switch (header.kind) {
    case PacketKind::Request:
      // Perfect shared L2: always hits; respond after the service latency.
      NOCSIM_DCHECK(header.dst == at);
      tiles_[static_cast<std::size_t>(plan_.tile_of(at))]
          .l2_wheel[(now_ + kL2Latency) % (kL2Latency + 1)]
          .push_back(PendingL2{at, header.origin, header.addr});
      break;
    case PacketKind::Response: {
      // The response ejects at the origin core's router; fill that core.
      const NodeId core = header.origin;
      NOCSIM_DCHECK(router_of(core) == at);
      NOCSIM_CHECK_MSG(cores_[core] != nullptr, "response delivered to an idle core");
      wake_core(core);
      cores_[core]->on_fill(header.addr, now_);
      if (distributed_ && header.congested_bit) distributed_->on_marked_packet(at, now_);
      break;
    }
    case PacketKind::Control:
      if (at != kControllerNode) {
        // Rate-setting packet arrived: adopt the staged rate. Cycles up to
        // and including now_ ran under the old rate — replay them before
        // the change (the fabric steps after the injection loop).
        sync_ni(at, now_ + 1);
        nis_[at].throttler.set_rate(staged_rates_[at]);
      }
      // Report packets reaching the controller carry telemetry the central
      // algorithm already consumed (oracle-read at the epoch boundary); the
      // packet exists to model its bandwidth cost.
      break;
  }
}

void Simulator::deliver_l2(Cycle now, int tile) {
  NOCSIM_PHASE("begin");
  // Pushes made this cycle target a different slot (kL2Latency %
  // (kL2Latency + 1) != 0), so the due slot is stable while it drains.
  auto& due = tiles_[static_cast<std::size_t>(tile)].l2_wheel[now % (kL2Latency + 1)];
  for (const PendingL2& p : due) {
    NOCSIM_SHARD_CHECK_WRITE(p.home, "l2 delivery (deliver_l2)");
    if (p.home == router_of(p.requester)) {
      wake_core(p.requester);
      cores_[p.requester]->on_fill(p.block, now);
      continue;
    }
    Ni& home_ni = nis_[p.home];
    // Delivery runs before this cycle's injection step: the woken NI will
    // be processed for now_ itself, so replay only the cycles before it.
    wake_ni(p.home, now);
    enqueue_packet(home_ni.response_q, p.home, router_of(p.requester), PacketKind::Response,
                   p.block, kResponseFlits, home_ni.next_seq++,
                   /*origin=*/p.requester);
  }
  due.clear();
}

bool Simulator::ni_inject(NodeId n) {
  NOCSIM_SHARD_CHECK_WRITE(n, "ni injection (ni_inject)");
  Ni& ni = nis_[n];
  NOCSIM_DCHECK(ni.synced_to == now_);
  ni.synced_to = now_ + 1;

  if (distributed_) {
    const double r = distributed_->rate(n, now_);
    if (r != ni.throttler.rate()) ni.throttler.set_rate(r);
  }
  if (measuring_) ni.rate_integral += ni.throttler.rate();

  const bool has_response = !ni.response_q.empty();
  const bool has_request = !ni.request_q.empty();
  if (!has_response && !has_request) {
    ni.starvation.record(false);
    ni.starvation_net.record(false);
    ni.blocked_streak = 0;
    // Drained: go to sleep. sync_ni replays the idle cycles on wake-up.
    return false;
  }
  // Network-admission starvation: wants to inject but the router has no
  // free slot — congestion proper, independent of the throttling gate. The
  // port scan is the expensive part of this function; nothing between here
  // and the injection gate below changes its answer, so ask once.
  const bool can_inject = fabric_->can_accept(n);
  ni.starvation_net.record(!can_inject);

  // One local injection port. On the buffered fabric, packets must inject
  // atomically (the wormhole local port cannot interleave packets); under
  // FLIT-BLESS every flit routes independently, so the NI alternates at
  // flit granularity — long data responses then cannot monopolize the port.
  // Either way the NI alternates fairly across the two queues: strict
  // response priority would let a busy home slice lock out its own core's
  // requests forever. The Algorithm 3 gate applies to request packets only;
  // a throttled request's slot may still carry a response — response
  // traffic is never throttled (§5).
  // The Fig. 2(c) static strawman gates all traffic classes; the real
  // mechanism gates request-packet heads only.
  const bool gate_all = (config_.cc == CcMode::Static);

  bool injected = false;
  if (can_inject) {
    int pick = ni.mid_packet;  // 0 = free choice, 1 = response, 2 = request
    if (pick == 0) {
      if (gate_all) {
        if (!ni.throttler.allow()) {
          ni.starvation.record(true);  // Algorithm 3: block injection, starved
          ++ni.blocked_streak;
          return true;
        }
        pick = (has_response && (ni.response_turn || !has_request)) ? 1 : 2;
      } else if (has_response && (ni.response_turn || !has_request)) {
        pick = 1;
      } else if (has_request && ni.throttler.allow()) {
        pick = 2;
      } else if (has_response) {
        pick = 1;  // request throttled (or absent); don't waste the port
      } else {
        ni.starvation.record(true);  // Algorithm 3: block injection, starved
        ++ni.blocked_streak;
        return true;
      }
    }
    auto& q = (pick == 1) ? ni.response_q : ni.request_q;
    NOCSIM_DCHECK(!q.empty());
    const Flit f = q.front();
    q.pop_front();
    fabric_->request_inject(n, f);
    const bool tail = (f.flit_idx + 1 == f.packet_len);
    const bool atomic = (config_.router == RouterKind::Buffered);
    ni.mid_packet = (atomic && !tail) ? pick : 0;
    ni.response_turn = (pick == 2);
    ++ni.injected_flits;
    injected = true;
  }
  ni.starvation.record(!injected);
  if (injected) {
    ni.blocked_streak = 0;
  } else {
    ++ni.blocked_streak;
  }
  return true;
}

void Simulator::epoch_update() {
  const int n = config_.num_nodes();
  // The epoch boundary observes every NI (sigma windows) and may change
  // every rate: bring sleeping NIs up to date first. Runs after the
  // injection loop, so cycle now_ is part of the replayed gap.
  for (NodeId i = 0; i < n; ++i) sync_ni(i, now_ + 1);
  for (NodeId i = 0; i < n; ++i) {
    Ni& ni = nis_[i];
    // A router's IPF aggregates every core behind its NI (one core except
    // on concentrated topologies).
    std::uint64_t retired = 0;
    bool any_core = false;
    for (int k = 0; k < conc_; ++k) {
      const NodeId c = i * conc_ + k;
      if (!cores_[c]) continue;
      any_core = true;
      retired += cores_[c]->epoch_retired();
      cores_[c]->reset_epoch();
    }
    const double ipf = ni.epoch_flits
                           ? static_cast<double>(retired) / static_cast<double>(ni.epoch_flits)
                           : kIpfCap;
    telemetry_[i] = NodeTelemetry{ipf, ni.starvation.windowed_rate()};
    ni.epoch_flits = 0;
    if (measuring_ && config_.record_epoch_ipf && any_core) epoch_ipf_[i].push_back(ipf);
    if (distributed_) distributed_->set_local_ipf(i, ipf);
  }
  if (distributed_) return;  // no central decision

  // Network telemetry: hop inflation over this epoch's delivered flits.
  const FabricStats& fs = fabric_->stats();
  NetTelemetry net;
  const std::uint64_t d_hops = fs.flit_hops_delivered - epoch_hops_at_last_;
  const std::uint64_t d_min = fs.min_hops_total - epoch_min_hops_at_last_;
  epoch_hops_at_last_ = fs.flit_hops_delivered;
  epoch_min_hops_at_last_ = fs.min_hops_total;
  net.hop_inflation = d_min ? static_cast<double>(d_hops) / static_cast<double>(d_min) : 1.0;

  if (central_) {
    congested_ = central_->on_epoch(telemetry_, net, staged_rates_);
  } else {
    // Fixed rates count as congested whenever they throttle anything.
    std::copy(fixed_rates_.begin(), fixed_rates_.end(), staged_rates_.begin());
    congested_ = std::any_of(fixed_rates_.begin(), fixed_rates_.end(),
                             [](double r) { return r > 0.0; });
  }
  ++epochs_;
  if (congested_) ++congested_epochs_;
  if (events_ != nullptr) emit_epoch_events(net);

  if (!config_.model_control_traffic) {
    for (NodeId i = 0; i < n; ++i) nis_[i].throttler.set_rate(staged_rates_[i]);
    return;
  }
  // Model the 2n control packets (§6.6): each node reports to the
  // controller; the controller sends each node its rate. Rates take effect
  // when the rate packet is delivered.
  const NodeId ctrl = kControllerNode;
  nis_[ctrl].throttler.set_rate(staged_rates_[ctrl]);
  for (NodeId i = 0; i < n; ++i) {
    if (i == ctrl) continue;
    wake_ni(i, now_ + 1);  // already synced above; (re)arm the worklist bit
    enqueue_packet(nis_[i].response_q, i, ctrl, PacketKind::Control, 0, 1,
                   nis_[i].next_seq++, kInvalidNode);
    enqueue_packet(nis_[ctrl].response_q, ctrl, i, PacketKind::Control, 0, 1,
                   nis_[ctrl].next_seq++, kInvalidNode);
  }
  wake_ni(ctrl, now_ + 1);
}

void Simulator::emit_epoch_events(const NetTelemetry& net) {
  // Runs at the end of epoch_update, after the controller decided: every
  // field below is exactly what Algorithm 1 consumed (telemetry_, the
  // sigma windows) or produced (staged_rates_, escalation) this epoch.
  // Emission order is fixed — network events, then per-node events in
  // ascending node id — and everything here is simulated state, so the
  // stream is byte-identical at any shard count.
  const double esc = central_ ? central_->escalation() : 1.0;
  const double mean_ipf = central_ ? central_->last_mean_ipf() : 0.0;
  if (congested_ != event_congested_) {
    events_->emit(SimEvent{now_, congested_ ? SimEventKind::HotspotOn : SimEventKind::HotspotOff,
                           kInvalidNode, esc, mean_ipf, 0.0, 0.0, net.hop_inflation});
    event_congested_ = congested_;
  }
  if (congested_) {
    events_->emit(SimEvent{now_, SimEventKind::CcEpoch, kInvalidNode, esc, mean_ipf, 0.0, 0.0,
                           net.hop_inflation});
  }
  const int n = config_.num_nodes();
  for (NodeId i = 0; i < n; ++i) {
    const double prev = event_rates_[static_cast<std::size_t>(i)];
    const double next = staged_rates_[static_cast<std::size_t>(i)];
    if (next != prev) {
      const SimEventKind kind = prev == 0.0 ? SimEventKind::ThrottleOn
                                : next == 0.0 ? SimEventKind::ThrottleOff
                                              : SimEventKind::ThrottleAdjust;
      events_->emit(SimEvent{now_, kind, i, next, telemetry_[static_cast<std::size_t>(i)].ipf,
                             telemetry_[static_cast<std::size_t>(i)].starvation_rate,
                             nis_[static_cast<std::size_t>(i)].starvation_net.windowed_rate(),
                             esc});
      event_rates_[static_cast<std::size_t>(i)] = next;
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    const NodeTelemetry& t = telemetry_[static_cast<std::size_t>(i)];
    const double threshold = config_.cc_params.starve_threshold(t.ipf);
    const bool starved = t.starvation_rate > threshold;  // Eq. 1, as the controller tests it
    if (starved != (starve_flag_[static_cast<std::size_t>(i)] != 0)) {
      events_->emit(SimEvent{now_, starved ? SimEventKind::StarveOn : SimEventKind::StarveOff, i,
                             event_rates_[static_cast<std::size_t>(i)], t.ipf, t.starvation_rate,
                             nis_[static_cast<std::size_t>(i)].starvation_net.windowed_rate(),
                             threshold});
      starve_flag_[static_cast<std::size_t>(i)] = starved ? 1 : 0;
    }
  }
}

void Simulator::watchdog_check() {
  const SimConfig::WatchdogConfig& wd = config_.watchdog;
  // Livelock: age of the oldest in-flight flit. Edge-triggered — one event
  // per episode, cleared when the flit finally drains.
  Cycle age = 0;
  if (fabric_->in_flight() > 0) {
    const std::uint32_t oldest = fabric_->oldest_inflight_inject_cycle();
    if (oldest != Fabric::kNoInflight) age = now_ - static_cast<Cycle>(oldest);
  }
  if (age > wd_max_age_) wd_max_age_ = age;
  const bool age_over = age >= wd.max_flit_age;
  if (age_over && !wd_age_over_) {
    if (events_ != nullptr) {
      events_->emit(SimEvent{now_, SimEventKind::WatchdogFlitAge, kInvalidNode, 0.0, 0.0, 0.0,
                             0.0, static_cast<double>(age)});
    }
    NOCSIM_CHECK_MSG(!wd.abort,
                     "watchdog: in-flight flit age exceeded max_flit_age (livelock?)");
  }
  wd_age_over_ = age_over;

  // Starvation: per-NI consecutive-blocked-injection streaks, maintained in
  // ni_inject on the owning tile and read here serially.
  const int n = config_.num_nodes();
  for (NodeId i = 0; i < n; ++i) {
    const Cycle streak = nis_[static_cast<std::size_t>(i)].blocked_streak;
    const bool over = streak >= wd.max_blocked_streak;
    if (over && wd_blocked_over_[static_cast<std::size_t>(i)] == 0) {
      if (events_ != nullptr) {
        events_->emit(SimEvent{now_, SimEventKind::WatchdogBlocked, i,
                               nis_[static_cast<std::size_t>(i)].throttler.rate(),
                               telemetry_[static_cast<std::size_t>(i)].ipf, 0.0, 0.0,
                               static_cast<double>(streak)});
      }
      NOCSIM_CHECK_MSG(!wd.abort,
                       "watchdog: blocked-injection streak exceeded max_blocked_streak");
    }
    wd_blocked_over_[static_cast<std::size_t>(i)] = over ? 1 : 0;
  }
}

void Simulator::inject_tile(int tile) {
  NOCSIM_PHASE("inject");
  const NodeId lo = plan_.range(tile).lo;
  if (distributed_) {
    // Per-cycle rate updates: every NI-cycle is observable, no skipping.
    for (NodeId i = lo; i < plan_.range(tile).hi; ++i) ni_inject(i);
    return;
  }
  // Only NIs with queued flits; sleeping NIs are replayed on wake-up.
  std::vector<std::uint64_t>& words = ni_work_.words(tile);
  const std::size_t count = words.size();
  for (std::size_t w = 0; w < count; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      if (!ni_inject(lo + static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b))))
        words[w] &= ~(std::uint64_t{1} << b);
    }
  }
}

void Simulator::core_tile(int tile) {
  NOCSIM_PHASE("core");
  // Only runnable cores; a core that ends the cycle blocked on the network
  // sleeps until a fill wakes it (wake_core replays the skipped cycles).
  const NodeId lo = core_plan_.range(tile).lo;
  std::vector<std::uint64_t>& words = core_work_.words(tile);
  const std::size_t count = words.size();
  for (std::size_t w = 0; w < count; ++w) {
    std::uint64_t bits = words[w];
    while (bits != 0) {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const NodeId i = lo + static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      Core& core = *cores_[i];
      core.step(now_);
      if (core.blocked()) {
        words[w] &= ~(std::uint64_t{1} << b);
        core_synced_[static_cast<std::size_t>(i)] = now_ + 1;
      }
    }
  }
}

void Simulator::step() {
  // One tile task per cycle, then the serial epilogue (the fabric protocol
  // in noc/fabric.hpp); team_->run's return is the cycle's one barrier.
  // Core runs right after route in the same task: a core touches only its
  // own tile's cores, NIs, ejections and L2 wheel.
  fabric_->shard_begin(now_);
  team_->run([this](int t) {
    NOCSIM_PHASE("tile", &plan_, t);
    std::uint64_t pt0 = prof_begin(prof_);
    fabric_->shard_deliver(now_, t);
    deliver_l2(now_, t);
    prof_end(prof_, phase_.begin, t, pt0);
    pt0 = prof_begin(prof_);
    inject_tile(t);
    prof_end(prof_, phase_.inject, t, pt0);
    pt0 = prof_begin(prof_);
    fabric_->shard_route(now_, t);
    prof_end(prof_, phase_.route, t, pt0);
    pt0 = prof_begin(prof_);
    core_tile(t);
    prof_end(prof_, phase_.core, t, pt0);
  });
  const std::uint64_t pt0 = prof_begin(prof_);
  fabric_->shard_finish(now_);
  if ((now_ + 1) % config_.cc_params.epoch == 0) epoch_update();
  if (config_.watchdog.enabled && (now_ + 1) % config_.watchdog.period == 0) watchdog_check();
  // Sample after epoch_update so an epoch-cadence row carries the values
  // the controller consumed (sigma, IPF) and produced (rates, congested
  // flag) *this* cycle. Null hub = one pointer test per cycle.
  if (hub_ != nullptr && (now_ + 1) % hub_->sample_period == 0) sample_telemetry();
  if (distributed_ && (now_ + 1) % kMarkUpdatePeriod == 0) {
    for (NodeId i = 0; i < config_.num_nodes(); ++i) {
      fabric_->set_marks_flits(i,
                               distributed_->should_mark(nis_[i].starvation.windowed_rate()));
    }
  }
  prof_end(prof_, phase_.epilogue, 0, pt0);
  if (prof_ != nullptr && (now_ + 1) % config_.cc_params.epoch == 0) prof_->tick(now_);
  ++now_;
}

void Simulator::run_cycles(Cycle cycles) {
  for (Cycle c = 0; c < cycles; ++c) step();
}

void Simulator::begin_measurement() {
  // Flush lazy NI bookkeeping before the lifetime counters reset; skipped
  // segments must never straddle the measuring_ flip (sync_ni applies the
  // current flag to a whole gap).
  for (NodeId i = 0; i < config_.num_nodes(); ++i) sync_ni(i, now_);
  measuring_ = true;
  measure_start_ = now_;
  fabric_->reset_stats();
  epoch_hops_at_last_ = 0;  // counters restarted with the stats
  epoch_min_hops_at_last_ = 0;
  for (NodeId i = 0; i < config_.num_cores(); ++i) {
    if (cores_[i]) {
      // A sleeping core's skipped window-full cycles are still uncredited;
      // flush them so the reset wipes exactly what eager stepping had.
      if (!core_awake(i)) {
        cores_[i]->skip_blocked(now_ - core_synced_[static_cast<std::size_t>(i)]);
        core_synced_[static_cast<std::size_t>(i)] = now_;
      }
      cores_[i]->reset_stats();
    }
  }
  for (NodeId i = 0; i < config_.num_nodes(); ++i) {
    nis_[i].starvation.reset_lifetime();
    nis_[i].starvation_net.reset_lifetime();
    nis_[i].measure_flits = 0;
    nis_[i].rate_integral = 0.0;
  }
  epochs_ = 0;
  congested_epochs_ = 0;
  for (SimTile& t : tiles_) {
    t.lat_all = LatencyHistograms{};
    t.lat_class.fill(LatencyHistograms{});
  }
}

SimResult Simulator::run() {
  run_cycles(config_.warmup_cycles);
  begin_measurement();
  run_cycles(config_.measure_cycles);
  return collect(config_.measure_cycles);
}

SimResult Simulator::collect(Cycle measured_cycles) {
  // Flush the tail partial-epoch sample so the profile covers every cycle.
  if (prof_ != nullptr) prof_->tick(now_);
  for (NodeId i = 0; i < config_.num_nodes(); ++i) sync_ni(i, now_);
  for (NodeId i = 0; i < config_.num_cores(); ++i) {
    // Credit sleeping cores' skipped cycles so CoreStats are exact.
    if (cores_[i] && !core_awake(i)) {
      cores_[i]->skip_blocked(now_ - core_synced_[static_cast<std::size_t>(i)]);
      core_synced_[static_cast<std::size_t>(i)] = now_;
    }
  }
  SimResult result;
  result.cycles = measured_cycles;
  result.fabric = fabric_->stats();
  result.avg_net_latency = result.fabric.net_latency.mean();
  result.avg_total_latency = result.fabric.total_latency.mean();
  result.utilization = result.fabric.utilization(fabric_->num_links());
  result.avg_hops = result.fabric.hops_per_flit.mean();
  result.avg_deflections = result.fabric.deflections_per_flit.mean();
  result.power = compute_power(result.fabric, config_.router == RouterKind::Buffered,
                               config_.num_nodes());

  const auto cycles_d = static_cast<double>(measured_cycles);
  double starv_sum = 0.0;
  double starv_net_sum = 0.0;
  int active = 0;
  // One NodeResult per CORE; NI-derived fields come from the core's router
  // (shared across a concentrated router's cores).
  for (NodeId i = 0; i < config_.num_cores(); ++i) {
    NodeResult nr;
    nr.app = workload_.app_names[i];
    const Ni& ni = nis_[router_of(i)];
    if (cores_[i]) {
      const CoreStats& cs = cores_[i]->stats();
      nr.retired = cs.retired;
      nr.ipc = static_cast<double>(cs.retired) / cycles_d;
      nr.l1_miss_rate = cores_[i]->l1_stats().miss_rate();
      ++active;
      starv_sum += ni.starvation.lifetime_rate();
      starv_net_sum += ni.starvation_net.lifetime_rate();
    }
    nr.flits = ni.measure_flits;
    nr.ipf = ni.measure_flits ? static_cast<double>(nr.retired) /
                                    static_cast<double>(ni.measure_flits)
                              : kIpfCap;
    nr.starvation = ni.starvation.lifetime_rate();
    nr.starvation_network = ni.starvation_net.lifetime_rate();
    nr.mean_throttle_rate = ni.rate_integral / cycles_d;
    nr.epoch_ipf = epoch_ipf_[router_of(i)];
    result.nodes.push_back(std::move(nr));
  }
  result.avg_starvation = active ? starv_sum / active : 0.0;
  result.avg_starvation_network = active ? starv_net_sum / active : 0.0;

  result.congested_epoch_fraction =
      epochs_ ? static_cast<double>(congested_epochs_) / static_cast<double>(epochs_) : 0.0;
  // Fold the per-tile histograms (bin counts and min/max are exactly
  // commutative, so the fold order is immaterial).
  for (const SimTile& t : tiles_) {
    result.latency.net.merge(t.lat_all.net);
    result.latency.total.merge(t.lat_all.total);
    for (std::size_t c = 0; c < result.latency_by_class.size(); ++c) {
      result.latency_by_class[c].net.merge(t.lat_class[c].net);
      result.latency_by_class[c].total.merge(t.lat_class[c].total);
    }
  }
  return result;
}

void Simulator::attach_telemetry(TelemetryHub* hub) {
  NOCSIM_CHECK(hub != nullptr);
  NOCSIM_CHECK_MSG(hub_ == nullptr, "telemetry hub already attached");
  // Every lifetime counter is still zero, the baseline of the first deltas.
  NOCSIM_CHECK_MSG(now_ == 0 && hub->rows.empty(), "attach telemetry before the first cycle");
  if (hub->sample_period == 0) hub->sample_period = config_.cc_params.epoch;
  const int n = config_.num_nodes();
  hub->has_core.assign(static_cast<std::size_t>(n), false);
  for (NodeId i = 0; i < n; ++i) {
    for (int k = 0; k < conc_; ++k) {
      if (cores_[i * conc_ + k] != nullptr) hub->has_core[static_cast<std::size_t>(i)] = true;
    }
  }
  hub_base_.assign(static_cast<std::size_t>(n), RouterSample{});
  hub_ = hub;
}

void Simulator::sample_telemetry() {
  const int n = config_.num_nodes();
  // The gauges read sigma windows and counters of every NI directly.
  for (NodeId i = 0; i < n; ++i) sync_ni(i, now_ + 1);
  TelemetryRow& row = hub_->rows.emplace_back();
  row.cycle = now_;
  // On the default cadence (the epoch) epoch_update() ran this cycle, so
  // sigma/ipf below are the inputs Algorithm 1 consumed and congested,
  // the throttled set and throttle_rate its outputs.
  row.congested = congested_;
  for (NodeId i = 0; i < n; ++i) {
    if (staged_rates_[i] > 0.0) row.throttled.push_back(i);
  }
  // Mean fraction of links busy over the interval. The hop counter restarts
  // from zero at the measurement boundary (reset_stats), so a count below
  // the baseline is the whole delta.
  const std::uint64_t hops = fabric_->stats().flit_hops;
  const std::uint64_t hop_delta = hops >= hub_base_hops_ ? hops - hub_base_hops_ : hops;
  hub_base_hops_ = hops;
  row.link_utilization =
      static_cast<double>(hop_delta) / (static_cast<double>(fabric_->num_links()) *
                                        static_cast<double>(hub_->sample_period));
  row.in_flight = fabric_->in_flight();
  row.routers.resize(static_cast<std::size_t>(n));
  for (NodeId i = 0; i < n; ++i) {
    RouterSample& s = row.routers[i];
    s.sigma = telemetry_[i].starvation_rate;
    s.sigma_net = nis_[i].starvation_net.windowed_rate();
    s.ipf = telemetry_[i].ipf;
    s.throttle_rate = nis_[i].throttler.rate();
    // Lifetime counters first, then the deltas against the last sample's.
    // Retirement sums every core behind the NI (one core except on
    // concentrated topologies).
    s.injections = nis_[i].injected_flits;
    s.deflections = fabric_->node_deflections(i);
    s.blocked = nis_[i].throttler.blocked_attempts();
    for (int k = 0; k < conc_; ++k) {
      if (const Core* core = cores_[i * conc_ + k].get()) s.retired += core->lifetime_retired();
    }
    const RouterSample base = std::exchange(hub_base_[i], s);
    NOCSIM_CHECK_MSG(s.injections >= base.injections && s.deflections >= base.deflections &&
                         s.blocked >= base.blocked && s.retired >= base.retired,
                     "telemetry counter went backwards");
    s.injections -= base.injections;
    s.deflections -= base.deflections;
    s.blocked -= base.blocked;
    s.retired -= base.retired;
  }
}

void Simulator::attach_profiler(PhaseProfiler* prof) {
  NOCSIM_CHECK(prof != nullptr);
  NOCSIM_CHECK_MSG(prof_ == nullptr, "profiler already attached");
  // Registration order fixes the dense phase ids (and the track order in the
  // merged Chrome trace). Every tile records begin (fabric and L2 delivery),
  // inject, route and core once per cycle; tile 0 also records the serial
  // epilogue. The cycle's one barrier follows core, so its waits land there.
  phase_.begin = prof->register_phase("begin");
  phase_.inject = prof->register_phase("inject");
  phase_.route = prof->register_phase("route");
  phase_.core = prof->register_phase("core");
  phase_.epilogue = prof->register_phase("epilogue");
  prof->set_tiles(plan_.tiles());
  prof->enable();
  prof_ = prof;
  // Route the ShardTeam's barrier-spin measurements into the profiler; the
  // probe is picked up by workers with an acquire load, so mid-run attachment
  // is race-free (at worst the very first barrier goes unmeasured).
  team_->set_probe(prof->team_probe(phase_.core));
}

void Simulator::attach_events(EventLog* log) {
  NOCSIM_CHECK(log != nullptr);
  NOCSIM_CHECK_MSG(events_ == nullptr, "event log already attached");
  events_ = log;
  const auto n = static_cast<std::size_t>(config_.num_nodes());
  event_rates_.assign(n, 0.0);
  starve_flag_.assign(n, 0);
}

}  // namespace nocsim
