// Fabric: a synchronous network of routers operated cycle by cycle.
//
// can_accept() is exact, not advisory: if it returns true and the node
// requests injection, the flit enters the network this cycle. This lets the
// node layer implement the paper's Algorithm 3 throttling gate faithfully
// (the gate's counter only advances on cycles where "an output link is
// free").
//
// Routing belongs to the topology: a router asks
// topo_.route_preference(n, dst) for its productive ports, and eject
// accounting asks topo_.distance(src, dst) for the routing path's hop
// count. The fabric keeps no routing tables or coordinates of its own.
//
// The routers are split into the tiles of a ShardPlan (one tile spanning
// every node unless set_shard_plan says otherwise), and every cycle runs
// the tile protocol documented below.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/arena.hpp"
#include "common/shard.hpp"
#include "common/shard_annotations.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "noc/flit.hpp"
#include "noc/trace_sink.hpp"
#include "topology/topology.hpp"

namespace nocsim {

/// Counters the fabric maintains; reset with reset_stats() after warmup.
struct FabricStats {
  std::uint64_t cycles = 0;
  std::uint64_t flits_injected = 0;
  std::uint64_t flits_ejected = 0;
  std::uint64_t flit_hops = 0;        ///< link traversals
  std::uint64_t deflections = 0;      ///< BLESS misroutes
  /// Hops through a productive (distance-reducing) port. Every routed hop
  /// is either productive or a deflection, so flit_hops ==
  /// productive_hops + deflections holds at all times — a cheap structural
  /// cross-check on the deflection accounting. On the buffered fabric XY
  /// routing makes every hop productive (deflections stays 0).
  std::uint64_t productive_hops = 0;
  std::uint64_t buffer_reads = 0;     ///< buffered fabric only
  std::uint64_t buffer_writes = 0;    ///< buffered fabric only
  /// Cross-tile traffic staged through halo outboxes (structurally zero
  /// with one tile). Writes count staged records (link traversals + credit
  /// returns), bytes count their storage size.
  std::uint64_t halo_writes = 0;
  std::uint64_t halo_bytes = 0;
  StatAccumulator net_latency;        ///< inject -> eject, cycles
  StatAccumulator total_latency;      ///< NI enqueue -> eject, cycles
  StatAccumulator hops_per_flit;      ///< links traversed per delivered flit
  StatAccumulator deflections_per_flit;  ///< misroutes per delivered flit
  std::uint64_t min_hops_total = 0;   ///< sum of src->dst distances of delivered flits

  /// Hop inflation: links actually traversed / minimal distance. ~1 in an
  /// idle network; grows with deflection orbits — the congestion-collapse
  /// signature of a bufferless NoC under convergent (local) traffic.
  [[nodiscard]] double hop_inflation() const {
    if (min_hops_total == 0) return 1.0;
    return static_cast<double>(flit_hops_delivered) / static_cast<double>(min_hops_total);
  }
  std::uint64_t flit_hops_delivered = 0;  ///< hops summed over delivered flits

  /// Mean fraction of unidirectional links busy per cycle.
  [[nodiscard]] double utilization(std::uint64_t num_links) const {
    if (cycles == 0 || num_links == 0) return 0.0;
    return static_cast<double>(flit_hops) /
           (static_cast<double>(num_links) * static_cast<double>(cycles));
  }
};

class Fabric {
 public:
  /// Called once per ejected flit, during step().
  using EjectSink = std::function<void(NodeId at, const Flit&)>;

  Fabric(const Topology& topo, int router_latency, int link_latency)
      : topo_(topo),
        hop_latency_(router_latency + link_latency),
        plan_(1, topo.num_nodes(), 1),
        pending_inject_(topo.num_nodes()),
        inject_bits_(plan_),
        shard_tiles_(1),
        node_deflections_(static_cast<std::size_t>(topo.num_nodes()), 0) {
    // hop_latency >= 2, which the tile protocol's parity outboxes rely on.
    NOCSIM_CHECK(router_latency >= 1 && link_latency >= 1);
  }
  virtual ~Fabric() = default;

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  void set_eject_sink(EjectSink sink) { sink_ = std::move(sink); }

  /// Attach (or detach, with nullptr) a flit-level event observer. The
  /// fabric does not own the sink; it must outlive the fabric or be
  /// detached first. Tiles record events into their own buffers and
  /// shard_finish replays them into the sink in tile order, which is the
  /// ascending-node order of a one-tile run. With no sink attached, every
  /// hook site reduces to one null-pointer test.
  void set_trace_sink(FlitEventSink* sink) { trace_ = sink; }

  // ------------------------------------------------------ per-cycle protocol
  //
  // Every cycle runs these steps in order. Steps 2-4 form one tile task:
  // they run once per tile of the plan, tiles concurrently, with one
  // barrier before step 5 (the caller provides it):
  //
  //   1. shard_begin(now)            serial prologue
  //   2. shard_deliver(now, tile)    apply the outbox writes other tiles
  //                                  staged for this tile in cycle now-1,
  //                                  then deliver the link arrivals and
  //                                  credits due now to the tile's routers
  //   3. can_accept(n) / request_inject(n, flit), for the tile's own nodes
  //   4. shard_route(now, tile)      eject, inject and route the tile's
  //                                  routers; link writes to another tile's
  //                                  router go to a halo outbox
  //   5. shard_finish(now)           serial: fold the tile counters, replay
  //                                  eject statistics and trace events
  //
  // Outboxes (HaloBoxes) are double-buffered by cycle parity, so no tile
  // reads an outbox another tile writes in the same task. A write staged in
  // cycle now-1 lands at now-1 + hop_latency (a flit; hop_latency >= 2, so
  // after now) or at now (a credit): applying it one cycle late is exact.
  //
  // Every write in steps 2-4 lands in state the running tile owns: its
  // routers, its bitmap words, its scratch, or its outboxes (the ones it
  // stages into and the ones addressed to it). Each tile records at most
  // one eject per node per cycle, in ascending node order, and tiles are
  // contiguous node ranges, so concatenating the tile buffers in tile order
  // is the one-tile order: results are identical for every tile count.
  // begin_cycle()/step() below run the protocol on the calling thread.

  /// Re-tile the fabric. Only legal on an empty network, before the first
  /// cycle; a no-op for the plan already in use.
  void set_shard_plan(const ShardPlan& plan) {
    if (plan == plan_) return;
    plan_ = plan;
    inject_bits_ = TileBits(plan_);
    shard_tiles_.assign(static_cast<std::size_t>(plan_.tiles()), ShardTile{});
    retile();
  }

  virtual void shard_begin(Cycle now) {
    NOCSIM_CHECK_MSG(last_begun_ != now, "cycle begun twice");
    last_begun_ = now;
  }
  virtual void shard_deliver(Cycle now, int tile) = 0;
  virtual void shard_route(Cycle now, int tile) = 0;

  /// Serial epilogue: fold the per-tile counters into stats_, then replay
  /// the buffered ejections into the order-sensitive accumulators and the
  /// trace events into the sink, tile after tile.
  void shard_finish(Cycle now) {
    NOCSIM_CHECK_MSG(last_begun_ == now, "cycle finished without a matching begin");
    ++stats_.cycles;
    for (ShardTile& ts : shard_tiles_) {
      stats_.flits_injected += ts.flits_injected;
      stats_.flits_ejected += ts.ejects.size();
      stats_.flit_hops += ts.flit_hops;
      stats_.deflections += ts.deflections;
      stats_.productive_hops += ts.productive_hops;
      stats_.buffer_reads += ts.buffer_reads;
      stats_.buffer_writes += ts.buffer_writes;
      stats_.halo_writes += ts.halo_writes;
      stats_.halo_bytes += ts.halo_bytes;
      stats_.flit_hops_delivered += ts.flit_hops_delivered;
      stats_.min_hops_total += ts.min_hops_total;
      in_network_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(in_network_) +
                                               ts.net_delta);
      for (const EjectRecord& e : ts.ejects) {
        stats_.net_latency.add(static_cast<double>(now - e.inject_cycle));
        stats_.total_latency.add(static_cast<double>(now - e.enqueue_cycle));
        stats_.hops_per_flit.add(static_cast<double>(e.hops));
        stats_.deflections_per_flit.add(static_cast<double>(e.deflections));
      }
      if (trace_ != nullptr) {
        for (const TraceRecord& r : ts.trace) {
          switch (r.kind) {
            case TraceKind::Inject:
              trace_->on_inject(now, r.at, r.flit);
              break;
            case TraceKind::Hop:
              trace_->on_hop(now, r.at, r.to, r.flit);
              break;
            case TraceKind::Deflect:
              trace_->on_deflect(now, r.at, r.flit);
              break;
            case TraceKind::Eject:
              trace_->on_eject(now, r.at, r.flit);
              break;
          }
        }
      }
      ts.reset();
    }
  }

  /// The protocol on the calling thread, every tile in order, split at the
  /// injection point: begin_cycle() runs steps 1-2, step() runs 4-5. For
  /// fabric tests and micro-benchmarks that drive a fabric directly.
  void begin_cycle(Cycle now) {
    shard_begin(now);
    for (int t = 0; t < plan_.tiles(); ++t) shard_deliver(now, t);
  }
  void step(Cycle now) {
    for (int t = 0; t < plan_.tiles(); ++t) shard_route(now, t);
    shard_finish(now);
  }

  [[nodiscard]] virtual bool can_accept(NodeId n) const = 0;

  /// Hand one flit to node n's router for injection this cycle.
  /// Pre: can_accept(n) was true after this cycle's begin. Called by the
  /// tile that owns n: the slot and its bitmap word are that tile's.
  void request_inject(NodeId n, const Flit& f) {
    NOCSIM_SHARD_CHECK_WRITE(n, "injection slot (request_inject)");
    NOCSIM_DCHECK(!pending_inject_[n].requested);
    pending_inject_[n].flit = f;
    pending_inject_[n].requested = true;
    const int t = plan_.tile_of(n);
    inject_bits_.set(t, plan_.local_of(t, n));
  }

  /// True when no flit is in a router, on a link, or in an internal buffer.
  [[nodiscard]] bool empty() const { return in_network_ == 0; }

  /// Flits currently inside the network (telemetry gauge): injected but not
  /// yet ejected, whether in a router, on a link, or buffered.
  [[nodiscard]] std::uint64_t in_flight() const { return in_network_; }

  /// Sentinel for "no flit in flight" from oldest_inflight_inject_cycle().
  static constexpr std::uint32_t kNoInflight = ~std::uint32_t{0};

  /// Inject cycle of the oldest flit currently inside the network (router
  /// latches, links, buffers), or kNoInflight when empty. A full scan of
  /// the fabric's in-flight storage: meant for the livelock watchdog's
  /// serial check cadence, never the per-cycle hot path.
  [[nodiscard]] virtual std::uint32_t oldest_inflight_inject_cycle() const = 0;

  /// Cumulative deflections at node n's router (monotone; telemetry samples
  /// it as per-interval deltas). Always 0 on the buffered fabric.
  [[nodiscard]] std::uint64_t node_deflections(NodeId n) const {
    return node_deflections_[static_cast<std::size_t>(n)];
  }

  [[nodiscard]] const FabricStats& stats() const { return stats_; }
  void reset_stats() { stats_ = FabricStats{}; }

  [[nodiscard]] const Topology& topology() const { return topo_; }

  /// Unidirectional link count (for utilization).
  [[nodiscard]] std::uint64_t num_links() const {
    std::uint64_t links = 0;
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) links += topo_.degree(n);
    return links;
  }

  /// For the distributed controller (§6.6): while node n is marked starved,
  /// the fabric sets the congested bit on every flit passing through n.
  /// Call enable_marking() once before using set_marks_flits().
  void enable_marking() { marking_.assign(topo_.num_nodes(), 0); }
  void set_marks_flits(NodeId n, bool marking) { marking_.at(n) = marking; }

 protected:
  struct InjectSlot {
    Flit flit;
    bool requested = false;
  };

  /// Cross-tile staging of one record type: a fixed-capacity outbox per
  /// (cycle parity, src tile, dst tile), carved from an arena per src tile.
  /// Route stages into parity now & 1; the dst tile's next deliver drains
  /// parity (now-1) & 1.
  template <typename T>
  class HaloBoxes {
   public:
    /// links = link_counts(): a box's capacity is its tile pair's directed
    /// link count, as at most one flit, and one credit, crosses a link per
    /// cycle. A tile's internal links (the diagonal) get no box.
    void carve(const std::vector<std::uint32_t>& links, std::size_t tiles) {
      tiles_ = tiles;
      std::vector<std::uint32_t> cap = links;
      std::vector<std::size_t> bytes(tiles, 0);
      for (std::size_t i = 0; i < cap.size(); ++i) {
        if (i / tiles == i % tiles) cap[i] = 0;
        bytes[i / tiles] += sets_.size() * Arena::lane_bytes<T>(cap[i]);
      }
      arenas_.clear();
      arenas_.resize(tiles);
      for (std::size_t t = 0; t < tiles; ++t) arenas_[t].reserve(bytes[t]);
      for (std::vector<Box>& set : sets_) {
        set.assign(tiles * tiles, Box{});
        for (std::size_t i = 0; i < set.size(); ++i)
          set[i] = {arenas_[i / tiles].alloc_array<T>(cap[i]), 0, cap[i]};
      }
    }
    /// Claim the next slot of this cycle's box from src to dst; the caller
    /// fills it.
    T& stage(Cycle now, int src, int dst) {
      Box& b = sets_[now & 1][static_cast<std::size_t>(src) * tiles_ +
                              static_cast<std::size_t>(dst)];
      NOCSIM_DCHECK(b.count < b.cap);
      return b.slots[b.count++];
    }
    /// Visit, then empty, what the tiles staged for dst in cycle now-1, in
    /// src tile order.
    template <typename F>
    void drain(Cycle now, int dst, F&& visit) {
      std::vector<Box>& set = sets_[(now - 1) & 1];  // wraps at cycle 0: all empty
      for (auto i = static_cast<std::size_t>(dst); i < set.size(); i += tiles_) {
        for (std::uint32_t k = 0; k < set[i].count; ++k) visit(set[i].slots[k]);
        set[i].count = 0;
      }
    }
    /// Visit every staged record; between cycles, those not yet drained.
    template <typename F>
    void for_each(F&& visit) const {
      for (const std::vector<Box>& set : sets_)
        for (const Box& b : set)
          for (std::uint32_t k = 0; k < b.count; ++k) visit(b.slots[k]);
    }

   private:
    struct Box {
      T* slots = nullptr;
      std::uint32_t count = 0;
      std::uint32_t cap = 0;
    };
    std::size_t tiles_ = 0;
    std::vector<Arena> arenas_;             ///< [src tile]
    std::array<std::vector<Box>, 2> sets_;  ///< [parity][src * tiles + dst]
  };

  /// [src tile * tiles + dst tile]: directed links from src's routers to
  /// dst's routers under plan_ (the diagonal counts a tile's internal
  /// links).
  [[nodiscard]] std::vector<std::uint32_t> link_counts() const {
    const auto tiles = static_cast<std::size_t>(plan_.tiles());
    std::vector<std::uint32_t> counts(tiles * tiles, 0);
    for (NodeId n = 0; n < topo_.num_nodes(); ++n) {
      const auto src = static_cast<std::size_t>(plan_.tile_of(n));
      for (int d = 0; d < kNumDirs; ++d) {
        const NodeId nb = topo_.link(n, d).to;
        if (nb == kInvalidNode) continue;
        ++counts[src * tiles + static_cast<std::size_t>(plan_.tile_of(nb))];
      }
    }
    return counts;
  }

  /// (Re)carve the fabric's own tile storage for plan_. Only legal on an
  /// empty network.
  virtual void retile() = 0;

  /// What the serial replay of one ejection needs: the inputs of the
  /// order-sensitive latency/hop accumulators (the commutative counters are
  /// summed on the tile).
  struct EjectRecord {
    std::uint32_t inject_cycle;
    std::uint32_t enqueue_cycle;
    std::uint16_t hops;
    std::uint16_t deflections;
  };

  enum class TraceKind : std::uint8_t { Inject, Hop, Deflect, Eject };
  /// One flit event, buffered on the tile for shard_finish's replay.
  struct TraceRecord {
    TraceKind kind;
    NodeId at;  ///< router (hop: the source)
    NodeId to;  ///< hop target; unused otherwise
    Flit flit;
  };

  /// Per-tile scratch of one cycle: plain counters (commutative, summed in
  /// shard_finish) plus the order-sensitive eject and trace records
  /// (replayed serially). Reset every cycle; the vectors keep their
  /// capacity, so the steady-state cycle is allocation-free.
  struct ShardTile {
    std::uint64_t flits_injected = 0;
    std::uint64_t flit_hops = 0;
    std::uint64_t deflections = 0;
    std::uint64_t productive_hops = 0;
    std::uint64_t buffer_reads = 0;
    std::uint64_t buffer_writes = 0;
    std::uint64_t halo_writes = 0;
    std::uint64_t halo_bytes = 0;
    std::uint64_t flit_hops_delivered = 0;
    std::uint64_t min_hops_total = 0;
    std::int64_t net_delta = 0;  ///< in_network_ delta (injected - ejected)
    std::vector<EjectRecord> ejects;
    std::vector<TraceRecord> trace;

    void reset() {
      flits_injected = flit_hops = deflections = 0;
      productive_hops = buffer_reads = buffer_writes = 0;
      halo_writes = halo_bytes = 0;
      flit_hops_delivered = min_hops_total = 0;
      net_delta = 0;
      ejects.clear();
      trace.clear();
    }
  };

  /// A flit leaves the network at `at`: the sink runs now (the tile owns
  /// the node's NI state), the accumulator updates wait for shard_finish.
  void eject(NodeId at, const Flit& f, ShardTile& ts) {
    NOCSIM_SHARD_CHECK_WRITE(at, "ejection (eject)");
    --ts.net_delta;
    ts.flit_hops_delivered += f.hops;
    ts.min_hops_total += static_cast<std::uint64_t>(topo_.distance(f.src, f.dst));
    ts.ejects.push_back(EjectRecord{f.inject_cycle, f.enqueue_cycle, f.hops, f.deflections});
    if (trace_ != nullptr) ts.trace.push_back(TraceRecord{TraceKind::Eject, at, kInvalidNode, f});
    if (sink_) sink_(at, f);
  }

  [[nodiscard]] bool node_marks(NodeId n) const {
    return !marking_.empty() && marking_[n];
  }

  // Shard-ownership annotations (common/shard_annotations.hpp): tile-local
  // state is writable per node only by the owning tile during phases;
  // shared-readonly state is written from serial sections (ctor,
  // shard_begin/shard_finish) only.
  const Topology& topo_;
  const int hop_latency_;  ///< cycles from one router's input latch to the next's
  ShardPlan plan_ NOCSIM_SHARED_READONLY;
  std::vector<InjectSlot> pending_inject_ NOCSIM_TILE_LOCAL;
  /// Nodes with a pending injection request; fabrics OR a tile's words into
  /// their route worklist (and clear them) so an inject-only router is
  /// still visited without scanning every node.
  TileBits inject_bits_ NOCSIM_TILE_LOCAL;
  std::vector<ShardTile> shard_tiles_ NOCSIM_TILE_LOCAL;  ///< one per tile
  FabricStats stats_ NOCSIM_SHARED_READONLY;
  EjectSink sink_ NOCSIM_SHARED_READONLY;
  FlitEventSink* trace_ NOCSIM_SHARED_READONLY = nullptr;  ///< null = tracing off
  std::uint64_t in_network_ NOCSIM_SHARED_READONLY = 0;    ///< flits injected minus ejected
  std::vector<std::uint64_t> node_deflections_ NOCSIM_TILE_LOCAL;  ///< per-router
  std::vector<std::uint8_t> marking_ NOCSIM_SHARED_READONLY;  ///< empty unless distributed CC
  Cycle last_begun_ NOCSIM_SHARED_READONLY = ~Cycle{0};
};

}  // namespace nocsim
