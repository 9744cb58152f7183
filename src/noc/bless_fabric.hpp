// BLESS bufferless deflection fabric (FLIT-BLESS, Oldest-First arbitration).
//
// Per router and cycle (paper §2.2, Figure 1):
//   1. Ejection: among arriving flits destined here, the oldest leaves
//      through the local port (ejection width 1; extras are deflected).
//   2. Injection: the node may add one new flit iff the number of through
//      flits is strictly less than the router's neighbour-port count
//      ("one of its output links is free").
//   3. Port allocation, oldest first: each flit tries its productive XY
//      ports (x before y); if both are taken or absent it is *deflected* to
//      any free port. Routers never block: with <= degree flits to route and
//      degree output ports, allocation always succeeds — the network is
//      lossless and needs no ACKs.
//
// A hop occupies `router_latency + link_latency` cycles end to end; flits in
// the pipeline are held in a timing wheel and do not contend (at most one
// flit enters a given link per cycle, so per-port arrival latches never
// collide).
//
// The wheel is a ring of latch banks, one per pipeline phase: a router
// writes each departing flit straight into the destination router's input
// latch in the bank that becomes current `hop_latency` cycles later
// (conflict-free by the one-flit-per-link-per-cycle invariant), so
// shard_begin() is a pointer swap and shard_route() walks only the bank's
// active bitmap — routers without arrivals or injections are never touched.
//
// Memory layout (see DESIGN.md "Memory layout"): each latch bank stores
// header and payload lanes separately (SoA), carved from one bump arena per
// tile together with that tile's active-bitmap words, so ejection and
// arbitration scans stream 20-byte headers and the cold payload is copied
// once per hop. A latch write into another tile's router goes to a
// fixed-capacity halo outbox (capacity = the tile pair's cross-link count)
// owned by the writing tile; the outboxes are the only cachelines two
// tiles both touch.
#pragma once

#include <array>
#include <vector>

#include "common/arena.hpp"
#include "noc/fabric.hpp"

namespace nocsim {

/// Port-preference policy for deflection routing.
enum class BlessRouting : std::uint8_t {
  /// Strict dimension-order: a flit desires exactly one port (x until the
  /// x-offset is consumed, then y). Any contention loss is a deflection.
  /// This is the paper's baseline (§2.1 "The most common routing paradigm
  /// is x-y routing") and makes deflection cost rise steeply with load —
  /// the congestion behaviour the paper studies.
  StrictXY,
  /// Minimal-adaptive: either productive port is acceptable (x preferred).
  /// Far fewer deflections under load; kept as an ablation point
  /// (bench/abl_routing).
  MinimalAdaptive,
};

class BlessFabric final : public Fabric {
 public:
  BlessFabric(const Topology& topo, int router_latency = 2, int link_latency = 1,
              BlessRouting routing = BlessRouting::StrictXY);

  [[nodiscard]] bool can_accept(NodeId n) const override;
  [[nodiscard]] std::uint32_t oldest_inflight_inject_cycle() const override;

  // Arrivals were latched in place at departure, so there is nothing to
  // deliver: shard_begin makes the arrival bank current, and only routing
  // and the halo exchange of cross-tile latch writes are per tile.
  void shard_begin(Cycle now) override;
  void shard_route(Cycle now, int tile) override;
  void shard_exchange(Cycle now, int tile) override;

 private:
  struct NodeState {
    std::uint8_t degree = 0;            ///< usable neighbour ports
    std::array<NodeId, kNumDirs> nbr{}; ///< neighbour id per port (or kInvalidNode)
    /// Input latch slot this port's link lands in at the downstream router
    /// (grids: opposite(port); irregular graphs: parser-assigned).
    std::array<std::uint8_t, kNumDirs> dst_slot{};
  };

  /// One pipeline phase of arrival latches for the whole network, as
  /// per-tile SoA lanes. The bank at index `cycle % banks_.size()` holds
  /// exactly the flits arriving that cycle; upstream routers wrote them in
  /// place `hop_latency` cycles ago (that slot can never alias the writer's
  /// own current bank since hop_latency % (hop_latency + 1) != 0). Lanes
  /// index [(local << lanes_shift_) + input slot] with `local` the node's
  /// dense index within its tile and lanes_shift_ the power-of-two ceiling
  /// of the topology's input-slot bound (4 slots on 2D grids, 8 for the
  /// 6-slot 3D families).
  struct LatchBank {
    std::vector<FlitHeader*> hdr;       ///< [tile] -> header lane
    std::vector<FlitPayload*> pay;      ///< [tile] -> payload lane
    std::vector<std::uint8_t*> valid;   ///< [tile] -> port bitmask per local node
    std::vector<std::uint64_t*> active; ///< [tile] -> bit per local node with valid != 0
  };

  /// One tile's lanes of one bank, resolved once per tile step.
  struct TileLanes {
    FlitHeader* hdr;
    FlitPayload* pay;
    std::uint8_t* valid;
    std::uint64_t* active;
  };
  [[nodiscard]] static TileLanes lanes_of(const LatchBank& b, int tile) {
    const auto t = static_cast<std::size_t>(tile);
    return TileLanes{b.hdr[t], b.pay[t], b.valid[t], b.active[t]};
  }

  /// One router's eject/inject/allocate/move step; `local` is n's index in
  /// `tile`, `in` the tile's lanes of the current bank and `out` those of
  /// the bank current at now + hop_latency. Counters go to the tile's
  /// scratch, eject and trace records to its replay buffers, and latch
  /// writes into another tile's router to the halo outboxes.
  void route_node(Cycle now, NodeId n, std::uint32_t local, int tile, const TileLanes& in,
                  const TileLanes& out);

  /// A latch write destined for a router another tile owns: applied by the
  /// *target* tile in shard_exchange, so every latch slot has exactly one
  /// writer thread. (One flit per link per cycle makes the slots distinct.)
  struct HaloWrite {
    FlitHeader h;
    FlitPayload p;
    NodeId node;
    std::uint8_t port;
  };

  /// Carve every latch lane, bitmap word and halo outbox from per-tile
  /// arenas.
  void retile() override;

  BlessRouting routing_ NOCSIM_SHARED_READONLY;
  int slot_bound_ NOCSIM_SHARED_READONLY = kNumDirs;  ///< input slots in use
  int lanes_shift_ NOCSIM_SHARED_READONLY = 0;        ///< log2 of the latch lane stride
  /// Read-only after the ctor here, but the annotation table is name-keyed
  /// and BufferedFabric's nodes_ is genuinely tile-local mutable state.
  std::vector<NodeState> nodes_ NOCSIM_TILE_LOCAL;
  /// One bump arena per tile holding that tile's latch lanes, bitmap words
  /// and outboxes.
  std::vector<Arena> arenas_ NOCSIM_TILE_LOCAL;
  /// Ring of hop_latency + 1 phases. Latch lanes are tile-owned; cross-tile
  /// writes detour through halo_ (runtime-checked).
  std::vector<LatchBank> banks_ NOCSIM_TILE_LOCAL;
  LatchBank* cur_ NOCSIM_SHARED_READONLY = nullptr;  ///< bank for the cycle begun last
  std::vector<Outbox<HaloWrite>> halo_ NOCSIM_HALO_ONLY;  ///< [src * tiles + dst]
};

}  // namespace nocsim
