#include "noc/bless_fabric.hpp"

#include <algorithm>
#include <bit>

namespace nocsim {

BlessFabric::BlessFabric(const Topology& topo, int router_latency, int link_latency,
                         BlessRouting routing)
    : Fabric(topo, router_latency, link_latency),
      routing_(routing),
      slot_bound_(topo.in_slot_bound()),
      lanes_shift_(slot_bound_ <= 4 ? 2 : 3),
      nodes_(topo.num_nodes()) {
  NOCSIM_CHECK(slot_bound_ <= kNumDirs);
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    auto& st = nodes_[n];
    for (int d = 0; d < kNumDirs; ++d) {
      const Topology::Link& l = topo.link(n, d);
      st.nbr[d] = l.to;
      st.dst_slot[d] = l.in_slot;
      if (st.nbr[d] != kInvalidNode) ++st.degree;
    }
    NOCSIM_CHECK_MSG(st.degree >= 2, "degenerate topology: router with degree < 2");
    // Deflection never drops only if arrivals (<= in-degree) always fit the
    // output ports; grids are symmetric, irregular graphs must be too.
    NOCSIM_CHECK_MSG(topo.in_degree(n) <= st.degree,
                     "bufferless routing requires in-degree <= out-degree at every router");
  }
  retile();
}

void BlessFabric::retile() {
  NOCSIM_CHECK_MSG(in_network_ == 0, "fabric layout rebuilt with flits in flight");
  const auto tiles = static_cast<std::size_t>(plan_.tiles());
  const std::size_t nbanks = static_cast<std::size_t>(hop_latency_) + 1;

  // Size each tile's arena up front (bump arenas do not grow).
  const auto lane_len = [this](std::size_t m) { return m << lanes_shift_; };
  const auto words = [](std::size_t m) { return (m + 63) / 64; };
  arenas_.clear();
  arenas_.resize(tiles);
  banks_.assign(nbanks, LatchBank{});
  for (std::size_t t = 0; t < tiles; ++t) {
    const auto m = static_cast<std::size_t>(plan_.tile_nodes(static_cast<int>(t)));
    Arena& a = arenas_[t];
    a.reserve(nbanks * (Arena::lane_bytes<FlitHeader>(lane_len(m)) +
                        Arena::lane_bytes<FlitPayload>(lane_len(m)) +
                        Arena::lane_bytes<std::uint8_t>(m) +
                        Arena::lane_bytes<std::uint64_t>(words(m))));
    for (LatchBank& b : banks_) {
      b.hdr.push_back(a.alloc_array<FlitHeader>(lane_len(m)));
      b.pay.push_back(a.alloc_array<FlitPayload>(lane_len(m)));
      b.valid.push_back(a.alloc_array<std::uint8_t>(m));
      b.active.push_back(a.alloc_array<std::uint64_t>(words(m)));
    }
  }

  halo_.carve(link_counts(), tiles);

  cur_ = &banks_[0];  // empty network: can_accept is well-defined pre-begin
}

void BlessFabric::shard_begin(Cycle now) {
  Fabric::shard_begin(now);
  // Arrivals were written in place when they departed; making their bank
  // current *is* the latching step.
  cur_ = &banks_[now % banks_.size()];
}

bool BlessFabric::can_accept(NodeId n) const {
  // Injection eligibility: through flits (arrivals minus at most one
  // ejectable) must leave a free output port. Computed on demand — only
  // nodes whose NI actually asks pay for it, and an idle router answers
  // with a single load. The scan touches only the header lane.
  const int t = plan_.tile_of(n);
  const std::size_t local = plan_.local_of(t, n);
  const std::uint8_t lv = cur_->valid[static_cast<std::size_t>(t)][local];
  if (lv == 0) return true;
  const FlitHeader* h = cur_->hdr[static_cast<std::size_t>(t)] + (local << lanes_shift_);
  bool has_eject = false;
  for (int p = 0; p < slot_bound_; ++p) {
    if ((lv & (1u << p)) && h[p].dst == n) {
      has_eject = true;
      break;
    }
  }
  return (std::popcount(lv) - (has_eject ? 1 : 0)) < nodes_[n].degree;
}

std::uint32_t BlessFabric::oldest_inflight_inject_cycle() const {
  // Between cycles every in-flight flit sits in exactly one latch-bank
  // slot (written at departure, consumed when its bank becomes current) or,
  // if its last hop crossed a tile boundary, in a halo outbox the next
  // cycle applies. Scanning both sees the whole network.
  std::uint32_t oldest = kNoInflight;
  halo_.for_each(
      [&oldest](const HaloWrite& hw) { oldest = std::min(oldest, hw.h.inject_cycle); });
  for (const LatchBank& b : banks_) {
    for (int t = 0; t < plan_.tiles(); ++t) {
      const auto m = static_cast<std::size_t>(plan_.tile_nodes(t));
      const std::uint8_t* valid = b.valid[static_cast<std::size_t>(t)];
      const FlitHeader* hdr = b.hdr[static_cast<std::size_t>(t)];
      for (std::size_t local = 0; local < m; ++local) {
        std::uint8_t lv = valid[local];
        while (lv != 0) {
          const int p = std::countr_zero(static_cast<unsigned>(lv));
          lv &= static_cast<std::uint8_t>(lv - 1);
          const std::uint32_t ic =
              hdr[(local << lanes_shift_) + static_cast<std::size_t>(p)].inject_cycle;
          if (ic < oldest) oldest = ic;
        }
      }
    }
  }
  return oldest;
}

void BlessFabric::shard_deliver(Cycle now, int tile) {
  NOCSIM_PHASE("deliver");
  // Apply the latch writes other tiles routed toward this tile's routers in
  // cycle now-1, into the bank they were bound for (now-1 + hop_latency;
  // hop_latency >= 2 keeps it off the current bank). The slots are distinct
  // (one flit per link per cycle), so apply order does not matter.
  const TileLanes out =
      lanes_of(banks_[(now - 1 + static_cast<Cycle>(hop_latency_)) % banks_.size()], tile);
  halo_.drain(now, tile, [&](const HaloWrite& hw) {
    NOCSIM_SHARD_CHECK_WRITE(hw.node, "halo latch apply (shard_deliver)");
    const std::size_t local = plan_.local_of(tile, hw.node);
    NOCSIM_DCHECK((out.valid[local] & (1u << hw.port)) == 0);
    out.hdr[(local << lanes_shift_) + hw.port] = hw.h;
    out.pay[(local << lanes_shift_) + hw.port] = hw.p;
    out.valid[local] |= static_cast<std::uint8_t>(1u << hw.port);
    out.active[local >> 6] |= std::uint64_t{1} << (local & 63);
  });
}

void BlessFabric::shard_route(Cycle now, int tile) {
  NOCSIM_PHASE("route");
  // Visit exactly the tile's routers with latched arrivals or a pending
  // injection, in ascending node order (bit-scan order == node order), which
  // keeps the ejection sequence — and with it every order-sensitive
  // accumulator — identical to a full scan. Nobody sets bits in the current
  // bank during this phase: downstream writes land in a different bank of
  // the ring (hop_latency % banks != 0).
  const TileLanes in = lanes_of(*cur_, tile);
  const TileLanes out =
      lanes_of(banks_[(now + static_cast<Cycle>(hop_latency_)) % banks_.size()], tile);
  std::uint64_t* const active = in.active;
  std::vector<std::uint64_t>& inject_words = inject_bits_.words(tile);
  std::uint64_t* const inject = inject_words.data();
  const std::size_t words = inject_words.size();
  const NodeId lo = plan_.range(tile).lo;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = active[w] | inject[w];
    if (bits == 0) continue;
    active[w] = 0;
    inject[w] = 0;
    do {
      const auto local =
          static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
      route_node(now, lo + static_cast<NodeId>(local), local, tile, in, out);
    } while (bits != 0);
  }
}

void BlessFabric::route_node(Cycle now, NodeId n, std::uint32_t local, int tile,
                             const TileLanes& in, const TileLanes& out) {
  NOCSIM_SHARD_CHECK_WRITE(n, "router state (route_node)");
  const auto& st = nodes_[n];
  ShardTile& ts = shard_tiles_[static_cast<std::size_t>(tile)];

  // Gather arrival headers; clear the latches (every flit present leaves
  // this cycle). Payloads stay put in the bank lane — only a pointer is
  // carried — and are copied once, straight into the downstream slot.
  std::array<FlitHeader, kNumDirs + 1> hs;
  std::array<const FlitPayload*, kNumDirs + 1> ps;
  int count = 0;
  const std::uint8_t lv = in.valid[local];
  if (lv != 0) {
    const FlitHeader* in_h = in.hdr + (static_cast<std::size_t>(local) << lanes_shift_);
    const FlitPayload* in_p = in.pay + (static_cast<std::size_t>(local) << lanes_shift_);
    for (int p = 0; p < slot_bound_; ++p) {
      if (lv & (1u << p)) {
        hs[count] = in_h[p];
        ps[count] = &in_p[p];
        ++count;
      }
    }
    in.valid[local] = 0;
  }

  // 1. Ejection: oldest flit destined here (width 1).
  int eject_idx = -1;
  for (int i = 0; i < count; ++i) {
    if (hs[i].dst == n && (eject_idx < 0 || older_than(hs[i], hs[eject_idx])))
      eject_idx = i;
  }
  if (eject_idx >= 0) {
    const Flit ejected = assemble_flit(hs[eject_idx], *ps[eject_idx]);
    --count;
    hs[eject_idx] = hs[count];
    ps[eject_idx] = ps[count];
    eject(n, ejected, ts);
  }

  // 2. Injection (node layer already checked can_accept).
  FlitPayload inj_pay;
  if (pending_inject_[n].requested) {
    pending_inject_[n].requested = false;
    NOCSIM_CHECK_MSG(count < st.degree, "injection requested without a free output link");
    const Flit& f = pending_inject_[n].flit;
    hs[count] = header_of(f);
    hs[count].inject_cycle = static_cast<std::uint32_t>(now);
    inj_pay = payload_of(f);
    ps[count] = &inj_pay;
    ++count;
    ++ts.net_delta;
    ++ts.flits_injected;
    if (trace_ != nullptr)
      ts.trace.push_back(TraceRecord{TraceKind::Inject, n, kInvalidNode,
                                     assemble_flit(hs[count - 1], inj_pay)});
  }

  if (count == 0) return;
  NOCSIM_CHECK_MSG(count <= st.degree, "more through flits than output ports");

  // 3. Oldest-first port allocation with dimension-order preference;
  // deflect losers. Tiny insertion sort (count <= slot bound + 1): indices
  // into hs[], oldest first. Arbitration reads headers only.
  std::array<int, kNumDirs + 1> order;
  for (int i = 0; i < count; ++i) {
    int j = i;
    while (j > 0 && older_than(hs[i], hs[order[j - 1]])) {
      order[j] = order[j - 1];
      --j;
    }
    order[j] = i;
  }

  const bool mark = node_marks(n);
  const ShardPlan::TileRange own = plan_.range(tile);
  const auto own_nodes = static_cast<std::uint32_t>(own.hi - own.lo);
  std::uint8_t taken = 0;  // output-port bitmask
  for (int k = 0; k < count; ++k) {
    FlitHeader& h = hs[order[k]];
    const FlitPayload* const p = ps[order[k]];
    const RoutePreference pref = topo_.route_preference(n, h.dst);
    const int desired =
        (routing_ == BlessRouting::StrictXY) ? std::min(pref.count, 1) : pref.count;
    int assigned = -1;
    bool productive = false;
    for (int c = 0; c < desired && assigned < 0; ++c) {
      const int port = static_cast<int>(pref.dirs[c]);
      if (st.nbr[port] != kInvalidNode && !(taken & (1u << port))) {
        assigned = port;
        productive = true;
      }
    }
    bool deflected = false;
    if (assigned < 0) {  // deflect: any free existing port
      for (int port = 0; port < kNumDirs; ++port) {
        if (st.nbr[port] != kInvalidNode && !(taken & (1u << port))) {
          assigned = port;
          break;
        }
      }
      NOCSIM_CHECK_MSG(assigned >= 0, "no free output port: flit would be dropped");
      deflected = true;
      ++node_deflections_[static_cast<std::size_t>(n)];
      ++ts.deflections;
      if (trace_ != nullptr) {
        FlitPayload tp = *p;
        ++tp.deflections;
        ts.trace.push_back(TraceRecord{TraceKind::Deflect, n, kInvalidNode, assemble_flit(h, tp)});
      }
    }
    taken |= static_cast<std::uint8_t>(1u << assigned);

    if (mark) h.congested_bit = true;
    if (productive) ++ts.productive_hops;
    ++ts.flit_hops;

    // Link traversal: write straight into the downstream router's input
    // latch in the bank that becomes current at now + hop_latency. The
    // cold payload is copied here, once, and its per-hop counters are
    // bumped at the destination slot.
    const NodeId next = st.nbr[assigned];
    const std::uint8_t in_port = st.dst_slot[static_cast<std::size_t>(assigned)];
    const auto nl = static_cast<std::uint32_t>(next - own.lo);
    FlitPayload* dp;
    if (nl < own_nodes) {
      NOCSIM_SHARD_CHECK_WRITE(next, "downstream latch (route_node)");
      NOCSIM_DCHECK((out.valid[nl] & (1u << in_port)) == 0);
      const std::size_t slot = (static_cast<std::size_t>(nl) << lanes_shift_) + in_port;
      dp = &out.pay[slot];
      out.hdr[slot] = h;
      out.valid[nl] |= static_cast<std::uint8_t>(1u << in_port);
      out.active[nl >> 6] |= std::uint64_t{1} << (nl & 63);
    } else {
      // Boundary crossing: the target tile applies this in the next
      // cycle's shard_deliver.
      const int dt = plan_.tile_of(next);
      NOCSIM_SHARD_CHECK_HALO(tile, dt);
      HaloWrite& hw = halo_.stage(now, tile, dt);
      hw.h = h;
      hw.node = next;
      hw.port = in_port;
      dp = &hw.p;
      ++ts.halo_writes;
      ts.halo_bytes += sizeof(HaloWrite);
    }
    *dp = *p;
    ++dp->hops;
    if (deflected) ++dp->deflections;
    if (trace_ != nullptr)
      ts.trace.push_back(TraceRecord{TraceKind::Hop, n, next, assemble_flit(h, *dp)});
  }
}

}  // namespace nocsim
