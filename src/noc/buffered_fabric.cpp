#include "noc/buffered_fabric.hpp"

#include <bit>

#include "topology/route_tables.hpp"

namespace nocsim {

BufferedFabric::BufferedFabric(const Topology& topo, int router_latency, int link_latency)
    : Fabric(topo, router_latency, link_latency),
      nodes_(topo.num_nodes()) {
  vc_classes_ = topo.has_wrap();
  for (NodeId n = 0; n < topo.num_nodes(); ++n) {
    auto& st = nodes_[n];
    for (int d = 0; d < kNumDirs; ++d) {
      const Topology::Link& l = topo.link(n, d);
      st.nbr[d] = l.to;
      st.dst_slot[d] = l.in_slot;
      st.link_dim[d] = l.dim;
      if (l.wrap) st.wrap_mask |= static_cast<std::uint8_t>(1u << d);
      for (int v = 0; v < kVcs; ++v)
        st.credits[d][v] = (st.nbr[d] != kInvalidNode) ? kVcDepth : 0;
    }
    for (int s = 0; s < kNumDirs; ++s) {
      const Topology::InLink& il = topo.in_link(n, s);
      st.up_node[s] = il.from;
      st.up_port[s] = il.from_port;
    }
  }
  // Grid families are deadlock-free by construction (dimension order +
  // dateline classes); an arbitrary graph's routing tree is not — assert
  // the channel-dependency graph of the tables is acyclic before routing
  // a single flit over them.
  if (topo.kind() == Topology::Kind::Irregular) {
    NOCSIM_CHECK_MSG(check_cdg_acyclic(topo, *topo.route_tables()),
                     "irregular topology: routing tables form a cyclic channel "
                     "dependency graph (wormhole deadlock possible)");
  }
  retile();
}

int BufferedFabric::route_port(NodeId n, NodeId dst) const {
  if (n == dst) return static_cast<int>(Dir::Local);
  const RoutePreference pref = topo_.route_preference(n, dst);
  NOCSIM_DCHECK(pref.count > 0);
  return static_cast<int>(pref.dirs[0]);  // deterministic: first preferred port
}

std::uint8_t BufferedFabric::next_vc_state(NodeId n, int op, std::uint8_t vc_state) const {
  if (!vc_classes_ || op == static_cast<int>(Dir::Local)) return vc_state;
  const auto& st = nodes_[n];
  std::uint8_t state = vc_state;
  // Entering a new routing dimension resets the dateline class to 0;
  // crossing the ring's wrap link moves the packet to class 1 for the
  // remainder of this dimension. Must mirror next_state in
  // route_tables.cpp exactly (the CDG checker models this transform).
  const std::uint8_t dim = st.link_dim[static_cast<std::size_t>(op)];
  if ((state >> 1) != dim) state = static_cast<std::uint8_t>(dim << 1);
  if (st.wrap_mask & (1u << op)) state |= 1;
  return state;
}

void BufferedFabric::retile() {
  const auto t = static_cast<std::size_t>(plan_.tiles());
  // Ring bounds per tile: directed links landing in it (arrivals) and
  // leaving it (credits travel back to the link's source). Outbox bounds
  // per (src, dst) pair: the directed links crossing between them.
  std::vector<std::uint32_t> cross = link_counts();
  std::vector<std::uint32_t> in_links(t, 0), out_links(t, 0);
  for (std::size_t src = 0; src < t; ++src) {
    for (std::size_t dst = 0; dst < t; ++dst) {
      out_links[src] += cross[src * t + dst];
      in_links[dst] += cross[src * t + dst];
    }
    cross[src * t + src] = 0;
  }
  std::size_t on_links = 0;
  for (const TileLinks& tl : tile_links_) {
    tl.arrivals.for_each([&on_links](const LinkArrival&) { ++on_links; });
    tl.credits.for_each([&on_links](const CreditReturn&) { ++on_links; });
  }
  NOCSIM_CHECK_MSG(in_network_ == 0 && on_links == 0,
                   "fabric layout rebuilt with flits or credits in flight");

  work_bits_ = TileBits(plan_);
  const std::size_t arr_slots = static_cast<std::size_t>(hop_latency_) + 1;
  tile_links_.clear();
  tile_links_.resize(t);
  arenas_.clear();
  arenas_.resize(t);
  for (std::size_t s = 0; s < t; ++s) {
    std::size_t bytes = LinkRing<LinkArrival>::layout_bytes(arr_slots, in_links[s]) +
                        LinkRing<CreditReturn>::layout_bytes(2, out_links[s]);
    for (std::size_t d = 0; d < t; ++d) {
      bytes += Arena::lane_bytes<LinkArrival>(cross[s * t + d]);
      bytes += Arena::lane_bytes<CreditReturn>(cross[s * t + d]);
    }
    Arena& arena = arenas_[s];
    arena.reserve(bytes);
    TileLinks& tl = tile_links_[s];
    tl.arrivals.carve(arena, arr_slots, in_links[s]);
    tl.credits.carve(arena, 2, out_links[s]);
    tl.out_arr.resize(t);
    tl.out_cred.resize(t);
    for (std::size_t d = 0; d < t; ++d) {
      const std::uint32_t cap = cross[s * t + d];
      tl.out_arr[d] = {arena.alloc_array<LinkArrival>(cap), 0, cap};
      tl.out_cred[d] = {arena.alloc_array<CreditReturn>(cap), 0, cap};
    }
  }
}

bool BufferedFabric::can_accept(NodeId n) const {
  const auto& st = nodes_[n];
  const auto& local = st.in_vc[static_cast<int>(Dir::Local)];
  if (st.inj_alloc_valid) return local[st.inj_vc].fifo.size() < kVcDepth;
  for (int v = 0; v < kVcs; ++v)
    if (local[v].fifo.size() < kVcDepth) return true;
  return false;
}

std::uint32_t BufferedFabric::oldest_inflight_inject_cycle() const {
  // Between cycles every in-flight flit is either buffered in a VC FIFO or
  // riding a link (a tile's arrival ring; outboxes are drained within the
  // cycle). Credits carry no flits.
  std::uint32_t oldest = kNoInflight;
  const auto fold = [&oldest](std::uint32_t ic) {
    if (ic < oldest) oldest = ic;
  };
  for (const NodeState& st : nodes_) {
    if (st.occ == 0) continue;
    for (const auto& port : st.in_vc) {
      for (const VcState& vc : port) fold(vc.fifo.min_inject_cycle());
    }
  }
  for (const TileLinks& tl : tile_links_)
    tl.arrivals.for_each([&fold](const LinkArrival& a) { fold(a.h.inject_cycle); });
  return oldest;
}

void BufferedFabric::shard_deliver(Cycle now, int tile) {
  NOCSIM_PHASE("deliver");
  // Move the tile's arrivals and credits due now into its routers.
  TileLinks& tl = tile_links_[static_cast<std::size_t>(tile)];
  ShardTile& ts = shard_tiles_[static_cast<std::size_t>(tile)];
  std::uint64_t* const work = work_bits_.words(tile).data();
  const NodeId lo = plan_.range(tile).lo;
  std::uint64_t writes = 0;
  tl.arrivals.drain(now, [&](const LinkArrival& a) {
    NOCSIM_SHARD_CHECK_WRITE(a.node, "fifo delivery (shard_deliver)");
    NodeState& st = nodes_[a.node];
    st.in_vc[a.port][a.vc].fifo.push_back(a.h, a.p);
    st.occ |= occ_bit(a.port, a.vc);
    ++writes;
    const auto local = static_cast<std::uint32_t>(a.node - lo);
    work[local >> 6] |= std::uint64_t{1} << (local & 63);
  });
  ts.buffer_writes += writes;
  tl.credits.drain(now, [&](const CreditReturn& c) {
    NOCSIM_SHARD_CHECK_WRITE(c.node, "credit delivery (shard_deliver)");
    auto& count = nodes_[c.node].credits[c.dir][c.vc];
    NOCSIM_CHECK_MSG(count < kVcDepth, "credit overflow");
    ++count;
  });
}

void BufferedFabric::shard_route(Cycle now, int tile) {
  NOCSIM_PHASE("route");
  // Visit the tile's routers with buffered flits or a pending injection
  // only, in ascending node order (same order as a full scan, so the
  // ejection sequence is unchanged). New work can only appear in
  // shard_deliver (arrivals) or below (injections), so a bit cleared here
  // stays clear for the rest of the cycle.
  std::vector<std::uint64_t>& work_words = work_bits_.words(tile);
  std::uint64_t* const work = work_words.data();
  std::uint64_t* const inject = inject_bits_.words(tile).data();
  const std::size_t words = work_words.size();
  const NodeId lo = plan_.range(tile).lo;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = work[w] | inject[w];
    if (bits == 0) continue;
    inject[w] = 0;
    std::uint64_t still = 0;
    do {
      const int b = std::countr_zero(bits);
      bits &= bits - 1;
      const auto n = lo + static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b));
      if (pending_inject_[n].requested) accept_injection(now, n, tile);
      if (nodes_[n].occ != 0) {
        route_node(now, n, tile);
        if (nodes_[n].occ != 0) still |= std::uint64_t{1} << b;
      }
    } while (bits != 0);
    work[w] = still;
  }
}

void BufferedFabric::shard_exchange(Cycle now, int tile) {
  NOCSIM_PHASE("exchange");
  // Collect arrivals and credits other tiles routed toward this tile into
  // its own rings. Same-slot entries address distinct FIFOs / credit
  // counters, so the src-tile visit order is immaterial.
  TileLinks& tl = tile_links_[static_cast<std::size_t>(tile)];
  const Cycle arrive_at = now + static_cast<Cycle>(hop_latency_);
  for (TileLinks& src : tile_links_) {
    auto& abox = src.out_arr[static_cast<std::size_t>(tile)];
    for (std::uint32_t i = 0; i < abox.count; ++i) {
      const LinkArrival& a = abox.slots[i];
      NOCSIM_SHARD_CHECK_WRITE(a.node, "halo arrival apply (shard_exchange)");
      tl.arrivals.push(arrive_at, a);
    }
    abox.count = 0;
    auto& cbox = src.out_cred[static_cast<std::size_t>(tile)];
    for (std::uint32_t i = 0; i < cbox.count; ++i) {
      const CreditReturn& c = cbox.slots[i];
      NOCSIM_SHARD_CHECK_WRITE(c.node, "halo credit apply (shard_exchange)");
      tl.credits.push(now + 1, c);
    }
    cbox.count = 0;
  }
}

void BufferedFabric::accept_injection(Cycle now, NodeId n, int tile) {
  NOCSIM_SHARD_CHECK_WRITE(n, "injection (accept_injection)");
  auto& st = nodes_[n];
  Flit f = pending_inject_[n].flit;
  pending_inject_[n].requested = false;
  f.inject_cycle = static_cast<std::uint32_t>(now);

  int vc = -1;
  if (st.inj_alloc_valid) {
    NOCSIM_CHECK_MSG(f.flit_idx != 0, "new packet while previous still injecting");
    vc = st.inj_vc;
  } else {
    NOCSIM_CHECK_MSG(f.flit_idx == 0, "body flit with no injection VC allocated");
    // Pick the emptiest local VC with space.
    std::size_t best_fill = kVcDepth;
    for (int v = 0; v < kVcs; ++v) {
      const auto fill = st.in_vc[static_cast<int>(Dir::Local)][v].fifo.size();
      if (fill < best_fill) {
        best_fill = fill;
        vc = v;
      }
    }
    NOCSIM_CHECK_MSG(vc >= 0 && best_fill < kVcDepth, "injection without can_accept");
    if (f.packet_len > 1) {
      st.inj_alloc_valid = true;
      st.inj_vc = static_cast<std::uint8_t>(vc);
    }
  }
  if (f.flit_idx + 1 == f.packet_len) st.inj_alloc_valid = false;

  st.in_vc[static_cast<int>(Dir::Local)][vc].fifo.push_back(header_of(f), payload_of(f));
  st.occ |= occ_bit(static_cast<int>(Dir::Local), vc);
  ShardTile& ts = shard_tiles_[static_cast<std::size_t>(tile)];
  ++ts.net_delta;
  ++ts.flits_injected;
  ++ts.buffer_writes;
  if (trace_ != nullptr) ts.trace.push_back(TraceRecord{TraceKind::Inject, n, kInvalidNode, f});
}

void BufferedFabric::route_node(Cycle now, NodeId n, int tile) {
  NOCSIM_SHARD_CHECK_WRITE(n, "router state (route_node)");
  auto& st = nodes_[n];
  TileLinks& tl = tile_links_[static_cast<std::size_t>(tile)];
  ShardTile& ts = shard_tiles_[static_cast<std::size_t>(tile)];

  // Gather switch-allocation candidates: the head flits of the occupied
  // input VCs, insertion-sorted oldest first as they arrive. age_key() is
  // older_than() extended by the (port, vc) tie-break, so the order is
  // pinned and independent of any library sort. older_than() alone is a
  // strict total order over distinct in-flight flits, so that tie-break is
  // unreachable in practice; it keeps the grant order fully specified.
  // Only the header lane of each FIFO head is touched here; the cold
  // payload lane is read once per granted flit below.
  struct Candidate {
    AgeKey key;
    std::uint8_t port, vc, out_port;
  };
  std::array<Candidate, kInPorts * kVcs> cands;
  int num_cands = 0;
  for (std::uint32_t occ = st.occ; occ != 0; occ &= occ - 1) {
    const int bit = std::countr_zero(occ);
    const int p = bit / kVcs;
    const int v = bit % kVcs;
    const VcState& vcs = st.in_vc[p][v];
    // Holds an output VC with no downstream credit: the grant loop would
    // skip it without side effects (credits only rise in deliver(), at the
    // start of a cycle), so it never becomes a candidate. Heads still
    // awaiting VC allocation stay in: a tail granted earlier in the loop
    // can free a VC for them.
    if (vcs.alloc_valid && st.credits[vcs.alloc_op][vcs.alloc_vc] == 0) continue;
    const int op = vcs.alloc_valid ? vcs.alloc_op : route_port(n, vcs.fifo.front_header().dst);
    const Candidate c{age_key(vcs.fifo.front_header(), static_cast<std::uint8_t>(p),
                              static_cast<std::uint8_t>(v)),
                      static_cast<std::uint8_t>(p), static_cast<std::uint8_t>(v),
                      static_cast<std::uint8_t>(op)};
    int k = num_cands++;
    for (; k > 0 && c.key < cands[k - 1].key; --k) cands[k] = cands[k - 1];
    cands[k] = c;
  }
  if (num_cands == 0) return;

  // Stage a link item for the tile that owns its target node: this tile's
  // own ring, else the outbox to the owner.
  const ShardPlan::TileRange own = plan_.range(tile);
  const auto stage = [&](auto& ring, auto& outboxes, Cycle at, NodeId target,
                         const auto& item) {
    if (target < own.lo || target >= own.hi) {
      const int dt = plan_.tile_of(target);
      NOCSIM_SHARD_CHECK_HALO(tile, dt);
      outboxes[static_cast<std::size_t>(dt)].push(item);
      ++ts.halo_writes;
      ts.halo_bytes += sizeof(item);
      return;
    }
    ring.push(at, item);
  };

  // VC allocation (one grant per output port per cycle), then switch
  // allocation (one flit per input port and per output port), in one
  // oldest-first pass — a simplification of a two-stage pipeline that keeps
  // the same fairness policy.
  std::uint8_t in_used = 0, out_used = 0;
  bool vc_alloc_done[kNumDirs] = {};

  // Pop the granted head and mark its input and output ports used for this
  // cycle. When a neighbour-port FIFO pops, the upstream router regains
  // one credit for that (link, VC) after a 1-cycle credit-wire delay.
  // Local (injection) FIFOs have no credits: can_accept() inspects them
  // directly.
  const auto pop = [&](const Candidate& c, VcState& vcs) {
    vcs.fifo.pop_front();
    if (vcs.fifo.empty()) st.occ &= ~occ_bit(c.port, c.vc);
    in_used |= static_cast<std::uint8_t>(1u << c.port);
    out_used |= static_cast<std::uint8_t>(1u << c.out_port);
    if (c.port == static_cast<int>(Dir::Local)) return;
    const NodeId upstream = st.up_node[c.port];
    NOCSIM_DCHECK(upstream != kInvalidNode);
    stage(tl.credits, tl.out_cred, now + 1, upstream,
          CreditReturn{upstream, st.up_port[c.port], c.vc});
  };

  for (int k = 0; k < num_cands; ++k) {
    const Candidate& c = cands[k];
    if (in_used & (1u << c.port)) continue;
    if (out_used & (1u << c.out_port)) continue;

    auto& vcs = st.in_vc[c.port][c.vc];
    const FlitHeader h = vcs.fifo.front_header();
    const int op = c.out_port;

    if (op == static_cast<int>(Dir::Local)) {
      // Ejection: no VC or credit needed; the NI sink always accepts.
      Flit out = assemble_flit(h, vcs.fifo.front_payload());
      pop(c, vcs);
      ++ts.buffer_reads;
      eject(n, out, ts);
      continue;
    }

    // Need an output VC: allocate for heads, reuse for body flits. On a
    // torus the dateline class restricts which downstream VCs are legal.
    if (h.flit_idx == 0 && !vcs.alloc_valid) {
      if (vc_alloc_done[op]) continue;  // one VC allocation per output per cycle
      int v_lo = 0, v_hi = kVcs;
      if (vc_classes_) {
        const int cls = vc_class_of(next_vc_state(n, op, h.vc_state));
        v_lo = cls * (kVcs / 2);
        v_hi = v_lo + kVcs / 2;
      }
      int free_vc = -1;
      for (int v = v_lo; v < v_hi; ++v) {
        if (!st.out_vc_busy[op][v]) {
          free_vc = v;
          break;
        }
      }
      if (free_vc < 0) continue;  // all legal downstream VCs held by other packets
      vc_alloc_done[op] = true;
      vcs.alloc_valid = true;
      vcs.alloc_op = static_cast<std::uint8_t>(op);
      vcs.alloc_vc = static_cast<std::uint8_t>(free_vc);
      st.out_vc_busy[op][free_vc] = true;
    }
    NOCSIM_DCHECK(vcs.alloc_valid && vcs.alloc_op == op);
    const int ovc = vcs.alloc_vc;

    if (st.credits[op][ovc] == 0) continue;  // downstream FIFO full

    // Traverse. The granted flit's payload is read exactly once, here.
    FlitPayload p = vcs.fifo.front_payload();
    pop(c, vcs);
    --st.credits[op][ovc];
    FlitHeader mh = h;
    mh.vc_state = next_vc_state(n, op, h.vc_state);
    ++p.hops;
    if (node_marks(n)) mh.congested_bit = true;
    const bool is_tail = (h.flit_idx + 1 == p.packet_len);
    const NodeId next = st.nbr[op];
    NOCSIM_CHECK_MSG(next != kInvalidNode, "routing chose a missing link");
    const LinkArrival arr{mh, p, next, st.dst_slot[static_cast<std::size_t>(op)],
                          static_cast<std::uint8_t>(ovc)};
    ++ts.buffer_reads;
    ++ts.flit_hops;
    ++ts.productive_hops;  // XY routing: every buffered hop is minimal
    if (trace_ != nullptr)
      ts.trace.push_back(TraceRecord{TraceKind::Hop, n, next, assemble_flit(mh, p)});
    stage(tl.arrivals, tl.out_arr, now + static_cast<Cycle>(hop_latency_), next, arr);

    if (is_tail) {
      st.out_vc_busy[op][ovc] = false;
      vcs.alloc_valid = false;
    }
  }
}

}  // namespace nocsim
