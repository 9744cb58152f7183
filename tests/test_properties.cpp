// Cross-module property tests: randomized traffic through the full
// fabric + reassembly stack, conservation and determinism invariants that
// every experiment silently depends on.
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <deque>
#include <map>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "noc/bless_fabric.hpp"
#include "noc/buffered_fabric.hpp"
#include "noc/reassembly.hpp"
#include "noc/traffic.hpp"
#include "sim/experiment.hpp"

namespace nocsim {
namespace {


// gtest prints a parameter without a printer as a raw byte dump, and
// gtest_discover_tests bakes that dump into the ctest test name. The seed
// leads so the name's first bytes are fixed; a leading std::string would
// start it with a heap address that changes with every build.
struct FuzzCase {
  std::uint64_t seed;
  std::string fabric;     // "bless" | "bless-adaptive" | "buffered"
  std::string topology;   // "mesh" | "torus"
  int side;
  double rate;
  int max_pkt_len;
};

std::unique_ptr<Fabric> make_fabric(const FuzzCase& fc, const Topology& topo) {
  if (fc.fabric == "buffered") return std::make_unique<BufferedFabric>(topo);
  const auto routing = (fc.fabric == "bless-adaptive") ? BlessRouting::MinimalAdaptive
                                                       : BlessRouting::StrictXY;
  return std::make_unique<BlessFabric>(topo, 2, 1, routing);
}

class FabricFuzz : public ::testing::TestWithParam<FuzzCase> {};

// Every flit of every packet is delivered to its destination exactly once,
// and reassembly completes every packet — across fabrics, topologies,
// loads, and mixed packet lengths.
TEST_P(FabricFuzz, PacketsReassembleExactlyOnce) {
  const FuzzCase& fc = GetParam();
  const auto topo = make_topology(fc.topology, fc.side, fc.side);
  const auto fabric = make_fabric(fc, *topo);

  // Per-destination reassembly, tracking completed packets by (src, seq).
  std::map<std::pair<NodeId, PacketSeq>, int> completed;
  std::vector<std::unique_ptr<ReassemblyTable>> tables;
  for (NodeId n = 0; n < topo->num_nodes(); ++n) {
    tables.push_back(std::make_unique<ReassemblyTable>(
        [&completed](const Flit& header, Cycle) {
          ++completed[{header.src, header.packet}];
        }));
  }
  fabric->set_eject_sink([&](NodeId at, const Flit& f) {
    ASSERT_EQ(f.dst, at) << "flit ejected at the wrong node";
    tables[at]->on_flit(f, 0);
  });

  UniformTraffic pattern(*topo);
  Rng rng(fc.seed);
  std::vector<std::deque<Flit>> queues(topo->num_nodes());
  std::uint64_t packets_sent = 0;
  PacketSeq seq = 0;
  for (Cycle now = 0; now < 1500; ++now) {
    fabric->begin_cycle(now);
    for (NodeId n = 0; n < topo->num_nodes(); ++n) {
      if (rng.next_bool(fc.rate)) {
        const int len = 1 + static_cast<int>(rng.next_below(fc.max_pkt_len));
        const NodeId dst = pattern.pick(n, rng);
        for (int i = 0; i < len; ++i) {
          Flit f;
          f.src = n;
          f.dst = dst;
          f.packet = static_cast<std::uint32_t>(seq);
          f.flit_idx = static_cast<std::uint8_t>(i);
          f.packet_len = static_cast<std::uint8_t>(len);
          queues[n].push_back(f);
        }
        ++seq;
        ++packets_sent;
      }
      if (!queues[n].empty() && fabric->can_accept(n)) {
        fabric->request_inject(n, queues[n].front());
        queues[n].pop_front();
      }
    }
    fabric->step(now);
  }
  // Drain.
  Cycle now = 1500;
  const auto queued = [&] {
    std::size_t total = 0;
    for (const auto& q : queues) total += q.size();
    return total;
  };
  while ((queued() > 0 || !fabric->empty()) && now < 400'000) {
    fabric->begin_cycle(now);
    for (NodeId n = 0; n < topo->num_nodes(); ++n) {
      if (!queues[n].empty() && fabric->can_accept(n)) {
        fabric->request_inject(n, queues[n].front());
        queues[n].pop_front();
      }
    }
    fabric->step(now);
    ++now;
  }
  ASSERT_TRUE(fabric->empty()) << "network failed to drain";
  EXPECT_EQ(completed.size(), packets_sent);
  for (const auto& [key, count] : completed) {
    ASSERT_EQ(count, 1) << "packet delivered " << count << " times";
  }
  for (NodeId n = 0; n < topo->num_nodes(); ++n) {
    EXPECT_EQ(tables[n]->pending_packets(), 0u) << "incomplete reassembly at node " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FabricFuzz,
    ::testing::Values(FuzzCase{1, "bless", "mesh", 4, 0.3, 4},
                      FuzzCase{2, "bless", "mesh", 6, 0.5, 3},
                      FuzzCase{3, "bless", "torus", 4, 0.4, 4},
                      FuzzCase{4, "bless-adaptive", "mesh", 5, 0.5, 4},
                      FuzzCase{5, "bless-adaptive", "torus", 5, 0.3, 2},
                      FuzzCase{6, "buffered", "mesh", 4, 0.3, 4},
                      FuzzCase{7, "buffered", "mesh", 6, 0.15, 9},
                      FuzzCase{8, "buffered", "torus", 4, 0.25, 4},
                      FuzzCase{9, "buffered", "torus", 5, 0.35, 3}),
    [](const auto& inf) {
      const FuzzCase& fc = inf.param;
      return fc.fabric.substr(0, fc.fabric.find('-')) +
             (fc.fabric.find("adaptive") != std::string::npos ? "Adaptive" : "") + "_" +
             fc.topology + std::to_string(fc.side) + "_s" + std::to_string(fc.seed);
    });

// ---- Flit-level invariant fuzz ------------------------------------------
//
// Randomized traffic with an outside observer attached: conservation,
// exactly-once delivery by flit identity, the productive-hop identity, and
// the BLESS oldest-destined ejection rule, none of which the metrics-level
// golden tests can see.

struct FlitKey {
  NodeId src;
  std::uint32_t packet;
  std::uint8_t flit_idx;
  auto operator<=>(const FlitKey&) const = default;
};

FlitKey key_of(const Flit& f) { return {f.src, f.packet, f.flit_idx}; }

/// Reconstructs every router's per-cycle arrival set from hop events and
/// checks the BLESS ejection rule as an outside observer: the local port
/// takes one arriving flit destined here, never while a strictly older
/// destined arrival is left to route on. The buffered fabric offers no such
/// guarantee — an older ejectable head can lose its *input* port to an even
/// older traversing candidate, letting a younger flit from another port
/// eject first — so this checker is only attached to BLESS fabrics.
class BlessEjectChecker final : public FlitEventSink {
 public:
  explicit BlessEjectChecker(int hop_latency) : h_(hop_latency) {}

  void on_inject(Cycle, NodeId, const Flit&) override {}
  void on_deflect(Cycle, NodeId, const Flit&) override {}

  void on_hop(Cycle now, NodeId, NodeId to, const Flit& f) override {
    arrivals_[{now + static_cast<Cycle>(h_), to}].push_back(f);
  }

  void on_eject(Cycle now, NodeId at, const Flit& f) override {
    const auto it = arrivals_.find({now, at});
    if (it == arrivals_.end()) {
      ADD_FAILURE() << "ejection at node " << at << " cycle " << now
                    << " without any reconstructed arrival";
      return;
    }
    bool found = false;
    for (const Flit& a : it->second) {
      if (key_of(a) == key_of(f)) found = true;
      if (a.dst != at || key_of(a) == key_of(f)) continue;
      EXPECT_FALSE(older_than(a, f))
          << "node " << at << " cycle " << now << " ejected a younger flit while "
          << "an older destined arrival deflected";
    }
    EXPECT_TRUE(found) << "ejected flit was not among this cycle's arrivals";
  }

  /// Drop consumed arrival sets (everything at or before `now`).
  void forget(Cycle now) {
    while (!arrivals_.empty() && arrivals_.begin()->first.first <= now)
      arrivals_.erase(arrivals_.begin());
  }

 private:
  int h_;
  std::map<std::pair<Cycle, NodeId>, std::vector<Flit>> arrivals_;
};

class FabricInvariants : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(FabricInvariants, ConservationExactlyOnceOldestEject) {
  const FuzzCase& fc = GetParam();
  const auto topo = make_topology(fc.topology, fc.side, fc.side);
  const auto fabric = make_fabric(fc, *topo);
  const bool bless = (fc.fabric != "buffered");

  std::map<FlitKey, int> eject_counts;
  std::map<std::pair<NodeId, std::uint32_t>, std::uint8_t> next_idx;
  std::uint64_t injected = 0;
  std::uint64_t ejected = 0;
  fabric->set_eject_sink([&](NodeId at, const Flit& f) {
    EXPECT_EQ(f.dst, at) << "flit ejected at the wrong node";
    ++ejected;
    ++eject_counts[key_of(f)];
    if (!bless) {
      // Wormhole switching: one path, one VC, FIFO buffers — a packet's
      // flits must eject in index order. (FLIT-BLESS routes each flit
      // independently; reordering there is expected and reassembly's job.)
      auto& next = next_idx[{f.src, f.packet}];
      EXPECT_EQ(f.flit_idx, next) << "packet flits delivered out of order";
      ++next;
    }
  });

  BlessEjectChecker checker(2 + 1);  // make_fabric: router_latency 2 + link 1
  if (bless) fabric->set_trace_sink(&checker);

  UniformTraffic pattern(*topo);
  Rng rng(fc.seed * 1000 + 7);
  std::vector<std::deque<Flit>> queues(topo->num_nodes());
  std::uint64_t keys_sent = 0;
  PacketSeq seq = 0;

  const auto cycle = [&](Cycle now, bool generate) {
    fabric->begin_cycle(now);
    for (NodeId n = 0; n < topo->num_nodes(); ++n) {
      if (generate && rng.next_bool(fc.rate)) {
        const int len = 1 + static_cast<int>(rng.next_below(fc.max_pkt_len));
        const NodeId dst = pattern.pick(n, rng);
        for (int i = 0; i < len; ++i) {
          Flit f;
          f.src = n;
          f.dst = dst;
          f.packet = static_cast<std::uint32_t>(seq);
          f.flit_idx = static_cast<std::uint8_t>(i);
          f.packet_len = static_cast<std::uint8_t>(len);
          queues[n].push_back(f);
          ++keys_sent;
        }
        ++seq;
      }
      if (!queues[n].empty() && fabric->can_accept(n)) {
        fabric->request_inject(n, queues[n].front());
        queues[n].pop_front();
        ++injected;  // can_accept is exact: a request always enters
      }
    }
    fabric->step(now);
    checker.forget(now);

    // Conservation closes every cycle, not just at the end.
    ASSERT_EQ(injected, ejected + fabric->in_flight());
    // Every routed hop is either productive or a deflection.
    const FabricStats& fs = fabric->stats();
    ASSERT_EQ(fs.flit_hops, fs.productive_hops + fs.deflections);
    if (!bless) {
      ASSERT_EQ(fs.deflections, 0u);
    }
  };

  Cycle now = 0;
  for (; now < 1'200; ++now) cycle(now, /*generate=*/true);
  while ((injected < keys_sent || !fabric->empty()) && now < 400'000)
    cycle(now++, /*generate=*/false);

  ASSERT_TRUE(fabric->empty()) << "network failed to drain";
  EXPECT_EQ(injected, keys_sent);
  EXPECT_EQ(ejected, keys_sent);
  // Exactly-once by flit identity: no loss, no duplication.
  EXPECT_EQ(eject_counts.size(), keys_sent);
  for (const auto& [key, count] : eject_counts)
    ASSERT_EQ(count, 1) << "flit delivered " << count << " times";
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, FabricInvariants,
    ::testing::Values(FuzzCase{11, "bless", "mesh", 4, 0.35, 4},
                      FuzzCase{12, "bless", "mesh", 6, 0.5, 3},
                      FuzzCase{13, "bless", "torus", 4, 0.4, 2},
                      FuzzCase{14, "bless-adaptive", "mesh", 5, 0.45, 4},
                      FuzzCase{15, "buffered", "mesh", 4, 0.3, 4},
                      FuzzCase{16, "buffered", "torus", 5, 0.25, 3}),
    [](const auto& inf) {
      const FuzzCase& fc = inf.param;
      return fc.fabric.substr(0, fc.fabric.find('-')) +
             (fc.fabric.find("adaptive") != std::string::npos ? "Adaptive" : "") + "_" +
             fc.topology + std::to_string(fc.side) + "_s" + std::to_string(fc.seed);
    });

// The buffered router's switch allocation sorts its candidates oldest-first
// every cycle. Saturating injection makes many flits share an inject cycle
// (equal age keys differ only in src/packet), so any comparator ambiguity
// or std::sort instability would reshuffle grants between identical runs.
// Two same-seed runs must produce the same delivery sequence, flit for flit.
TEST(BufferedSortDeterminism, EqualAgeTiesBreakIdenticallyAcrossRuns) {
  const auto run_once = [] {
    Torus topo(4, 4);  // wraparound: every router sees 4-way contention
    BufferedFabric fabric(topo);
    std::vector<std::tuple<Cycle, NodeId, FlitKey>> log;
    std::vector<Cycle> eject_cycles;
    fabric.set_eject_sink([&](NodeId at, const Flit& f) {
      log.emplace_back(f.inject_cycle, at, key_of(f));
    });

    UniformTraffic pattern(topo);
    Rng rng(99);
    std::vector<std::deque<Flit>> queues(topo.num_nodes());
    PacketSeq seq = 0;
    Cycle now = 0;
    for (; now < 600; ++now) {
      fabric.begin_cycle(now);
      for (NodeId n = 0; n < topo.num_nodes(); ++n) {
        if (queues[n].size() < 8) {  // saturate: always flits waiting
          Flit f;
          f.src = n;
          f.dst = pattern.pick(n, rng);
          f.packet = static_cast<std::uint32_t>(seq++);
          f.packet_len = 1;
          queues[n].push_back(f);
        }
        if (!queues[n].empty() && fabric.can_accept(n)) {
          fabric.request_inject(n, queues[n].front());
          queues[n].pop_front();
        }
      }
      fabric.step(now);
    }
    while (!fabric.empty() && now < 200'000) {
      fabric.begin_cycle(now);
      fabric.step(now);
      ++now;
    }
    EXPECT_TRUE(fabric.empty());
    return log;
  };

  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 1000u);
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(a[i], b[i]) << "delivery sequence diverged at flit " << i;
  // The scenario actually exercised equal-age contention: some inject cycle
  // was shared by many flits.
  std::map<Cycle, int> per_cycle;
  for (const auto& [inj, at, key] : a) ++per_cycle[inj];
  int max_same_cycle = 0;
  for (const auto& [c, count] : per_cycle) max_same_cycle = std::max(max_same_cycle, count);
  EXPECT_GE(max_same_cycle, 8);
}

// The buffered router insertion-sorts candidates by age_key() instead of
// calling the pinned comparator: older_than(), then (input port, VC). The
// packed key must order every pair exactly as that comparator does. Fields
// are drawn from narrow ranges (so equal inject cycles, sources and packets
// are common) and at their extremes: packet >= 2^31, src up to 4095 (a
// 64x64 mesh), flit_idx up to 255, and equal headers on different (port, vc).
TEST(AgeKeyOrder, PackedKeyMatchesPinnedComparator) {
  const auto pinned_less = [](const FlitHeader& a, int ap, int av, const FlitHeader& b, int bp,
                              int bv) {
    if (older_than(a, b)) return true;
    if (older_than(b, a)) return false;
    return (ap << 8 | av) < (bp << 8 | bv);
  };
  Rng rng(2026);
  const auto draw = [&rng](bool wide) {
    FlitHeader h;
    h.inject_cycle = wide ? static_cast<std::uint32_t>(rng.next_u64())
                          : static_cast<std::uint32_t>(rng.next_below(3));
    h.src = static_cast<NodeId>(wide ? rng.next_below(4096) : 4093 + rng.next_below(3));
    h.packet = wide ? static_cast<std::uint32_t>(rng.next_u64())
                    : (1u << 31) - 1 + static_cast<std::uint32_t>(rng.next_below(3));
    h.flit_idx =
        static_cast<std::uint8_t>(wide ? rng.next_below(256) : 254 + rng.next_below(2));
    h.dst = static_cast<NodeId>(rng.next_below(4096));  // not part of the order
    return h;
  };
  int ties = 0;
  for (int i = 0; i < 200'000; ++i) {
    const bool wide = (i % 4) == 0;
    const FlitHeader a = draw(wide);
    // Every eighth pair compares a header with itself on another (port, vc).
    const FlitHeader b = (i % 8) == 1 ? a : draw(wide);
    const auto ap = static_cast<std::uint8_t>(rng.next_below(7));
    const auto av = static_cast<std::uint8_t>(rng.next_below(4));
    auto bp = static_cast<std::uint8_t>(rng.next_below(7));
    const auto bv = static_cast<std::uint8_t>(rng.next_below(4));
    if (bp == ap && bv == av) bp = static_cast<std::uint8_t>((ap + 1) % 7);  // distinct slots
    if (!older_than(a, b) && !older_than(b, a)) ++ties;
    const AgeKey ka = age_key(a, ap, av);
    const AgeKey kb = age_key(b, bp, bv);
    ASSERT_EQ(ka < kb, pinned_less(a, ap, av, b, bp, bv)) << "pair " << i;
    ASSERT_EQ(kb < ka, pinned_less(b, bp, bv, a, ap, av)) << "pair " << i;
    ASSERT_NE(ka, kb) << "distinct (port, vc) must give distinct keys";
  }
  EXPECT_GT(ties, 20'000) << "the (port, vc) tie-break was barely exercised";
}

// Full-simulator determinism across the architecture matrix.
struct SimCase {
  RouterKind router;
  std::string topology;
  CcMode cc;
};
class SimulatorDeterminism : public ::testing::TestWithParam<SimCase> {};

TEST_P(SimulatorDeterminism, IdenticalRunsProduceIdenticalResults) {
  const SimCase& sc = GetParam();
  auto run_once = [&] {
    SimConfig c;
    c.router = sc.router;
    c.topology = sc.topology;
    c.cc = sc.cc;
    c.warmup_cycles = 5'000;
    c.measure_cycles = 25'000;
    c.cc_params.epoch = 6'000;
    Rng rng(9);
    const auto wl = make_category_workload("HM", 16, rng);
    return run_workload(c, wl);
  };
  const SimResult a = run_once();
  const SimResult b = run_once();
  EXPECT_EQ(a.fabric.flit_hops, b.fabric.flit_hops);
  EXPECT_EQ(a.fabric.flits_injected, b.fabric.flits_injected);
  for (std::size_t i = 0; i < a.nodes.size(); ++i) {
    ASSERT_EQ(a.nodes[i].retired, b.nodes[i].retired) << "node " << i;
    ASSERT_EQ(a.nodes[i].flits, b.nodes[i].flits) << "node " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ArchMatrix, SimulatorDeterminism,
    ::testing::Values(SimCase{RouterKind::Bless, "mesh", CcMode::None},
                      SimCase{RouterKind::Bless, "mesh", CcMode::Central},
                      SimCase{RouterKind::Bless, "mesh", CcMode::Distributed},
                      SimCase{RouterKind::Bless, "torus", CcMode::Central},
                      SimCase{RouterKind::Buffered, "mesh", CcMode::None},
                      SimCase{RouterKind::Buffered, "torus", CcMode::Central}),
    [](const auto& inf) {
      const SimCase& sc = inf.param;
      std::string name = (sc.router == RouterKind::Bless) ? "bless" : "buffered";
      name += "_" + sc.topology + "_";
      name += (sc.cc == CcMode::None ? "nocc"
                                     : (sc.cc == CcMode::Central ? "central" : "dist"));
      return name;
    });

// Flit accounting closes at the simulator level: injected == ejected +
// still-in-flight, and every retired instruction's data actually arrived.
TEST(SimulatorInvariants, FlitAccountingCloses) {
  SimConfig c;
  c.warmup_cycles = 0;
  c.measure_cycles = 50'000;
  c.cc_params.epoch = 10'000;
  const auto wl = make_homogeneous_workload("mcf", 16);
  Simulator sim(c, wl);
  const SimResult r = sim.run();
  EXPECT_LE(r.fabric.flits_ejected, r.fabric.flits_injected);
  const std::uint64_t in_flight = r.fabric.flits_injected - r.fabric.flits_ejected;
  // In-flight at cutoff is bounded by total network capacity (latches +
  // pipeline slots), not unbounded.
  EXPECT_LT(in_flight, 16u * 4u * 4u);
}

}  // namespace
}  // namespace nocsim
