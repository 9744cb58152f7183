// Unit tests for the congestion-control primitives: the Algorithm 3 gate,
// the starvation monitor (Algorithm 2), the central controller (Algorithm 1,
// Eqs. 1-2), the fixed-rate modes as the simulator applies them, and the
// distributed variant.
#include <gtest/gtest.h>

#include "core/controller.hpp"
#include "core/distributed.hpp"
#include "core/monitor.hpp"
#include "core/throttler.hpp"
#include "sim/simulator.hpp"

namespace nocsim {
namespace {

// ---------------------------------------------------------------- throttler

TEST(Throttler, ZeroRateAlwaysAllows) {
  InjectionThrottler t(InjectionThrottler::Gate::Deterministic);
  t.set_rate(0.0);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(t.allow());
  EXPECT_FALSE(t.active());
}

TEST(Throttler, DeterministicGateBlocksExactFraction) {
  for (const double rate : {0.25, 0.5, 0.75, 0.9}) {
    InjectionThrottler t(InjectionThrottler::Gate::Deterministic);
    t.set_rate(rate);
    int blocked = 0;
    const int n = 128 * 100;  // whole wraps
    for (int i = 0; i < n; ++i) blocked += !t.allow();
    EXPECT_DOUBLE_EQ(static_cast<double>(blocked) / n,
                     std::floor(rate * 128) / 128.0)
        << "rate " << rate;
  }
}

TEST(Throttler, DeterministicGateBlocksInOneRunPerWrap) {
  InjectionThrottler t(InjectionThrottler::Gate::Deterministic);
  t.set_rate(0.5);
  // Count transitions blocked->allowed within wraps: exactly one per wrap.
  int transitions = 0;
  bool prev = t.allow();
  for (int i = 1; i < 128 * 10; ++i) {
    const bool cur = t.allow();
    if (!prev && cur) ++transitions;
    prev = cur;
  }
  EXPECT_LE(transitions, 10);
}

TEST(Throttler, DeterministicGateBlocksContiguousLeadingRun) {
  // Algorithm 3 blocks the *first* floor(rate*128) attempts of every wrap.
  // (The old increment-then-compare order stranded the count_ == 0 block at
  // the end of each wrap.) Verify exact positions for every threshold,
  // including 128 (rate 1.0: every attempt blocks), across two wraps.
  for (int th = 0; th <= 128; ++th) {
    InjectionThrottler t(InjectionThrottler::Gate::Deterministic);
    t.set_rate(static_cast<double>(th) / 128.0);  // exact: /2^7 then *2^7
    for (int wrap = 0; wrap < 2; ++wrap) {
      for (int i = 0; i < 128; ++i) {
        ASSERT_EQ(t.allow(), i >= th)
            << "threshold " << th << " wrap " << wrap << " attempt " << i;
      }
    }
    EXPECT_EQ(t.blocked_attempts(), static_cast<std::uint64_t>(2 * th));
  }
}

TEST(Throttler, RandomizedGateBlocksExpectedFraction) {
  InjectionThrottler t(InjectionThrottler::Gate::Randomized, 99);
  t.set_rate(0.6);
  int blocked = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) blocked += !t.allow();
  EXPECT_NEAR(static_cast<double>(blocked) / n, 0.6, 0.01);
}

TEST(Throttler, TinyRateReportsActiveOnBothGates) {
  // Rates below 1/128 floor the deterministic threshold to zero, but the
  // gate is still configured (and the randomized gate still blocks); a
  // threshold-based active() wrongly reported such throttlers as off.
  for (const auto gate :
       {InjectionThrottler::Gate::Deterministic, InjectionThrottler::Gate::Randomized}) {
    InjectionThrottler t(gate);
    EXPECT_FALSE(t.active());
    t.set_rate(0.005);
    EXPECT_TRUE(t.active()) << "gate " << static_cast<int>(gate);
    t.set_rate(0.0);
    EXPECT_FALSE(t.active());
  }
}

TEST(Throttler, RandomizedGateBlocksAtTinyRate) {
  InjectionThrottler t(InjectionThrottler::Gate::Randomized, 7);
  t.set_rate(0.005);
  int blocked = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) blocked += !t.allow();
  EXPECT_GT(blocked, 0);
  EXPECT_NEAR(static_cast<double>(blocked) / n, 0.005, 0.002);
}

TEST(Throttler, DeterministicGateRateChangeResetsWrap) {
  InjectionThrottler t(InjectionThrottler::Gate::Deterministic);
  t.set_rate(0.5);
  // Advance into the allowed part of the wrap (counts 64..96 allow).
  for (int i = 0; i < 96; ++i) t.allow();
  // A mid-wrap rate change must not inherit the old phase: the next full
  // wrap blocks exactly floor(rate*128) attempts for the *new* rate.
  t.set_rate(0.25);
  int blocked = 0;
  for (int i = 0; i < 128; ++i) blocked += !t.allow();
  EXPECT_EQ(blocked, 32);
}

TEST(Throttler, DeterministicGateRateChangesAcrossEpochs) {
  // Emulate the controller re-staging rates at epoch boundaries, with the
  // epoch deliberately not a multiple of the wrap so each change lands
  // mid-wrap. After every change the next whole wrap must block exactly
  // floor(rate*128) attempts.
  InjectionThrottler t(InjectionThrottler::Gate::Deterministic);
  const double rates[] = {0.5, 0.25, 0.75, 0.1, 0.9};
  for (const double rate : rates) {
    for (int i = 0; i < 57; ++i) t.allow();  // drift mid-wrap
    t.set_rate(rate);
    int blocked = 0;
    for (int i = 0; i < 128; ++i) blocked += !t.allow();
    EXPECT_EQ(blocked, static_cast<int>(rate * 128)) << "rate " << rate;
  }
}

TEST(Throttler, DeterministicGateSameRateReapplyKeepsFreeRunningCounter) {
  // The controller re-applies unchanged rates every epoch; that must not
  // reset the wrap (the hardware counter is free-running).
  InjectionThrottler a(InjectionThrottler::Gate::Deterministic);
  InjectionThrottler b(InjectionThrottler::Gate::Deterministic);
  a.set_rate(0.5);
  b.set_rate(0.5);
  for (int i = 0; i < 1000; ++i) {
    if (i % 37 == 0) a.set_rate(0.5);  // redundant re-apply
    ASSERT_EQ(a.allow(), b.allow()) << "attempt " << i;
  }
}

TEST(Throttler, RandomizedGateDeterministicPerSeed) {
  InjectionThrottler a(InjectionThrottler::Gate::Randomized, 5);
  InjectionThrottler b(InjectionThrottler::Gate::Randomized, 5);
  a.set_rate(0.4);
  b.set_rate(0.4);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.allow(), b.allow());
}

// ------------------------------------------------------------------ monitor

TEST(StarvationMonitor, WindowedVsLifetime) {
  StarvationMonitor m(4);
  for (int i = 0; i < 4; ++i) m.record(true);
  for (int i = 0; i < 4; ++i) m.record(false);
  EXPECT_DOUBLE_EQ(m.windowed_rate(), 0.0);   // last 4 were false
  EXPECT_DOUBLE_EQ(m.lifetime_rate(), 0.5);
  m.reset_lifetime();
  EXPECT_DOUBLE_EQ(m.lifetime_rate(), 0.0);
  EXPECT_DOUBLE_EQ(m.windowed_rate(), 0.0);
}

// ------------------------------------------------------------------ params

TEST(CcParams, Equation1Threshold) {
  CcParams p;  // defaults: alpha 0.4, beta 0, gamma 0.7
  EXPECT_DOUBLE_EQ(p.starve_threshold(1.0), 0.4);
  EXPECT_DOUBLE_EQ(p.starve_threshold(0.5), 0.7);     // capped by gamma
  EXPECT_NEAR(p.starve_threshold(100.0), 0.004, 1e-12);
}

TEST(CcParams, Equation2Rate) {
  CcParams p;  // alpha 0.9, beta 0.2, gamma 0.75
  EXPECT_DOUBLE_EQ(p.throttle_rate(1.0), 0.75);       // 0.2+0.9 capped
  EXPECT_DOUBLE_EQ(p.throttle_rate(3.0), 0.5);        // 0.2+0.3
  EXPECT_NEAR(p.throttle_rate(1000.0), 0.2009, 1e-4); // floor ~beta
}

// --------------------------------------------------------------- controller

/// One controller epoch; the verdict lands in `congested`.
std::vector<double> run_epoch(CentralController& c, std::vector<NodeTelemetry> t,
                              bool& congested, NetTelemetry net = {}) {
  std::vector<double> rates(t.size(), -1.0);
  congested = c.on_epoch(t, net, rates);
  return rates;
}

TEST(CentralController, NoCongestionMeansNoThrottling) {
  CentralController c((CcParams()));
  bool congested = true;
  const auto rates = run_epoch(c, {{1.0, 0.1}, {50.0, 0.0}}, congested);  // sigma below thresholds
  EXPECT_EQ(rates[0], 0.0);
  EXPECT_EQ(rates[1], 0.0);
  EXPECT_FALSE(congested);
}

TEST(CentralController, SingleCongestedNodeActivatesThrottling) {
  CentralController c((CcParams()));
  bool congested = false;
  // Node 1 (IPF 50, threshold ~0.008) is starved -> system congested.
  const auto rates = run_epoch(c, {{1.0, 0.1}, {50.0, 0.05}}, congested);
  EXPECT_TRUE(congested);
  // Node 0 has IPF below mean(25.5): throttled at Eq.2 = 0.75.
  EXPECT_DOUBLE_EQ(rates[0], 0.75);
  // Node 1 is above the mean: not throttled.
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
}

TEST(CentralController, IntensiveNodesToleratedByEq1) {
  CentralController c((CcParams()));
  bool congested = true;
  // IPF 1 node starved at 0.35 < its threshold 0.4: NOT congested.
  const auto rates = run_epoch(c, {{1.0, 0.35}, {50.0, 0.0}}, congested);
  EXPECT_FALSE(congested);
  EXPECT_EQ(rates[0], 0.0);
}

TEST(CentralController, ZeroTrafficNodesExcludedFromMean) {
  CentralController c((CcParams()));
  bool congested = false;
  // Two idle nodes report the cap; the real mean is (1+19)/2 = 10.
  const auto rates = run_epoch(
      c, {{1.0, 0.5}, {19.0, 0.1}, {kIpfCap, 0.0}, {kIpfCap, 0.0}}, congested);
  EXPECT_TRUE(congested);
  EXPECT_DOUBLE_EQ(c.last_mean_ipf(), 10.0);
  EXPECT_GT(rates[0], 0.0);   // below mean -> throttled
  EXPECT_EQ(rates[1], 0.0);   // above mean -> free
  EXPECT_EQ(rates[2], 0.0);   // idle -> free
}

TEST(CentralController, AllIdleNeverThrottles) {
  CentralController c((CcParams()));
  bool congested = true;
  const auto rates = run_epoch(c, {{kIpfCap, 0.0}, {kIpfCap, 0.0}}, congested);
  EXPECT_FALSE(congested);
  EXPECT_EQ(rates[0], 0.0);
  EXPECT_EQ(rates[1], 0.0);
}

TEST(CentralController, EpochCountersTrackCongestion) {
  // Each epoch's verdict stands alone: the simulator counts them.
  CentralController c((CcParams()));
  const std::vector<NodeTelemetry> congested = {{1.0, 0.6}};
  const std::vector<NodeTelemetry> calm = {{1.0, 0.0}};
  std::vector<double> rates(1);
  EXPECT_TRUE(c.on_epoch(congested, {}, rates));
  EXPECT_FALSE(c.on_epoch(calm, {}, rates));
  EXPECT_TRUE(c.on_epoch(congested, {}, rates));
}

// ------------------------------------------------------------- fixed rates

/// A 2x2 mesh of heavy applications, one epoch of 100 cycles.
Simulator fixed_rate_sim(CcMode mode, double static_rate, std::vector<double> selective) {
  SimConfig c;
  c.width = c.height = 2;
  c.cc = mode;
  c.static_rate = static_rate;
  c.selective_rates = std::move(selective);
  c.cc_params.epoch = 100;
  WorkloadSpec wl;
  wl.app_names.assign(4, "mcf");
  return Simulator(c, wl);
}

TEST(StaticThrottling, UniformRate) {
  Simulator sim = fixed_rate_sim(CcMode::Static, 0.4, {});
  sim.run_cycles(99);
  for (NodeId n = 0; n < 4; ++n) EXPECT_EQ(sim.throttle_rate(n), 0.0) << "before the first epoch";
  sim.run_cycles(1);
  for (NodeId n = 0; n < 4; ++n) EXPECT_DOUBLE_EQ(sim.throttle_rate(n), 0.4);
}

TEST(SelectiveController, PerNodeRates) {
  Simulator sim = fixed_rate_sim(CcMode::Selective, 0.0, {0.9, 0.0, 0.3, 0.0});
  sim.run_cycles(100);
  EXPECT_DOUBLE_EQ(sim.throttle_rate(0), 0.9);
  EXPECT_DOUBLE_EQ(sim.throttle_rate(1), 0.0);
  EXPECT_DOUBLE_EQ(sim.throttle_rate(2), 0.3);
  EXPECT_DOUBLE_EQ(sim.throttle_rate(3), 0.0);
}

TEST(StaticThrottling, RejectsRatesOutsideUnitInterval) {
  EXPECT_DEATH(fixed_rate_sim(CcMode::Static, 1.0, {}), "static rate");
  EXPECT_DEATH(fixed_rate_sim(CcMode::Static, -0.1, {}), "static rate");
}

TEST(SelectiveController, RejectsRateVectorOfWrongLength) {
  EXPECT_DEATH(fixed_rate_sim(CcMode::Selective, 0.0, {0.9, 0.0, 0.3}), "one rate per node");
}

// --------------------------------------------------------------- escalation

TEST(CentralController, EscalationRaisesRatesUnderHopInflation) {
  CcParams p;
  p.escalation = true;
  CentralController c(p);
  const std::vector<NodeTelemetry> congested = {{1.0, 0.6}, {50.0, 0.0}};
  std::vector<double> rates(2);
  c.on_epoch(congested, NetTelemetry{8.0}, rates);  // orbiting network
  EXPECT_GT(c.escalation(), 1.0);
  c.on_epoch(congested, NetTelemetry{8.0}, rates);
  c.on_epoch(congested, NetTelemetry{8.0}, rates);
  EXPECT_GT(rates[0], p.gamma_throt) << "escalation should exceed the gamma ceiling";
  EXPECT_LE(rates[0], kRateCeiling);
  EXPECT_EQ(rates[1], 0.0) << "above-mean node stays free regardless";
}

TEST(CentralController, EscalationDecaysWhenInflationClears) {
  CcParams p;
  CentralController c(p);
  const std::vector<NodeTelemetry> congested = {{1.0, 0.6}, {50.0, 0.0}};
  std::vector<double> rates(2);
  for (int e = 0; e < 5; ++e) c.on_epoch(congested, NetTelemetry{8.0}, rates);
  const double peak = c.escalation();
  ASSERT_GT(peak, 1.0);
  for (int e = 5; e < 40; ++e) c.on_epoch(congested, NetTelemetry{1.5}, rates);
  EXPECT_DOUBLE_EQ(c.escalation(), 1.0);
  EXPECT_DOUBLE_EQ(rates[0], p.gamma_throt);  // back to Eq. 2 verbatim
}

TEST(CentralController, EscalationDisabledIsPaperVerbatim) {
  CcParams p;
  p.escalation = false;
  CentralController c(p);
  const std::vector<NodeTelemetry> congested = {{1.0, 0.6}, {50.0, 0.0}};
  std::vector<double> rates(2);
  for (int e = 0; e < 10; ++e) c.on_epoch(congested, NetTelemetry{10.0}, rates);
  EXPECT_DOUBLE_EQ(c.escalation(), 1.0);
  EXPECT_DOUBLE_EQ(rates[0], 0.75);
}

TEST(CentralController, EscalationNeverExceedsRateCeiling) {
  CcParams p;
  CentralController c(p);
  const std::vector<NodeTelemetry> congested = {{0.4, 0.7}, {50.0, 0.0}};
  std::vector<double> rates(2);
  for (int e = 0; e < 50; ++e) {
    c.on_epoch(congested, NetTelemetry{20.0}, rates);
    ASSERT_LE(rates[0], kRateCeiling);
  }
}

// -------------------------------------------------------------- distributed

TEST(Distributed, MarkThresholdAndHold) {
  DistributedCoordinator d(2, CcParams{});
  EXPECT_FALSE(d.should_mark(0.2));
  EXPECT_TRUE(d.should_mark(0.5));
  EXPECT_EQ(d.rate(0, 0), 0.0);
  d.set_local_ipf(0, 1.0);
  d.on_marked_packet(0, 100);
  EXPECT_DOUBLE_EQ(d.rate(0, 100), 0.75);                        // Eq. 2 at IPF 1
  EXPECT_DOUBLE_EQ(d.rate(0, 100 + kMarkHoldCycles - 1), 0.75);  // still within hold
  EXPECT_DOUBLE_EQ(d.rate(0, 100 + kMarkHoldCycles), 0.0);       // hold expired
  EXPECT_EQ(d.rate(1, 100), 0.0);           // other node unaffected
  EXPECT_EQ(d.marks_received(), 1u);
}

TEST(Distributed, RefreshedMarksExtendHold) {
  DistributedCoordinator d(1, CcParams{});
  d.set_local_ipf(0, 2.0);
  d.on_marked_packet(0, 0);
  d.on_marked_packet(0, kMarkHoldCycles - 100);
  EXPECT_GT(d.rate(0, kMarkHoldCycles + 500), 0.0);  // extended past the first hold
}

}  // namespace
}  // namespace nocsim
