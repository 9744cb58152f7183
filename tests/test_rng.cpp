#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

namespace nocsim {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkedStreamsIndependentAndDeterministic) {
  Rng root(7);
  Rng f1 = root.fork(1);
  Rng f2 = root.fork(2);
  Rng f1again = root.fork(1);
  EXPECT_EQ(f1.next_u64(), f1again.next_u64());
  EXPECT_NE(f1.next_u64(), f2.next_u64());
}

TEST(Rng, NextBelowRespectsBoundExactly) {
  Rng rng(42);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 7ull, 100ull, 1000000ull}) {
    for (int i = 0; i < 2000; ++i) ASSERT_LT(rng.next_below(bound), bound);
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.next_below(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 10 * 0.1);
  }
}

TEST(Rng, NextRangeInclusiveEndpointsReachable) {
  Rng rng(5);
  bool lo_hit = false, hi_hit = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.next_range(-3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    lo_hit |= (v == -3);
    hi_hit |= (v == 3);
  }
  EXPECT_TRUE(lo_hit);
  EXPECT_TRUE(hi_hit);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(13);
  for (const double lambda : {0.5, 1.0, 4.0}) {
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) sum += rng.next_exponential(lambda);
    EXPECT_NEAR(sum / n, 1.0 / lambda, 0.02 / lambda);
  }
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(17);
  const int n = 200000;
  int hits = 0;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

// The integer Bernoulli must be next_bool(p) bit for bit: same draws, same
// outcomes, for every p — the synthetic trace generator relies on it.
std::vector<double> bernoulli_probe_ps() {
  std::vector<double> ps = {0.0, 1.0, 0.1, 0.3, 0.5, 1e-300, 0x1.0p-60, -0.5, 1.5,
                            std::nan("")};
  for (const std::uint64_t k : {1ull, 2ull, 3ull, 12345ull, (1ull << 52) + 1, (1ull << 53) - 1})
    ps.push_back(std::ldexp(static_cast<double>(k), -53));  // exact multiples of 2^-53
  const std::size_t exact = ps.size();
  for (std::size_t i = 0; i < exact; ++i) {
    ps.push_back(std::nextafter(ps[i], 0.0));
    ps.push_back(std::nextafter(ps[i], 2.0));
  }
  Rng pick(99);
  for (int i = 0; i < 50; ++i) ps.push_back(pick.next_double());
  return ps;
}

TEST(Rng, IntegerBernoulliMatchesNextBoolOnSeededDraws) {
  for (const double p : bernoulli_probe_ps()) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    Rng a(2024), b(2024);
    for (int i = 0; i < 20000; ++i) ASSERT_EQ(a.next_bool_below(t), b.next_double() < p) << p;
    EXPECT_EQ(a.next_u64(), b.next_u64()) << "streams diverged at p=" << p;
  }
}

TEST(Rng, IntegerBernoulliExactAtTheThreshold) {
  // Random draws almost never land next to the threshold, so walk the
  // 53-bit mantissa values m around it directly: m < t must hold exactly
  // when next_double()'s value m * 2^-53 is below p.
  for (const double p : bernoulli_probe_ps()) {
    const std::uint64_t t = Rng::bernoulli_threshold(p);
    const std::uint64_t lo = t > 3 ? t - 3 : 0;
    for (std::uint64_t m = lo; m <= t + 3 && m < (1ull << 53); ++m)
      ASSERT_EQ(m < t, std::ldexp(static_cast<double>(m), -53) < p) << "p=" << p << " m=" << m;
  }
  EXPECT_EQ(Rng::bernoulli_threshold(0.0), 0u);
  EXPECT_EQ(Rng::bernoulli_threshold(1.0), 1ull << 53);
  EXPECT_EQ(Rng::bernoulli_threshold(0x1.0p-53), 1u);
}

TEST(Rng, ParetoAtLeastMinimum) {
  Rng rng(19);
  for (int i = 0; i < 10000; ++i) ASSERT_GE(rng.next_pareto(2.0, 1.5), 2.0);
}

TEST(Rng, GeometricTinyPStaysFinite) {
  // Regression: for tiny p the quotient log(1-u)/log(1-p) exceeds 2^64 and
  // the uint64 cast was UB (UBSan float-cast-overflow); below ~1.1e-16,
  // 1-p rounds to 1.0 and the quotient is infinite. The draw now saturates
  // at the largest double below 2^64.
  Rng rng(29);
  for (double p = 1e-1; p >= 1e-12; p *= 1e-1) {
    for (int i = 0; i < 1000; ++i) {
      const std::uint64_t v = rng.next_geometric(p);
      ASSERT_LE(v, 18446744073709549568ULL) << "p " << p;
    }
  }
  // log(1-p) == -0.0 territory: every draw saturates deterministically.
  EXPECT_EQ(rng.next_geometric(1e-20), 18446744073709549568ULL);
}

TEST(Rng, GeometricConsumesOneDrawForEveryP) {
  // The saturating path must consume exactly one uniform draw, like the
  // normal path, so interleaved distributions stay stream-stable.
  Rng a(31), b(31);
  (void)a.next_geometric(1e-20);
  (void)b.next_geometric(0.5);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, GeometricMeanMatchesP) {
  Rng rng(23);
  const double p = 0.25;
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(rng.next_geometric(p));
  // Mean failures before success = (1-p)/p = 3.
  EXPECT_NEAR(sum / n, 3.0, 0.1);
}

}  // namespace
}  // namespace nocsim
