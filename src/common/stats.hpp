// Streaming statistics utilities used throughout the simulator and benches.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"

namespace nocsim {

/// Streaming mean/variance/min/max accumulator (Welford's algorithm).
/// Numerically stable; O(1) memory.
class StatAccumulator {
 public:
  void add(double x) {
    ++count_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  void merge(const StatAccumulator& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    const double delta = other.mean_ - mean_;
    const auto n1 = static_cast<double>(count_);
    const auto n2 = static_cast<double>(other.count_);
    const double n = n1 + n2;
    m2_ += other.m2_ + delta * delta * n1 * n2 / n;
    mean_ = (n1 * mean_ + n2 * other.mean_) / n;
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double sum() const { return sum_; }
  [[nodiscard]] double mean() const { return count_ ? mean_ : 0.0; }
  /// Population variance.
  [[nodiscard]] double variance() const {
    return count_ ? m2_ / static_cast<double>(count_) : 0.0;
  }
  [[nodiscard]] double min() const { return count_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return count_ ? max_ : 0.0; }

 private:
  std::uint64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Sliding window of the last W boolean observations, with O(1) update and
/// O(1) rate query. This is the software model of the paper's hardware
/// starvation register (Algorithm 2): a W-bit shift register plus an
/// up-down counter.
class SlidingWindowRate {
 public:
  explicit SlidingWindowRate(int window) : bits_(window, 0) {
    NOCSIM_CHECK(window > 0);
  }

  void record(bool value) {
    const std::uint8_t v = value ? 1 : 0;
    ones_ += v - bits_[head_];
    bits_[head_] = v;
    head_ = (head_ + 1) % bits_.size();
    if (filled_ < bits_.size()) ++filled_;
  }

  /// Record k consecutive `false` observations, bit-exactly equivalent to
  /// calling record(false) k times, in O(min(k, W)) instead of O(k). This is
  /// the catch-up primitive for callers that batch known-idle periods (the
  /// simulator's NI fast path replays skipped cycles through it).
  void record_zeros(std::uint64_t k) {
    const std::size_t w = bits_.size();
    if (ones_ == 0) {
      // All-zero window (the common case for a long-idle node): every bit
      // is already 0, so k zero-records reduce to advancing the cursor.
      head_ = (head_ + k) % w;
      if (filled_ < w) filled_ = static_cast<std::size_t>(std::min<std::uint64_t>(w, filled_ + k));
      return;
    }
    if (k < w) {
      for (std::uint64_t i = 0; i < k; ++i) record(false);
      return;
    }
    // k >= W: every surviving bit is one of the k zeros.
    std::fill(bits_.begin(), bits_.end(), 0);
    ones_ = 0;
    head_ = (head_ + k) % w;
    filled_ = w;
  }

  /// Fraction of 1s over the last min(W, observations) records; 0 if empty.
  [[nodiscard]] double rate() const {
    return filled_ ? static_cast<double>(ones_) / static_cast<double>(filled_) : 0.0;
  }

  [[nodiscard]] int window() const { return static_cast<int>(bits_.size()); }

  void reset() {
    std::fill(bits_.begin(), bits_.end(), 0);
    ones_ = 0;
    head_ = 0;
    filled_ = 0;
  }

 private:
  std::vector<std::uint8_t> bits_;
  std::size_t ones_ = 0;
  std::size_t head_ = 0;
  std::size_t filled_ = 0;
};

/// Fixed-bin histogram over [lo, hi); out-of-range samples clamp to the
/// first/last bin (the exact sample min/max are tracked unclamped). Used
/// for latency distributions, starvation CDFs, and telemetry percentiles.
class Histogram {
 public:
  Histogram(double lo, double hi, int bins)
      : lo_(lo), hi_(hi), inv_range_(1.0 / (hi - lo)), counts_(bins, 0) {
    NOCSIM_CHECK(bins > 0 && hi > lo);
  }

  void add(double x) {
    // Clamp in the double domain *before* the integer cast: for samples far
    // outside [lo, hi) — or ±infinity — the scaled value can exceed the
    // int64 range, and a float→int cast whose value doesn't fit is UB
    // (UBSan float-cast-overflow). For in-range samples the truncation is
    // unchanged. NaN compares false against both bounds and lands in bin 0.
    // The reciprocal replaces a per-sample divide; every histogram in the
    // tree spans a power-of-two range, for which x * (1/range) == x / range
    // exactly, so binning is unchanged.
    const double t = (x - lo_) * inv_range_;
    const double scaled = t * static_cast<double>(counts_.size());
    const double top = static_cast<double>(counts_.size() - 1);
    const double clamped = scaled > top ? top : (scaled > 0.0 ? scaled : 0.0);
    ++counts_[static_cast<std::size_t>(clamped)];
    ++total_;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }

  /// Merge a histogram with identical bin edges (parallel-sweep reduction).
  void merge(const Histogram& other) {
    NOCSIM_CHECK_MSG(lo_ == other.lo_ && hi_ == other.hi_ && counts_.size() == other.counts_.size(),
                     "Histogram::merge requires identical bin edges");
    for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    total_ += other.total_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }

  [[nodiscard]] std::uint64_t total() const { return total_; }
  /// Exact (unclamped) extremes of the samples; 0 when empty.
  [[nodiscard]] double min() const { return total_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return total_ ? max_ : 0.0; }
  [[nodiscard]] int bins() const { return static_cast<int>(counts_.size()); }
  [[nodiscard]] std::uint64_t bin_count(int i) const { return counts_.at(i); }
  [[nodiscard]] double bin_left(int i) const {
    return lo_ + (hi_ - lo_) * static_cast<double>(i) / static_cast<double>(counts_.size());
  }

  /// Empirical CDF evaluated at the right edge of bin i.
  [[nodiscard]] double cdf_at_bin(int i) const {
    NOCSIM_CHECK(i >= 0 && i < bins());
    std::uint64_t cum = 0;
    for (int b = 0; b <= i; ++b) cum += counts_[static_cast<std::size_t>(b)];
    return total_ ? static_cast<double>(cum) / static_cast<double>(total_) : 0.0;
  }

  /// Approximate quantile (linear within a bin).
  [[nodiscard]] double quantile(double q) const;

  // Telemetry shorthand (see src/telemetry/): the percentile set every
  // latency instrument reports.
  [[nodiscard]] double p50() const { return quantile(0.50); }
  [[nodiscard]] double p95() const { return quantile(0.95); }
  [[nodiscard]] double p99() const { return quantile(0.99); }

 private:
  double lo_, hi_;
  double inv_range_;  ///< 1 / (hi - lo), hoisted out of add()
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

/// Exact empirical CDF from retained samples; used by benches whose sample
/// counts are small (one point per workload).
class EmpiricalCdf {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  [[nodiscard]] std::size_t size() const { return samples_.size(); }

  /// P(X <= x).
  [[nodiscard]] double at(double x) {
    sort_if_needed();
    const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return samples_.empty()
               ? 0.0
               : static_cast<double>(it - samples_.begin()) / static_cast<double>(samples_.size());
  }

  [[nodiscard]] double quantile(double q) {
    sort_if_needed();
    NOCSIM_CHECK(!samples_.empty());
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const auto i = static_cast<std::size_t>(pos);
    if (i + 1 >= samples_.size()) return samples_.back();
    const double frac = pos - static_cast<double>(i);
    return samples_[i] * (1 - frac) + samples_[i + 1] * frac;
  }

 private:
  void sort_if_needed() {
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
  }

  std::vector<double> samples_;
  bool sorted_ = true;
};

}  // namespace nocsim
