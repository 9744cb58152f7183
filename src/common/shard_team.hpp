// Persistent worker team for the sharded cycle loop.
//
// The cycle loop runs one short tile task per simulated cycle (deliver,
// inject, route and core of one tile) with a full barrier after it — far
// too fine-grained for a condvar-woken pool (a wake costs microseconds,
// the task of a small tile less). This team keeps tiles-1 workers parked
// on an epoch counter: run(f) publishes the job with one release increment,
// the caller executes tile 0 inline, and a done-counter closes the barrier.
// Spin-then-yield keeps latency low on idle cores without burning a
// mostly-idle machine.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/check.hpp"

namespace nocsim {

/// Optional barrier instrumentation, implemented by the telemetry profiler
/// (src/telemetry/profiler.hpp). The clock lives behind a function pointer
/// so this header stays free of raw timing (see the nocsim_lint
/// `raw-timing` rule): ShardTeam itself never reads a clock, it only
/// reports how long each tile sat in a barrier spin.
struct ShardTeamProbe {
  void* ctx = nullptr;
  /// Monotonic nanosecond clock.
  std::uint64_t (*now_ns)(void* ctx) = nullptr;
  /// Called once per barrier per tile with the time that tile spent
  /// waiting: workers report the spin between jobs, the caller (tile 0)
  /// reports the close-barrier spin after its inline job.
  void (*record_wait)(void* ctx, int tile, std::uint64_t ns) = nullptr;
};

class ShardTeam {
 public:
  explicit ShardTeam(int tiles) : tiles_(tiles) {
    NOCSIM_CHECK(tiles >= 1);
    workers_.reserve(static_cast<std::size_t>(tiles - 1));
    for (int t = 1; t < tiles; ++t) {
      workers_.emplace_back([this, t] { worker_loop(t); });
    }
  }

  ShardTeam(const ShardTeam&) = delete;
  ShardTeam& operator=(const ShardTeam&) = delete;

  ~ShardTeam() {
    stop_.store(true, std::memory_order_release);
    epoch_.fetch_add(1, std::memory_order_release);
    for (std::thread& w : workers_) w.join();
  }

  [[nodiscard]] int tiles() const { return tiles_; }

  /// Install (or clear, with nullptr) a barrier probe. The probe must
  /// outlive the team or be cleared first. Workers pick it up on their
  /// next barrier; the one-barrier handoff window is unmeasured, not
  /// unsafe (the pointer itself is an atomic).
  void set_probe(const ShardTeamProbe* probe) {
    probe_.store(probe, std::memory_order_release);
  }

  /// Execute fn(tile) for every tile in [0, tiles): the caller runs tile 0
  /// inline, workers run the rest. Returns only after ALL tiles finish — a
  /// full barrier, so fn may read anything written in the previous run
  /// and the caller may read everything fn wrote.
  template <typename F>
  void run(F&& fn) {
    if (tiles_ == 1) {
      fn(0);
      return;
    }
    job_ = &invoke<std::remove_reference_t<F>>;
    ctx_ = &fn;
    done_.store(0, std::memory_order_relaxed);
    epoch_.fetch_add(1, std::memory_order_release);  // publish job_/ctx_
    fn(0);
    const ShardTeamProbe* probe = probe_.load(std::memory_order_acquire);
    const std::uint64_t w0 = probe != nullptr ? probe->now_ns(probe->ctx) : 0;
    int spins = 0;
    while (done_.load(std::memory_order_acquire) != tiles_ - 1) {
      if (++spins > kSpinLimit) std::this_thread::yield();
    }
    if (probe != nullptr) probe->record_wait(probe->ctx, 0, probe->now_ns(probe->ctx) - w0);
  }

 private:
  static constexpr int kSpinLimit = 4096;

  template <typename F>
  static void invoke(void* ctx, int tile) {
    (*static_cast<F*>(ctx))(tile);
  }

  void worker_loop(int tile) {
    std::uint64_t seen = 0;
    for (;;) {
      const ShardTeamProbe* probe = probe_.load(std::memory_order_acquire);
      const std::uint64_t w0 = probe != nullptr ? probe->now_ns(probe->ctx) : 0;
      std::uint64_t e = epoch_.load(std::memory_order_acquire);
      int spins = 0;
      while (e == seen) {
        if (++spins > kSpinLimit) std::this_thread::yield();
        e = epoch_.load(std::memory_order_acquire);
      }
      seen = e;
      if (stop_.load(std::memory_order_acquire)) return;
      if (probe != nullptr) probe->record_wait(probe->ctx, tile, probe->now_ns(probe->ctx) - w0);
      job_(ctx_, tile);
      done_.fetch_add(1, std::memory_order_release);
    }
  }

  const int tiles_;
  using JobFn = void (*)(void*, int);
  JobFn job_ = nullptr;  ///< published by epoch_ release, read after acquire
  void* ctx_ = nullptr;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<int> done_{0};
  std::atomic<bool> stop_{false};
  std::atomic<const ShardTeamProbe*> probe_{nullptr};
  std::vector<std::thread> workers_;
};

}  // namespace nocsim
