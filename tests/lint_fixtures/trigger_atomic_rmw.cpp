// Lint fixture: must trigger [shard-unsafe-write] exactly twice — not
// compiled. An atomic read-modify-write is still a write: a bitmap word
// that several tiles update is shared state, whether or not the update is
// atomic. Tiles own their words instead, and write them plainly.
#include <atomic>
#include <vector>

struct ShardTeam {
  template <class F>
  void run(F&&) {}
};

class Engine {
 public:
  void cycle(const void* plan);

 private:
  std::vector<unsigned long long> shared_words_ NOCSIM_SHARED_READONLY;
  std::atomic<unsigned long long> pending_ NOCSIM_SHARED_READONLY;
  std::vector<unsigned long long> tile_words_ NOCSIM_TILE_LOCAL;
  ShardTeam team_;
};

void Engine::cycle(const void* plan) {
  team_.run([&](int t) {
    NOCSIM_PHASE("route", plan, t);
    // Cross-tile RMW through a wrapper on a shared word.
    std::atomic_ref<unsigned long long>(shared_words_[0])
        .fetch_or(1ULL << t, std::memory_order_relaxed);
    // Cross-tile RMW on a shared atomic.
    pending_.fetch_and(~1ULL, std::memory_order_relaxed);
    // The tile's own word: a plain write, no finding.
    tile_words_[static_cast<unsigned>(t)] |= 1ULL;
  });
}
