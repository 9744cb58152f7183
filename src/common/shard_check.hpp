// Runtime shadow checker for the sharded cycle loop (NOCSIM_SHARD_CHECK).
//
// The static pass in tools/nocsim_lint verifies phase bodies against the
// annotation vocabulary (common/shard_annotations.hpp), but several helpers
// run in *both* serial and phase context (sync_ni, the eject/packet sinks),
// where a token-level analyzer cannot attribute writes to a tile. This
// checker closes that gap at runtime: each phase body opens a PhaseScope
// naming its tile, and every per-node write site asserts that the write
// lands inside the current tile's row range — or, for cross-tile traffic,
// that it goes through a halo outbox addressed from the writing tile to a
// *different* tile. Outside any scope (tile -1, "serial") every write is
// legal, so serial sections and tests that drive a fabric directly are
// unaffected.
//
// The checker is compiled in only when the NOCSIM_SHARD_CHECK CMake option
// is ON (the `shardcheck` preset); release builds pay nothing, not even a
// branch. Violations abort with a "shard-safety" message in the style of
// NOCSIM_CHECK — a corrupted halo write must kill the run, never produce a
// silently-divergent metric.
#pragma once

#include "common/shard.hpp"

#if defined(NOCSIM_SHARD_CHECK)

#include <cstdio>
#include <cstdlib>

namespace nocsim::shardcheck {

/// Per-thread ownership context. tile < 0 means "serial section": the
/// thread may touch any node (constructor, epoch fold, collect()).
struct Context {
  const ShardPlan* plan = nullptr;
  int tile = -1;
  const char* phase = "serial";
};

inline thread_local Context g_ctx;

/// RAII phase attribution: placed at the top of every phase body (via the
/// 3-argument NOCSIM_PHASE form), it marks all writes on this thread until
/// scope exit as made by `tile` in `phase`. Nests by save/restore, so a
/// serial helper called from a phase keeps the phase's attribution.
class PhaseScope {
 public:
  PhaseScope(const ShardPlan* plan, int tile, const char* phase) : saved_(g_ctx) {
    g_ctx.plan = plan;
    g_ctx.tile = tile;
    g_ctx.phase = phase;
  }
  ~PhaseScope() {
    g_ctx = saved_;
  }
  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  Context saved_;
};

/// Assert the current thread may write per-node state of `node` directly:
/// either no phase scope is active (serial) or the scope's tile owns the
/// node's row. `what` names the state for the abort message.
inline void check_write(int node, const char* what) {
  const Context& c = g_ctx;
  if (c.plan == nullptr || c.tile < 0) return;
  if (c.plan->owns(c.tile, node)) return;
  std::fprintf(stderr, "nocsim shard-safety violation: tile %d in phase '%s' wrote %s of node %d"
                       " (owner tile %d)\n",
               c.tile, c.phase, what, node, c.plan->tile_of(node));
  std::abort();
}

/// Assert a halo-outbox push is well-formed: the sending side must be the
/// current tile and the receiving side must be a different tile. A push
/// "from" a tile the thread does not own — or a self-addressed box — is a
/// corrupted halo write.
inline void check_halo(int src_tile, int dst_tile) {
  const Context& c = g_ctx;
  if (c.plan == nullptr || c.tile < 0) return;
  if (src_tile == c.tile && dst_tile != c.tile) return;
  std::fprintf(stderr,
               "nocsim shard-safety violation: tile %d in phase '%s' pushed a halo write"
               " addressed %d -> %d\n",
               c.tile, c.phase, src_tile, dst_tile);
  std::abort();
}

}  // namespace nocsim::shardcheck

#define NOCSIM_SHARD_CHECK_WRITE(node, what) \
  ::nocsim::shardcheck::check_write(static_cast<int>(node), (what))
#define NOCSIM_SHARD_CHECK_HALO(src_tile, dst_tile) \
  ::nocsim::shardcheck::check_halo(static_cast<int>(src_tile), static_cast<int>(dst_tile))

#else  // !NOCSIM_SHARD_CHECK

#define NOCSIM_SHARD_CHECK_WRITE(node, what) ((void)0)
#define NOCSIM_SHARD_CHECK_HALO(src_tile, dst_tile) ((void)0)

#endif
