// Spatial tile partition of the cycle loop.
//
// The mesh is split into horizontal row strips; with node ids assigned as
// y*width + x, each strip is a contiguous node-id range [lo, hi). A serial
// run is the one-tile plan covering every node.
//
// Bit-exactness for any tile count rests on a per-node event invariant:
// every phase produces at most one ordered event per node per cycle, and
// each tile emits its events in ascending node-id order (tiles walk their
// bitmap words lowest-first). Concatenating the tile buffers in tile order
// therefore reproduces the one-tile ascending-node stream exactly.
//
// Per-node bitmaps are kept per tile (TileBits), indexed by the tile-local
// id n - lo, so no bitmap word is shared between tiles and every update is
// a plain write by the owning tile.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace nocsim {

class ShardPlan {
 public:
  /// Half-open node-id range [lo, hi) owned by one tile.
  struct TileRange {
    int lo;
    int hi;
    bool operator==(const TileRange&) const = default;
  };

  /// Row-strip plan: one worker per horizontal band. More shards than rows
  /// would leave empty tiles, so the tile count is capped at the row count.
  ShardPlan(int width, int height, int shards) {
    NOCSIM_CHECK(width > 0 && height > 0 && shards >= 1);
    const int t = std::min(shards, height);
    for (int i = 0; i < t; ++i) {
      ranges_.push_back(TileRange{i * height / t * width, (i + 1) * height / t * width});
    }
    build();
  }

  /// The same tiling over an id space k times larger: tile t covers
  /// [lo*k, hi*k). Maps a router plan onto the core ids of a concentrated
  /// topology, where core c sits behind router c / k.
  [[nodiscard]] ShardPlan scaled(int k) const {
    NOCSIM_CHECK(k >= 1);
    ShardPlan p = *this;
    for (TileRange& r : p.ranges_) r = TileRange{r.lo * k, r.hi * k};
    p.build();
    return p;
  }

  bool operator==(const ShardPlan&) const = default;

  [[nodiscard]] int tiles() const { return static_cast<int>(ranges_.size()); }
  [[nodiscard]] int nodes() const { return ranges_.back().hi; }

  /// The contiguous node-id range of tile t.
  [[nodiscard]] TileRange range(int t) const { return ranges_[static_cast<std::size_t>(t)]; }
  [[nodiscard]] int tile_nodes(int t) const { return range(t).hi - range(t).lo; }

  /// Owning tile of `node`: a table lookup, for code that does not already
  /// know the tile (serial sections, cross-tile targets).
  [[nodiscard]] int tile_of(int node) const {
    return node_tile_[static_cast<std::size_t>(node)];
  }
  [[nodiscard]] bool owns(int t, int node) const {
    const TileRange r = range(t);
    return node >= r.lo && node < r.hi;
  }
  /// Dense index of `node` within tile t (ascending node-id order).
  [[nodiscard]] std::uint32_t local_of(int t, int node) const {
    return static_cast<std::uint32_t>(node - range(t).lo);
  }

 private:
  void build() {
    NOCSIM_CHECK(ranges_.size() <= 255);  // node_tile_ is uint8
    node_tile_.assign(static_cast<std::size_t>(ranges_.back().hi), 0);
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
      NOCSIM_CHECK(ranges_[i].lo < ranges_[i].hi);
      for (int n = ranges_[i].lo; n < ranges_[i].hi; ++n)
        node_tile_[static_cast<std::size_t>(n)] = static_cast<std::uint8_t>(i);
    }
  }

  std::vector<TileRange> ranges_;  ///< [tile] -> ascending, adjacent ranges
  std::vector<std::uint8_t> node_tile_;
};

/// One node bitmap per tile over tile-local ids: bit (n - lo) of tile t's
/// words. Every word belongs to exactly one tile, so the owning tile reads
/// and writes it without atomics; walking a tile's words lowest-first
/// visits its nodes in ascending id order.
class TileBits {
 public:
  TileBits() = default;
  explicit TileBits(const ShardPlan& plan) {
    words_.resize(static_cast<std::size_t>(plan.tiles()));
    for (int t = 0; t < plan.tiles(); ++t) {
      words_[static_cast<std::size_t>(t)].assign(
          (static_cast<std::size_t>(plan.tile_nodes(t)) + 63) / 64, 0);
    }
  }

  /// Tile t's words; bit b of word w is local id w*64 + b.
  [[nodiscard]] std::vector<std::uint64_t>& words(int t) {
    return words_[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] bool test(int t, std::uint32_t local) const {
    return (words_[static_cast<std::size_t>(t)][local >> 6] >> (local & 63)) & 1;
  }
  void set(int t, std::uint32_t local) {
    words_[static_cast<std::size_t>(t)][local >> 6] |= std::uint64_t{1} << (local & 63);
  }

 private:
  std::vector<std::vector<std::uint64_t>> words_;  ///< [tile][word]
};

}  // namespace nocsim
