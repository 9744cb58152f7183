// Bump arena for per-tile fabric storage.
//
// Each shard tile owns one arena; every lane the tile's routers touch in the
// cycle loop (latch-bank header/payload/valid/active lanes, link rings) is
// carved from it at construction time; a tile's halo outboxes come from an
// arena of their own. That gives two properties the hot loop wants:
//
//  * locality — a tile's working set is one contiguous block, laid out in
//    the order the phase code walks it, instead of scattered across
//    independently-allocated vectors;
//  * isolation — tiles never share a cacheline except through the halo
//    outboxes, which are shared by design.
//
// Allocation is bump-only: there is no per-object free. `reset()` rewinds
// the cursor and invalidates everything, which is exactly the lifetime the
// fabric needs (allocate once per set_shard_plan, reuse every cycle). The
// capacity is fixed at construction; exceeding it is a programming error
// (the caller computes its layout up front), enforced by NOCSIM_CHECK.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>

#include "common/check.hpp"

namespace nocsim {

class Arena {
 public:
  /// Cacheline size assumed for tile isolation; the block itself and every
  /// lane carved from it start on one of these boundaries by default.
  static constexpr std::size_t kLineBytes = 64;

  Arena() = default;
  explicit Arena(std::size_t capacity_bytes) { reserve(capacity_bytes); }

  Arena(Arena&&) noexcept = default;
  Arena& operator=(Arena&&) noexcept = default;

  /// Discard any existing block and allocate a fresh one. Rounds the
  /// capacity up to a whole number of cachelines.
  void reserve(std::size_t capacity_bytes) {
    cap_ = (capacity_bytes + kLineBytes - 1) / kLineBytes * kLineBytes;
    block_.reset(cap_ ? new (std::align_val_t{kLineBytes}) std::byte[cap_] : nullptr);
    used_ = 0;
  }

  /// Value-initialized array of `count` Ts, aligned to max(alignof(T),
  /// cacheline). T must be trivially destructible: the arena never runs
  /// destructors, it just drops or rewinds the block.
  template <typename T>
  [[nodiscard]] T* alloc_array(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is reclaimed without running destructors");
    const std::size_t align = alignof(T) > kLineBytes ? alignof(T) : kLineBytes;
    const std::size_t at = (used_ + align - 1) / align * align;
    const std::size_t bytes = count * sizeof(T);
    NOCSIM_CHECK_MSG(at + bytes <= cap_, "arena overflow: layout was sized wrong");
    used_ = at + bytes;
    // Per-element placement construction: array placement-new may legally
    // prepend bookkeeping bytes, which would break the layout math.
    T* lane = reinterpret_cast<T*>(block_.get() + at);
    std::uninitialized_value_construct_n(lane, count);
    return lane;
  }

  /// Rewind the cursor: every pointer handed out so far becomes invalid,
  /// the block is kept for reuse. (Contents are stale, not cleared — the
  /// next alloc_array value-initializes its slice.)
  void reset() { used_ = 0; }

  [[nodiscard]] std::size_t used() const { return used_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }

  /// Layout helper: bytes consumed by an alloc_array<T>(count) that starts
  /// from a cacheline-aligned cursor, including alignment padding.
  template <typename T>
  [[nodiscard]] static std::size_t lane_bytes(std::size_t count) {
    const std::size_t align = alignof(T) > kLineBytes ? alignof(T) : kLineBytes;
    return (count * sizeof(T) + align - 1) / align * align;
  }

 private:
  struct AlignedDelete {
    void operator()(std::byte* p) const { ::operator delete[](p, std::align_val_t{kLineBytes}); }
  };

  std::unique_ptr<std::byte[], AlignedDelete> block_;
  std::size_t cap_ = 0;
  std::size_t used_ = 0;
};

}  // namespace nocsim
