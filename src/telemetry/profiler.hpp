// PhaseProfiler: opt-in wall-clock self-profiler for the cycle loop.
//
// The simulator registers a small fixed set of phases ("begin", "route",
// ...) and brackets each phase body with prof_begin/prof_end; the ShardTeam
// barrier reports per-tile wait time through a ShardTeamProbe. The result
// is a PhaseProfile — per phase x tile: {count, total/min/max ns, barrier
// wait ns} — written as JSON next to bench output and mergeable into the
// ChromeTracer trace as counter/slice tracks (pid 1, "nocsim host").
//
// Cost contract: a timed phase on the disabled path is one pointer test and
// no allocation (tests/test_profiler.cpp guards this). Slots are
// preallocated at attach time and padded to a cache line so concurrent
// tile writes never share a line.
//
// Determinism: profile output is WALL-CLOCK data — machine-dependent by
// nature and therefore exempt from the byte-identity guarantee (see
// DESIGN.md, "Why the profile is not byte-identical"). Nothing the
// profiler records ever feeds back into simulation state.
//
// This file is the sanctioned home for raw timing: the nocsim_lint
// `raw-timing` rule bans std::chrono in sim-state code everywhere else.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "common/shard_team.hpp"
#include "common/types.hpp"

namespace nocsim {

class PhaseProfiler {
 public:
  /// Per (phase, tile) aggregate. Padded so adjacent tiles' slots never
  /// share a cache line while worker threads record concurrently.
  struct alignas(64) PhaseStat {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    std::uint64_t min_ns = ~std::uint64_t{0};
    std::uint64_t max_ns = 0;
    std::uint64_t wait_ns = 0;  ///< barrier wait attributed to this phase
  };

  /// One sampled point of the per-phase compute/wait time series, used for
  /// the Perfetto counter/slice tracks merged into a ChromeTracer trace.
  struct Sample {
    Cycle cycle = 0;
    std::vector<std::uint64_t> compute_ns;  ///< per phase, summed over tiles
    std::vector<std::uint64_t> wait_ns;     ///< per phase, summed over tiles
  };

  PhaseProfiler() = default;
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  /// Register a phase before any recording; returns its id. Ids are dense
  /// and stable in registration order.
  int register_phase(std::string name);

  /// Size the (phase x tile) slot matrix. Call after the last
  /// register_phase and before enable(); preallocates every slot.
  void set_tiles(int tiles);

  void enable() { enabled_ = true; }
  void disable() { enabled_ = false; }
  [[nodiscard]] bool enabled() const { return enabled_; }
  [[nodiscard]] int tiles() const { return tiles_; }
  [[nodiscard]] int num_phases() const { return static_cast<int>(names_.size()); }

  /// Monotonic wall clock in nanoseconds (std::chrono::steady_clock).
  [[nodiscard]] static std::uint64_t now_ns();

  void record(int phase, int tile, std::uint64_t ns) {
    PhaseStat& s = slot(phase, tile);
    ++s.count;
    s.total_ns += ns;
    if (ns < s.min_ns) s.min_ns = ns;
    if (ns > s.max_ns) s.max_ns = ns;
  }

  void record_wait(int phase, int tile, std::uint64_t ns) { slot(phase, tile).wait_ns += ns; }

  /// ShardTeam probe wired to this profiler: every barrier wait lands in
  /// `wait_phase` (the cycle loop has one barrier, after its last tile
  /// step). Valid for the profiler's lifetime.
  [[nodiscard]] const ShardTeamProbe* team_probe(int wait_phase);

  /// Snapshot per-phase compute/wait deltas since the previous tick as one
  /// Sample stamped with `cycle`. Serial sections only.
  void tick(Cycle cycle);

  [[nodiscard]] const PhaseStat& stat(int phase, int tile) const {
    return stats_[static_cast<std::size_t>(phase) * static_cast<std::size_t>(tiles_) +
                  static_cast<std::size_t>(tile)];
  }
  [[nodiscard]] const std::vector<std::string>& phase_names() const { return names_; }
  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }

  /// PhaseProfile JSON: {"profile": {...}} with one entry per phase x tile.
  void write_json(std::ostream& out) const;
  bool write_json_file(const std::string& path) const;

  /// Emit Perfetto counter ("C") and slice ("X") events on pid 1, one lane
  /// per phase, each entry prefixed with ",\n" — for merging into a
  /// ChromeTracer traceEvents array that already holds at least one event.
  void write_chrome_events(std::ostream& out) const;

 private:
  static std::uint64_t probe_now(void* self);
  static void probe_record_wait(void* self, int tile, std::uint64_t ns);

  PhaseStat& slot(int phase, int tile) {
    return stats_[static_cast<std::size_t>(phase) * static_cast<std::size_t>(tiles_) +
                  static_cast<std::size_t>(tile)];
  }

  bool enabled_ = false;
  int tiles_ = 1;
  int wait_phase_ = 0;  ///< phase the team probe records barrier waits on
  std::vector<std::string> names_;
  std::vector<PhaseStat> stats_;  ///< phase-major, tiles_ slots per phase
  ShardTeamProbe probe_{};
  std::vector<Sample> samples_;
  std::vector<std::uint64_t> last_compute_;  ///< per-phase totals at last tick
  std::vector<std::uint64_t> last_wait_;
};

// Phase timer: t0 = prof_begin(p); ...; prof_end(p, phase, tile, t0). A
// straight-line pair rather than an RAII scope: a non-trivial destructor
// drags exception-cleanup paths into the per-tile hot loops. The disabled
// path (null profiler or enabled() == false) is one pointer test in each
// call and no allocation.
[[nodiscard]] inline std::uint64_t prof_begin(const PhaseProfiler* p) {
  return p != nullptr && p->enabled() ? PhaseProfiler::now_ns() : 0;
}
inline void prof_end(PhaseProfiler* p, int phase, int tile, std::uint64_t t0) {
  if (p != nullptr && p->enabled()) p->record(phase, tile, PhaseProfiler::now_ns() - t0);
}

}  // namespace nocsim
