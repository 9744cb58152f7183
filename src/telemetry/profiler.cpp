#include "telemetry/profiler.hpp"

// Sanctioned raw-timing implementation: the ONLY sim-state-adjacent code
// allowed to read std::chrono directly (nocsim_lint `raw-timing` exempts
// src/telemetry/profiler.*). Everything else times through prof_begin /
// prof_end.
#include <chrono>
#include <fstream>

#include "common/check.hpp"

namespace nocsim {

std::uint64_t PhaseProfiler::now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

int PhaseProfiler::register_phase(std::string name) {
  NOCSIM_CHECK_MSG(stats_.empty(), "register_phase must precede set_tiles");
  names_.push_back(std::move(name));
  return static_cast<int>(names_.size()) - 1;
}

void PhaseProfiler::set_tiles(int tiles) {
  NOCSIM_CHECK(tiles >= 1 && !names_.empty());
  tiles_ = tiles;
  stats_.assign(names_.size() * static_cast<std::size_t>(tiles), PhaseStat{});
  last_compute_.assign(names_.size(), 0);
  last_wait_.assign(names_.size(), 0);
  probe_.ctx = this;
  probe_.now_ns = &PhaseProfiler::probe_now;
  probe_.record_wait = &PhaseProfiler::probe_record_wait;
}

const ShardTeamProbe* PhaseProfiler::team_probe(int wait_phase) {
  NOCSIM_CHECK_MSG(probe_.ctx == this, "team_probe requires set_tiles first");
  NOCSIM_CHECK(wait_phase >= 0 && wait_phase < num_phases());
  wait_phase_ = wait_phase;
  return &probe_;
}

std::uint64_t PhaseProfiler::probe_now(void*) { return now_ns(); }

void PhaseProfiler::probe_record_wait(void* self, int tile, std::uint64_t ns) {
  auto* p = static_cast<PhaseProfiler*>(self);
  if (!p->enabled_) return;
  p->record_wait(p->wait_phase_, tile, ns);
}

void PhaseProfiler::tick(Cycle cycle) {
  if (!enabled_ || stats_.empty()) return;
  Sample s;
  s.cycle = cycle;
  s.compute_ns.resize(names_.size());
  s.wait_ns.resize(names_.size());
  for (std::size_t p = 0; p < names_.size(); ++p) {
    std::uint64_t compute = 0, wait = 0;
    for (int t = 0; t < tiles_; ++t) {
      const PhaseStat& st = stat(static_cast<int>(p), t);
      compute += st.total_ns;
      wait += st.wait_ns;
    }
    s.compute_ns[p] = compute - last_compute_[p];
    s.wait_ns[p] = wait - last_wait_[p];
    last_compute_[p] = compute;
    last_wait_[p] = wait;
  }
  samples_.push_back(std::move(s));
}

namespace {

void write_stat(std::ostream& out, const PhaseProfiler::PhaseStat& s) {
  out << "\"count\": " << s.count << ", \"total_ns\": " << s.total_ns
      << ", \"min_ns\": " << (s.count > 0 ? s.min_ns : 0) << ", \"max_ns\": " << s.max_ns
      << ", \"wait_ns\": " << s.wait_ns;
}

}  // namespace

void PhaseProfiler::write_json(std::ostream& out) const {
  out << "{\n";
  out << "  \"tool\": \"nocsim\",\n";
  out << "  \"kind\": \"phase_profile\",\n";
  out << "  \"note\": \"wall-clock ns; machine-dependent, exempt from byte-identity "
         "(DESIGN.md)\",\n";
  out << "  \"enabled\": " << (enabled_ ? "true" : "false") << ",\n";
  out << "  \"tiles\": " << tiles_ << ",\n";
  out << "  \"phases\": [\n";
  for (std::size_t p = 0; p < names_.size(); ++p) {
    PhaseStat agg;
    agg.min_ns = ~std::uint64_t{0};
    for (int t = 0; t < tiles_ && !stats_.empty(); ++t) {
      const PhaseStat& s = stat(static_cast<int>(p), t);
      agg.count += s.count;
      agg.total_ns += s.total_ns;
      agg.wait_ns += s.wait_ns;
      if (s.count > 0 && s.min_ns < agg.min_ns) agg.min_ns = s.min_ns;
      if (s.max_ns > agg.max_ns) agg.max_ns = s.max_ns;
    }
    out << "    {\"name\": \"" << names_[p] << "\", ";
    write_stat(out, agg);
    out << ", \"per_tile\": [";
    for (int t = 0; t < tiles_ && !stats_.empty(); ++t) {
      if (t > 0) out << ", ";
      out << "{\"tile\": " << t << ", ";
      write_stat(out, stat(static_cast<int>(p), t));
      out << "}";
    }
    out << "]}";
    if (p + 1 < names_.size()) out << ",";
    out << "\n";
  }
  out << "  ]\n}\n";
}

bool PhaseProfiler::write_json_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  write_json(out);
  return static_cast<bool>(out);
}

void PhaseProfiler::write_chrome_events(std::ostream& out) const {
  // pid 1 = the simulator process itself, one lane per phase. Slice "X"
  // events carry the per-interval compute/wait deltas; counter "C" events
  // give Perfetto a numeric track per phase.
  out << ",\n    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      << "\"args\": {\"name\": \"nocsim host profiler\"}}";
  for (std::size_t p = 0; p < names_.size(); ++p) {
    out << ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << p
        << ", \"args\": {\"name\": \"phase " << names_[p] << "\"}}";
  }
  Cycle prev = 0;
  for (const Sample& s : samples_) {
    const Cycle dur = s.cycle > prev ? s.cycle - prev : 1;
    for (std::size_t p = 0; p < names_.size(); ++p) {
      if (s.compute_ns[p] == 0 && s.wait_ns[p] == 0) continue;
      out << ",\n    {\"name\": \"" << names_[p] << "\", \"ph\": \"X\", \"ts\": " << prev
          << ", \"dur\": " << dur << ", \"pid\": 1, \"tid\": " << p
          << ", \"args\": {\"compute_ns\": " << s.compute_ns[p]
          << ", \"wait_ns\": " << s.wait_ns[p] << "}}";
      out << ",\n    {\"name\": \"prof." << names_[p] << "\", \"ph\": \"C\", \"ts\": " << s.cycle
          << ", \"pid\": 1, \"args\": {\"compute_ns\": " << s.compute_ns[p]
          << ", \"wait_ns\": " << s.wait_ns[p] << "}}";
    }
    prev = s.cycle;
  }
}

}  // namespace nocsim
