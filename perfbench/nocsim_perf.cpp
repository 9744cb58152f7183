// Performance benchmark program: runs one named workload of the closed-loop
// simulator for a fixed host-time budget and prints one JSON object as the
// last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics, the host time a user of the
// simulator waits for: how fast it simulates (median over fixed-length
// samples) and how long it takes to set up (median over several
// constructions); see CpuRotor for which CPU's samples count. --trace 1
// attaches the PhaseProfiler and reports
// where that time goes per simulator module (fabric, NI injection, cores,
// controller epilogue), the work each module did, and the profiler's own
// overhead.
//
// Outputs are checked, not only timed: each run reproduces the pinned golden
// digest for its router, and every sample must conserve flits, account each
// hop as productive or deflected, and make progress. `attempted` counts these
// checks and `failed` the ones that did not hold.
//
// Usage: nocsim_perf --workload NAME --seed N --seconds S --trace 0|1
// (normally started through run.py, which builds it first).
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sched.h>
#include <string>
#include <utility>
#include <vector>

#include "common/flags.hpp"
#include "golden_util.hpp"
#include "sim/experiment.hpp"
#include "sim/simulator.hpp"
#include "telemetry/profiler.hpp"
#include "workload/app_profile.hpp"

namespace nocsim::perf {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Workload {
  const char* name;
  int side;
  RouterKind router;
  CcMode cc;
  const char* l2_map;
  Cycle warmup;  ///< untimed cycles before the first sample
  Cycle chunk;   ///< simulated cycles per timed sample (~20-40 ms of host time)
};

// Each workload loads a different module hardest, so an optimization of one
// module has a workload that exercises it and one that does not:
//  - mesh8_bless: the paper's Table 2 system (8x8 FLIT-BLESS, heavy/medium
//    mix). Core, NI and fabric costs are of one order, and the whole state
//    fits in the host's caches.
//  - mesh16_bless_cc: 256 nodes under the paper's central controller with
//    exponential L2 locality: controller epochs fire, throttle gates act, and
//    the bufferless fabric deflects more. (A 32x32 version measured the
//    memory system of the host more than the program: ten runs spread by 43%.)
//  - mesh16_buffered: the buffered virtual-channel router the paper compares
//    against, its slowest fabric per router-cycle (table routing, 256 nodes).
constexpr Workload kWorkloads[] = {
    {"mesh8_bless", 8, RouterKind::Bless, CcMode::None, "xor", 5'000, 2'000},
    {"mesh16_bless_cc", 16, RouterKind::Bless, CcMode::Central, "exponential", 3'000, 400},
    {"mesh16_buffered", 16, RouterKind::Buffered, CcMode::None, "xor", 3'000, 400},
};

// Simulator constructions timed per run: one per CPU of the rotation, more
// while under kSetupSeconds, so small meshes get a median of several per CPU.
constexpr int kSetupMaxReps = 16;
constexpr double kSetupSeconds = 2.0;
/// Samples taken even past the time budget; the simulated-work counts of a
/// traced run cover exactly these, so they repeat for a given seed.
constexpr int kMinChunks = 20;

/// Serial cycle-loop phases of the PhaseProfiler, in report order.
enum Phase { kBegin, kInject, kRoute, kCore, kEpilogue, kNumPhases };
constexpr const char* kPhaseNames[kNumPhases] = {"begin", "inject", "route", "core", "epilogue"};

/// Heavy/medium mix in the spirit of the paper's "HM" category, with one
/// fixed placement of a fixed multiset of applications. The run's seed drives
/// the simulator instead: every core's instruction and address stream and
/// the throttle gates. Drawing the placement from the seed too moved the
/// offered load, and so the host cost per cycle, by up to 27% between seeds
/// (flit hops per cycle on mesh8_bless); with it fixed, seeds differ by ~1%.
WorkloadSpec make_mix(int nodes) {
  std::vector<const AppProfile*> pool = apps_in_class(IntensityClass::Heavy);
  const std::vector<const AppProfile*> medium = apps_in_class(IntensityClass::Medium);
  pool.insert(pool.end(), medium.begin(), medium.end());
  WorkloadSpec wl;
  wl.category = "HM";
  for (int i = 0; i < nodes; ++i) {
    wl.app_names.push_back(pool[static_cast<std::size_t>(i) % pool.size()]->name);
  }
  Rng rng(0x5eed);
  for (std::size_t i = wl.app_names.size(); i > 1; --i) {
    std::swap(wl.app_names[i - 1], wl.app_names[rng.next_below(i)]);
  }
  return wl;
}

SimConfig make_config(const Workload& w, std::uint64_t seed) {
  SimConfig c;
  c.width = c.height = w.side;
  c.router = w.router;
  c.cc = w.cc;
  c.l2_map = w.l2_map;
  c.cc_params.epoch = 5'000;
  c.seed = seed;
  return c;
}

/// The 4x4 golden case of tests/test_golden_diff.cpp for this router, with
/// its pinned digest: any faster simulator must still reproduce it.
bool golden_matches(RouterKind router) {
  SimConfig c;
  c.warmup_cycles = 5'000;
  c.measure_cycles = 20'000;
  c.cc_params.epoch = 5'000;
  c.seed = 1;
  std::uint64_t workload_seed = 17;
  std::uint64_t want = 0x624ed3e696cab0efULL;  // fig02_bless
  if (router == RouterKind::Buffered) {
    c.router = RouterKind::Buffered;
    c.seed = 2;
    workload_seed = 48;
    want = 0x204aafecc685a5dbULL;  // buffered_baseline
  }
  Rng rng(workload_seed);
  const SimResult r = run_workload(c, make_category_workload("HM", 16, rng));
  return testutil::fnv1a(testutil::serialize_result(r)) == want;
}

/// Simulated-work counters read between samples.
struct Counts {
  std::uint64_t injected = 0;
  std::uint64_t ejected = 0;
  std::uint64_t hops = 0;
  std::uint64_t productive_hops = 0;
  std::uint64_t retired = 0;
  double net_latency_sum = 0.0;    ///< inject -> eject, over ejected flits
  double total_latency_sum = 0.0;  ///< NI enqueue -> eject, over ejected flits
};

Counts read_counts(const Simulator& sim) {
  const FabricStats& f = sim.fabric().stats();
  Counts c;
  c.injected = f.flits_injected;
  c.ejected = f.flits_ejected;
  c.hops = f.flit_hops;
  c.productive_hops = f.productive_hops;
  c.net_latency_sum = f.net_latency.sum();
  c.total_latency_sum = f.total_latency.sum();
  for (NodeId i = 0; i < sim.config().num_cores(); ++i) {
    if (const Core* core = sim.core(i)) c.retired += core->lifetime_retired();
  }
  return c;
}

/// Invariants every sample must keep: flits are conserved, every hop is
/// either productive or a deflection, and the closed loop makes progress.
bool sample_ok(const Simulator& sim, const Counts& before, const Counts& after) {
  const FabricStats& f = sim.fabric().stats();
  return f.flits_injected - f.flits_ejected == sim.fabric().in_flight() &&
         f.flit_hops == f.productive_hops + f.deflections && after.retired > before.retired &&
         after.ejected > before.ejected;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Moves the calling thread over the CPUs it may run on, one per call to
/// next(), and restores its CPU set on destruction.
///
/// On a shared virtual machine each CPU runs at one of two speeds, set by
/// what shares its physical core, and the CPUs switch independently, for a
/// second to minutes at a time. Four pinned copies of one mesh8_bless run
/// took 35, 30, 27 and 27 ms per sample side by side, with uncorrelated
/// switches; a run left on one CPU reported that CPU's state, and ten runs
/// spread by 26-37%. Samples are therefore spread over the CPUs in turn, and
/// times are reported from the CPU whose samples ran fastest: the program's
/// speed on an uncontended core, found as long as one CPU is quiet.
class CpuRotor {
 public:
  CpuRotor() {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof saved_, &saved_) == 0) {
      for (int c = 0; c < CPU_SETSIZE && static_cast<int>(cpus_.size()) < kMaxCpus; ++c) {
        if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
      }
    }
    if (cpus_.empty()) cpus_.push_back(-1);  // affinity unavailable: stay put
  }
  ~CpuRotor() {
    if (cpus_.front() >= 0) sched_setaffinity(0, sizeof saved_, &saved_);
  }
  CpuRotor(const CpuRotor&) = delete;
  CpuRotor& operator=(const CpuRotor&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(cpus_.size()); }

  /// Pin to the next CPU in turn; returns its slot in [0, size()).
  int next() {
    const int slot = turn_++ % size();
    if (cpus_[static_cast<std::size_t>(slot)] >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpus_[static_cast<std::size_t>(slot)], &one);
      sched_setaffinity(0, sizeof one, &one);
    }
    return slot;
  }

 private:
  /// Enough CPUs that one is usually quiet, few enough that each collects
  /// dozens of samples in a run.
  static constexpr int kMaxCpus = 4;
  cpu_set_t saved_;
  std::vector<int> cpus_;
  int turn_ = 0;
};

/// One timed sample: a simulator construction, or a chunk of cycles with
/// its per-phase profile when the profiler was on.
struct Sample {
  int slot = 0;  ///< CpuRotor slot it ran on
  bool profiled = false;
  double secs = 0.0;
  std::array<double, kNumPhases> ns_per_cycle{};
  double route_per_hop = 0.0;
  double core_per_insn = 0.0;
  double inject_per_flit = 0.0;
};

/// Median of value(s) over the samples s with keep(s).
template <class Keep, class Value>
double median_of(const std::vector<Sample>& samples, Keep keep, Value value) {
  std::vector<double> v;
  for (const Sample& s : samples) {
    if (keep(s)) v.push_back(value(s));
  }
  return median(std::move(v));
}

/// Rotor slot whose samples have the lowest median time.
int fastest_slot(const std::vector<Sample>& samples, int slots) {
  int best = 0;
  double best_secs = 0.0;
  for (int k = 0; k < slots; ++k) {
    const double t = median_of(
        samples, [k](const Sample& s) { return s.slot == k; },
        [](const Sample& s) { return s.secs; });
    if (t > 0.0 && (best_secs == 0.0 || t < best_secs)) {
      best = k;
      best_secs = t;
    }
  }
  return best;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, int attempted, int failed, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const std::string name = flags.get_string(
      "workload", "", "mesh8_bless | mesh16_bless_cc | mesh16_buffered");
  const auto seed =
      static_cast<std::uint64_t>(flags.get_int("seed", 1, "simulator seed (traces, gates)"));
  const double budget = flags.get_double("seconds", 10.0, "host seconds of timed simulation");
  const bool trace = flags.get_int("trace", 0, "1: per-module breakdown instead of end-to-end") != 0;
  if (flags.finish()) return 0;

  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (name == cand.name) w = &cand;
  }
  if (w == nullptr) {
    std::cerr << "nocsim_perf: unknown --workload '" << name << "'\n";
    return 2;
  }
  if (!(budget > 0.0)) {
    std::cerr << "nocsim_perf: --seconds must be positive\n";
    return 2;
  }

  int attempted = 1;
  int failed = golden_matches(w->router) ? 0 : 1;

  const SimConfig cfg = make_config(*w, seed);
  const WorkloadSpec wl = make_mix(cfg.num_cores());
  // Set-up is topology, route tables, cores and their functional L1 warm-up:
  // what a user pays before cycle 0. The last simulator built is measured.
  CpuRotor rotor;
  std::vector<Sample> setups;
  std::unique_ptr<Simulator> sim;
  const auto setup_start = Clock::now();
  for (int rep = 0; rep < kSetupMaxReps &&
                    (rep < rotor.size() || seconds_since(setup_start) < kSetupSeconds);
       ++rep) {
    sim.reset();
    Sample s;
    s.slot = rotor.next();
    const auto t0 = Clock::now();
    sim = std::make_unique<Simulator>(cfg, wl);
    s.secs = seconds_since(t0);
    setups.push_back(s);
  }

  PhaseProfiler prof;
  std::array<int, kNumPhases> phase_id{};
  if (trace) {
    sim->attach_profiler(&prof);
    const std::vector<std::string>& names = prof.phase_names();
    for (int p = 0; p < kNumPhases; ++p) {
      phase_id[p] = static_cast<int>(std::find(names.begin(), names.end(), kPhaseNames[p]) -
                                     names.begin());
    }
  }
  const auto phase_ns = [&](int p) {
    return static_cast<double>(prof.stat(phase_id[p], 0).total_ns);
  };

  sim->run_cycles(w->warmup);

  // Timed samples, spread over the CPUs in turn. In a traced run the
  // profiler is on for every other round of CPUs, so the rounds with it off
  // price its overhead on the same CPUs under the same load.
  std::vector<Sample> samples;
  const Counts start = read_counts(*sim);
  Counts counted = start;
  const auto chunk = static_cast<double>(w->chunk);
  const auto t_start = Clock::now();
  for (int i = 0; i < kMinChunks || seconds_since(t_start) < budget; ++i) {
    Sample s;
    s.slot = rotor.next();
    s.profiled = trace && (i / rotor.size()) % 2 == 0;
    if (trace) s.profiled ? prof.enable() : prof.disable();
    std::array<double, kNumPhases> ns{};
    for (int p = 0; trace && p < kNumPhases; ++p) ns[p] = phase_ns(p);
    const Counts before = read_counts(*sim);

    const auto t0 = Clock::now();
    sim->run_cycles(w->chunk);
    s.secs = seconds_since(t0);

    const Counts after = read_counts(*sim);
    ++attempted;
    if (!sample_ok(*sim, before, after)) ++failed;
    if (i + 1 == kMinChunks) counted = after;
    if (s.profiled) {
      for (int p = 0; p < kNumPhases; ++p) {
        ns[p] = phase_ns(p) - ns[p];
        s.ns_per_cycle[p] = ns[p] / chunk;
      }
      s.route_per_hop = ratio(ns[kRoute], static_cast<double>(after.hops - before.hops));
      s.core_per_insn = ratio(ns[kCore], static_cast<double>(after.retired - before.retired));
      s.inject_per_flit =
          ratio(ns[kInject], static_cast<double>(after.injected - before.injected));
    }
    samples.push_back(s);
  }

  const int best = fastest_slot(samples, rotor.size());
  const auto on_best = [best](bool profiled) {
    return [best, profiled](const Sample& s) { return s.slot == best && s.profiled == profiled; };
  };
  const auto secs = [](const Sample& s) { return s.secs; };
  std::vector<Metric> metrics;
  if (!trace) {
    metrics.push_back({"cycles_per_s", chunk / median_of(samples, on_best(false), secs), "1/s"});
    const int setup_best = fastest_slot(setups, rotor.size());
    metrics.push_back({"setup_s",
                       median_of(
                           setups, [setup_best](const Sample& s) { return s.slot == setup_best; },
                           secs),
                       "s"});
  } else {
    for (int p = 0; p < kNumPhases; ++p) {
      metrics.push_back({std::string(kPhaseNames[p]) + "_ns_per_cycle",
                         median_of(samples, on_best(true),
                                   [p](const Sample& s) { return s.ns_per_cycle[p]; }),
                         "ns"});
    }
    metrics.push_back({"route_ns_per_flit_hop",
                       median_of(samples, on_best(true),
                                 [](const Sample& s) { return s.route_per_hop; }),
                       "ns"});
    metrics.push_back({"core_ns_per_insn",
                       median_of(samples, on_best(true),
                                 [](const Sample& s) { return s.core_per_insn; }),
                       "ns"});
    metrics.push_back({"inject_ns_per_flit",
                       median_of(samples, on_best(true),
                                 [](const Sample& s) { return s.inject_per_flit; }),
                       "ns"});
    metrics.push_back({"profiler_overhead_pct",
                       (median_of(samples, on_best(true), secs) /
                            median_of(samples, on_best(false), secs) -
                        1.0) * 100.0,
                       "%"});
    const double cycles = chunk * kMinChunks;
    const auto per_cycle = [cycles](std::uint64_t n) { return static_cast<double>(n) / cycles; };
    const auto ejected = static_cast<double>(counted.ejected - start.ejected);
    const double net_lat = ratio(counted.net_latency_sum - start.net_latency_sum, ejected);
    const double total_lat = ratio(counted.total_latency_sum - start.total_latency_sum, ejected);
    const std::uint64_t hops = counted.hops - start.hops;
    metrics.push_back(
        {"flits_injected_per_cycle", per_cycle(counted.injected - start.injected), "count"});
    metrics.push_back({"flit_hops_per_cycle", per_cycle(hops), "count"});
    metrics.push_back({"productive_hop_fraction",
                       ratio(static_cast<double>(counted.productive_hops - start.productive_hops),
                             static_cast<double>(hops)),
                       "ratio"});
    metrics.push_back({"insns_per_cycle", per_cycle(counted.retired - start.retired), "count"});
    metrics.push_back({"net_latency_cycles", net_lat, "cycles"});
    metrics.push_back({"ni_wait_cycles", total_lat - net_lat, "cycles"});
  }

  std::cerr << "nocsim_perf: " << w->name << " seed " << seed << ": " << attempted
            << " checks, " << failed << " failed; median ms per sample by CPU:";
  for (int k = 0; k < rotor.size(); ++k) {
    std::cerr << ' '
              << 1e3 * median_of(samples, [k](const Sample& s) { return s.slot == k; }, secs);
  }
  std::cerr << " (fastest: " << best << ")\n";
  print_result(failed == 0, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace nocsim::perf

int main(int argc, char** argv) { return nocsim::perf::run(argc, argv); }
