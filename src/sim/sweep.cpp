#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <thread>

#include "common/rng.hpp"
#include "sim/simulator.hpp"
#include "telemetry/event_log.hpp"
#include "telemetry/flit_trace.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/telemetry.hpp"

namespace nocsim {
namespace {

/// One splitmix64 avalanche of (h ^ v) — the accumulator step for both
/// derive_seed and config_hash.
std::uint64_t mix64(std::uint64_t h, std::uint64_t v) {
  std::uint64_t state = h ^ v;
  return splitmix64(state);
}

class FieldHasher {
 public:
  void mix(std::uint64_t v) { h_ = mix64(h_, v); }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    // FNV-1a over the bytes, folded in as one word: cheap, and the length
    // prefix keeps concatenated fields from aliasing.
    std::uint64_t fnv = 0xcbf29ce484222325ULL;
    for (const char c : s) fnv = (fnv ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    mix(fnv);
  }
  [[nodiscard]] std::uint64_t digest() const { return h_; }

 private:
  std::uint64_t h_ = 0x6e6f6373696d5357ULL;  // "nocsimSW"
};

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

RunRecord make_record(const std::string& label, const SimConfig& config,
                      const WorkloadSpec& workload, const SimResult& result) {
  RunRecord rec;
  rec.label = label;
  rec.config_hash = config_hash(config, workload);
  rec.seed = config.seed;
  rec.cycles = result.cycles;
  rec.system_throughput = result.system_throughput();
  rec.avg_net_latency = result.avg_net_latency;
  rec.utilization = result.utilization;
  rec.deflection_rate = result.avg_deflections;
  rec.starvation_rate = result.avg_starvation;
  return rec;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t base, std::uint64_t stream) {
  // Same recipe as Rng::fork: decorrelate the stream index with the golden
  // ratio before the avalanche, so stream 0 is not a fixed point.
  return mix64(base, 0x9e3779b97f4a7c15ULL * (stream + 1));
}

std::uint64_t config_hash(const SimConfig& c, const WorkloadSpec& workload) {
  FieldHasher h;
  h.mix(c.width);
  h.mix(c.height);
  h.mix(c.depth);
  h.mix(c.topology);
  h.mix(c.topology_file);
  h.mix(static_cast<int>(c.router));
  h.mix(c.adaptive_routing);
  h.mix(c.l2_map);
  h.mix(c.locality_lambda);
  h.mix(static_cast<int>(c.cc));
  h.mix(c.cc_params.alpha_starve);
  h.mix(c.cc_params.beta_starve);
  h.mix(c.cc_params.gamma_starve);
  h.mix(c.cc_params.alpha_throt);
  h.mix(c.cc_params.beta_throt);
  h.mix(c.cc_params.gamma_throt);
  h.mix(c.cc_params.epoch);
  h.mix(c.cc_params.escalation);
  h.mix(c.static_rate);
  h.mix(static_cast<std::uint64_t>(c.selective_rates.size()));
  for (const double r : c.selective_rates) h.mix(r);
  h.mix(c.randomized_throttle_gate);
  h.mix(c.model_control_traffic);
  h.mix(c.seed);
  h.mix(c.warmup_cycles);
  h.mix(c.measure_cycles);
  h.mix(c.record_epoch_ipf);
  h.mix(workload.category);
  h.mix(static_cast<std::uint64_t>(workload.app_names.size()));
  for (const std::string& app : workload.app_names) h.mix(app);
  return h.digest();
}

std::size_t RunLog::reserve(std::size_t n) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t first = next_index_;
  next_index_ += n;
  return first;
}

void RunLog::add(RunRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(std::move(record));
}

std::vector<RunRecord> RunLog::records() const {
  std::vector<RunRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = records_;
  }
  std::sort(out.begin(), out.end(),
            [](const RunRecord& a, const RunRecord& b) { return a.index < b.index; });
  return out;
}

void RunLog::write_csv(std::ostream& out) const {
  out << "index,label,config_hash,seed,cycles,system_throughput,avg_net_latency,"
         "utilization,deflection_rate,starvation_rate,wall_seconds\n";
  char hash[24];
  for (const RunRecord& r : records()) {
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(r.config_hash));
    out << r.index << ',' << r.label << ',' << hash << ',' << r.seed << ',' << r.cycles << ','
        << r.system_throughput << ',' << r.avg_net_latency << ',' << r.utilization << ','
        << r.deflection_rate << ',' << r.starvation_rate << ',' << r.wall_seconds << '\n';
  }
}

void RunLog::write_json(std::ostream& out) const {
  const std::vector<RunRecord> recs = records();
  out << "[\n";
  char hash[24];
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const RunRecord& r = recs[i];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(r.config_hash));
    out << "  {\"index\": " << r.index << ", \"label\": \"" << json_escape(r.label)
        << "\", \"config_hash\": \"" << hash << "\", \"seed\": " << r.seed
        << ", \"cycles\": " << r.cycles << ", \"system_throughput\": " << r.system_throughput
        << ", \"avg_net_latency\": " << r.avg_net_latency
        << ", \"utilization\": " << r.utilization
        << ", \"deflection_rate\": " << r.deflection_rate
        << ", \"starvation_rate\": " << r.starvation_rate
        << ", \"wall_seconds\": " << r.wall_seconds << '}'
        << (i + 1 < recs.size() ? "," : "") << '\n';
  }
  out << "]\n";
}

bool RunLog::write_files(const std::string& stem) const {
  bool ok = true;
  {
    std::ofstream csv(stem + ".runs.csv");
    if (csv) {
      write_csv(csv);
    } else {
      std::fprintf(stderr, "nocsim: cannot write %s.runs.csv\n", stem.c_str());
      ok = false;
    }
  }
  {
    std::ofstream json(stem + ".runs.json");
    if (json) {
      write_json(json);
    } else {
      std::fprintf(stderr, "nocsim: cannot write %s.runs.json\n", stem.c_str());
      ok = false;
    }
  }
  return ok;
}

std::size_t SweepRunner::reserve(std::size_t n) {
  return options_.log != nullptr ? options_.log->reserve(n) : 0;
}

std::vector<SimResult> SweepRunner::run(const std::vector<SweepPoint>& points) {
  std::vector<SimResult> results(points.size());
  const std::size_t first = reserve(points.size());
  run_block(first, points.size(), [this, first, &points, &results](std::size_t i) {
    const SweepPoint& point = points[i];
    SimConfig config = point.config;
    if (options_.derive_seeds) {
      config.seed = derive_seed(config.seed, point.seed_stream.value_or(i));
    }
    Simulator sim(config, point.workload);

    // Telemetry: a caller-owned hub wins; otherwise a stem makes the
    // runner own one per run. With a stem the files are written below.
    // Hub, tracer, profiler, and event log are all private to this run, so
    // records stay schedule-free.
    const bool own_files = !options_.telemetry_stem.empty();
    TelemetryHub* hub = point.hub;
    std::optional<TelemetryHub> owned_hub;
    if (hub == nullptr && own_files) {
      owned_hub.emplace(options_.telemetry_period);
      hub = &*owned_hub;
    }
    if (hub != nullptr) sim.attach_telemetry(hub);
    std::optional<ChromeTracer> tracer;
    if (options_.trace_flits > 0) {
      ChromeTracer::Options topts;
      topts.sample_every = options_.trace_flits;
      tracer.emplace(topts);
      sim.attach_tracer(&*tracer);
    }
    std::optional<PhaseProfiler> profiler;
    if (options_.profile && own_files) {
      profiler.emplace();
      sim.attach_profiler(&*profiler);
    }
    std::optional<EventLog> events;
    if (options_.events && own_files) {
      events.emplace();
      sim.attach_events(&*events);
    }

    results[i] = sim.run();

    if (own_files) {
      const std::string base = options_.telemetry_stem + ".run" + std::to_string(first + i);
      if (!hub->write_csv_file(base + ".timeseries.csv")) {
        std::fprintf(stderr, "nocsim: cannot write %s.timeseries.csv\n", base.c_str());
      }
      // Profiler/event tracks merge into the flit trace when both exist,
      // so one Perfetto load shows flit motion, phase timing, and
      // provenance instants on a shared timeline.
      if (tracer && !tracer->write_json_file(base + ".trace.json",
                                             profiler ? &*profiler : nullptr,
                                             events ? &*events : nullptr)) {
        std::fprintf(stderr, "nocsim: cannot write %s.trace.json\n", base.c_str());
      }
      if (profiler && !profiler->write_json_file(base + ".profile.json")) {
        std::fprintf(stderr, "nocsim: cannot write %s.profile.json\n", base.c_str());
      }
      if (events && !events->write_csv_file(base + ".events.csv")) {
        std::fprintf(stderr, "nocsim: cannot write %s.events.csv\n", base.c_str());
      }
    }
    return make_record(point.label, config, point.workload, results[i]);
  });
  return results;
}

void SweepRunner::run_indexed(std::size_t n, const std::function<RunRecord(std::size_t)>& fn) {
  run_block(reserve(n), n, fn);
}

void SweepRunner::run_block(std::size_t first, std::size_t n,
                            const std::function<RunRecord(std::size_t)>& fn) {
  // min(jobs, n) workers, the calling thread included, pull indices from one
  // shared counter. Each fn(i) writes only its own slots and the log sorts
  // by index, so nothing depends on the schedule.
  const std::size_t workers = std::clamp<std::size_t>(
      n, 1, static_cast<std::size_t>(std::max(1, options_.jobs)));
  std::atomic<std::size_t> next{0};
  // A worker's exception lands in its own slot and stops the handing out of
  // indices; the first one is rethrown here once every worker has joined.
  std::vector<std::exception_ptr> errors(workers);
  const auto worker = [this, first, n, &fn, &next, &errors](std::size_t w) {
    try {
      for (std::size_t i = next++; i < n; i = next++) {
        // nocsim-lint: allow(wallclock, raw-timing): host wall time feeds the run record only, never sim state.
        const auto start = std::chrono::steady_clock::now();
        RunRecord rec = fn(i);
        // nocsim-lint: allow(wallclock, raw-timing): wall_seconds is a reporting field, not sim state.
        const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;
        rec.index = first + i;
        rec.wall_seconds = wall.count();
        if (options_.log) options_.log->add(std::move(rec));
      }
    } catch (...) {
      errors[w] = std::current_exception();
      next = n;
    }
  };
  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (std::size_t w = 1; w < workers; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace nocsim
