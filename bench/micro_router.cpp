// Router hot-path microbenchmarks (google-benchmark): per-cycle cost of the
// BLESS and buffered fabrics under synthetic open-loop load, plus the other
// inner-loop components (L1 access, trace generation, full simulator step).
// These justify the performance claims in DESIGN.md ("64x64 x 100k cycles
// in seconds") and catch hot-path regressions.
#include <benchmark/benchmark.h>

#include <deque>

#include "common/rng.hpp"
#include "cpu/cache.hpp"
#include "noc/bless_fabric.hpp"
#include "noc/buffered_fabric.hpp"
#include "noc/traffic.hpp"
#include "sim/experiment.hpp"
#include "telemetry/flit_trace.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/synth_trace.hpp"

namespace nocsim {
namespace {

template <typename FabricT>
void run_fabric_cycles(benchmark::State& state, double inject_rate) {
  const int side = static_cast<int>(state.range(0));
  Mesh mesh(side, side);
  FabricT fabric(mesh);
  std::uint64_t delivered = 0;
  fabric.set_eject_sink([&](NodeId, const Flit&) { ++delivered; });
  UniformTraffic pattern(mesh);
  Rng rng(1);
  PacketSeq seq = 0;
  Cycle now = 0;
  for (auto _ : state) {
    fabric.begin_cycle(now);
    for (NodeId n = 0; n < mesh.num_nodes(); ++n) {
      if (rng.next_bool(inject_rate) && fabric.can_accept(n)) {
        Flit f;
        f.src = n;
        f.dst = pattern.pick(n, rng);
        f.packet = seq++;
        f.enqueue_cycle = now;
        fabric.request_inject(n, f);
      }
    }
    fabric.step(now);
    ++now;
  }
  state.counters["routers"] = side * side;
  state.counters["router_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * side * side, benchmark::Counter::kIsRate);
  benchmark::DoNotOptimize(delivered);
}

void BM_BlessFabricCycle(benchmark::State& state) {
  run_fabric_cycles<BlessFabric>(state, 0.2);
}
BENCHMARK(BM_BlessFabricCycle)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_BufferedFabricCycle(benchmark::State& state) {
  run_fabric_cycles<BufferedFabric>(state, 0.2);
}
BENCHMARK(BM_BufferedFabricCycle)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_L1CacheAccess(benchmark::State& state) {
  SetAssocCache l1(128 * 1024, 4, 32);
  Rng rng(2);
  for (Addr b = 0; b < 4096; ++b) l1.fill(b);
  Addr block = 0;
  for (auto _ : state) {
    block = rng.next_below(8192);
    if (!l1.access(block)) l1.fill(block);
  }
  benchmark::DoNotOptimize(block);
}
BENCHMARK(BM_L1CacheAccess);

void BM_SyntheticTraceNext(benchmark::State& state) {
  SyntheticTrace trace(app_by_name("mcf"), 1, 0);
  Addr sum = 0;
  for (auto _ : state) sum += trace.next().addr;
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_SyntheticTraceNext);

void BM_SimulatorCycle(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  SimConfig c;
  c.width = c.height = side;
  c.l2_map = side > 8 ? "exponential" : "xor";
  Rng rng(7);
  const auto wl = make_category_workload("HM", side * side, rng);
  Simulator sim(c, wl);
  sim.run_cycles(2000);  // warm the pipeline out of the cold-start regime
  for (auto _ : state) sim.run_cycles(1);
  state.counters["node_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * side * side, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorCycle)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

// Same closed-loop step with the observability layer engaged: a telemetry
// hub on a 1000-cycle cadence plus a 1-in-16 flit tracer. Compare against
// BM_SimulatorCycle (telemetry detached, the null-pointer fast path) to see
// what tracing costs when it is on.
void BM_SimulatorCycleTelemetry(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  SimConfig c;
  c.width = c.height = side;
  c.l2_map = side > 8 ? "exponential" : "xor";
  Rng rng(7);
  const auto wl = make_category_workload("HM", side * side, rng);
  Simulator sim(c, wl);
  TelemetryHub hub(1000);
  sim.attach_telemetry(&hub);
  ChromeTracer::Options topts;
  topts.sample_every = 16;
  ChromeTracer tracer(topts);
  sim.attach_tracer(&tracer);
  sim.run_cycles(2000);  // warm the pipeline out of the cold-start regime
  for (auto _ : state) sim.run_cycles(1);
  state.counters["node_cycles_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * side * side, benchmark::Counter::kIsRate);
  benchmark::DoNotOptimize(hub.rows.size());
  benchmark::DoNotOptimize(tracer.num_events());
}
BENCHMARK(BM_SimulatorCycleTelemetry)->Arg(4)->Arg(8)->Arg(16);

}  // namespace
}  // namespace nocsim

BENCHMARK_MAIN();
