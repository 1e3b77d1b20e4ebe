// E9 "Simulation kernel": events/sec vs process and signal counts, and the
// delta-cycle overhead of signal chains. Expected shape: throughput is flat
// per event (O(log n) queue ops); long combinational chains cost one delta
// per stage.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"
#include "sim/signal.hpp"
#include "sim/supervise.hpp"
#include "support/strings.hpp"

namespace {

using namespace umlsoc::sim;

void BM_TimedEventThroughput(benchmark::State& state) {
  // Self-rescheduling processes: the classic kernel stress. Each process
  // registers once and re-schedules its own handle (the steady-state hot
  // path: POD queue entries, no std::function per event).
  double total_events = 0;
  Kernel::Stats last_stats;
  for (auto _ : state) {
    state.PauseTiming();
    Kernel kernel;
    const int processes = static_cast<int>(state.range(0));
    std::vector<ProcessId> ids(static_cast<std::size_t>(processes), kInvalidProcess);
    int remaining = 100000;
    for (int p = 0; p < processes; ++p) {
      auto* kernel_ptr = &kernel;
      auto* remaining_ptr = &remaining;
      auto* id = &ids[static_cast<std::size_t>(p)];
      *id = kernel.register_process([kernel_ptr, remaining_ptr, id, p] {
        if (--(*remaining_ptr) > 0) {
          kernel_ptr->schedule(SimTime::ns(static_cast<std::uint64_t>(1 + p % 7)), *id);
        }
      });
      kernel.schedule(SimTime::ns(1), *id);
    }
    state.ResumeTiming();
    kernel.run();
    total_events += static_cast<double>(kernel.events_processed());
    last_stats = kernel.stats();
  }
  state.counters["events/s"] = benchmark::Counter(total_events, benchmark::Counter::kIsRate);
  state.counters["processes"] = static_cast<double>(state.range(0));
  state.counters["timed_peak"] = static_cast<double>(last_stats.timed_peak);
  state.counters["wheel_hits"] = static_cast<double>(last_stats.wheel_hits);
  state.counters["heap_hits"] = static_cast<double>(last_stats.heap_hits);
  state.counters["max_deltas"] = static_cast<double>(last_stats.max_deltas_per_instant);
}
BENCHMARK(BM_TimedEventThroughput)->Arg(1)->Arg(16)->Arg(256)->Unit(benchmark::kMillisecond);

void BM_SignalChainDeltas(benchmark::State& state) {
  // a0 -> a1 -> ... -> aN combinational chain: one write ripples N deltas.
  const int length = static_cast<int>(state.range(0));
  Kernel kernel;
  std::vector<std::unique_ptr<Signal<int>>> chain;
  for (int i = 0; i <= length; ++i) {
    chain.push_back(std::make_unique<Signal<int>>(kernel, umlsoc::support::numbered("s", i), 0));
  }
  for (int i = 0; i < length; ++i) {
    Signal<int>* from = chain[static_cast<std::size_t>(i)].get();
    Signal<int>* to = chain[static_cast<std::size_t>(i + 1)].get();
    from->value_changed().subscribe([from, to] { to->write(from->read() + 1); });
  }
  int stimulus = 0;
  const ProcessId stimulate =
      kernel.register_process([&] { chain[0]->write(++stimulus); });
  for (auto _ : state) {
    kernel.schedule(SimTime::ns(1), stimulate);
    kernel.run();
  }
  state.counters["chain"] = static_cast<double>(length);
  state.counters["deltas"] = static_cast<double>(kernel.delta_count());
}
BENCHMARK(BM_SignalChainDeltas)->Arg(4)->Arg(32)->Arg(256);

void BM_ClockFanout(benchmark::State& state) {
  // One clock driving N sensitive processes for 1000 edges. Subscribers
  // register once; every edge fans out as ProcessId pushes.
  double total_events = 0;
  Kernel::Stats last_stats;
  for (auto _ : state) {
    state.PauseTiming();
    Kernel kernel;
    Clock clock(kernel, "clk", SimTime::ns(10));
    long total = 0;
    for (int p = 0; p < state.range(0); ++p) {
      clock.signal().value_changed().subscribe([&total] { ++total; });
    }
    state.ResumeTiming();
    kernel.run(SimTime::us(5));  // 1000 edges.
    benchmark::DoNotOptimize(total);
    total_events += static_cast<double>(kernel.events_processed());
    last_stats = kernel.stats();
  }
  state.counters["events/s"] = benchmark::Counter(total_events, benchmark::Counter::kIsRate);
  state.counters["fanout"] = static_cast<double>(state.range(0));
  state.counters["timed_peak"] = static_cast<double>(last_stats.timed_peak);
}
BENCHMARK(BM_ClockFanout)->Arg(1)->Arg(32)->Arg(512)->Unit(benchmark::kMillisecond);

void BM_BusTransactions(benchmark::State& state) {
  Kernel kernel;
  MemoryMappedBus bus(kernel, "axi", SimTime::ns(static_cast<std::uint64_t>(state.range(0))));
  std::uint64_t mem[64] = {};
  bus.map_device(
      "ram", 0, sizeof(mem), [&](std::uint64_t a) { return mem[(a / 8) % 64]; },
      [&](std::uint64_t a, std::uint64_t v) { mem[(a / 8) % 64] = v; });
  std::uint64_t address = 0;
  for (auto _ : state) {
    bool done = false;
    bus.write(address % 512, address, [&done](BusStatus) { done = true; });
    kernel.run(kernel.now() + SimTime::ns(static_cast<std::uint64_t>(state.range(0))));
    benchmark::DoNotOptimize(done);
    address += 8;
  }
  state.counters["latency_ns"] = static_cast<double>(state.range(0));
  state.counters["xfers/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BusTransactions)->Arg(1)->Arg(8)->Arg(64);

void BM_BusTransactionsFaulty(benchmark::State& state) {
  // Same transaction loop as BM_BusTransactions (at 8ns latency) but on the
  // status-callback API, with an optional fault plan. Arg is the fault
  // probability in 1/10000 units: Arg(0) is the no-plan baseline (measures
  // that an uninstalled plan costs nothing), Arg(100) a 1% error rate
  // (EXPERIMENTS.md E12).
  Kernel kernel;
  MemoryMappedBus bus(kernel, "axi", SimTime::ns(8));
  std::uint64_t mem[64] = {};
  bus.map_device(
      "ram", 0, sizeof(mem), [&](std::uint64_t a) { return mem[(a / 8) % 64]; },
      [&](std::uint64_t a, std::uint64_t v) { mem[(a / 8) % 64] = v; });
  FaultPlan plan(/*seed=*/1234);
  if (state.range(0) != 0) {
    FaultPlan::SiteConfig config;
    config.error_rate = static_cast<double>(state.range(0)) / 10000.0;
    plan.configure(FaultSite::kBusWrite, config);
    bus.install_fault_plan(&plan);
  }
  std::uint64_t address = 0;
  for (auto _ : state) {
    bool done = false;
    bus.write(address % 512, address, [&done](BusStatus) { done = true; });
    kernel.run(kernel.now() + SimTime::ns(8));
    benchmark::DoNotOptimize(done);
    address += 8;
  }
  state.counters["fault_bp"] = static_cast<double>(state.range(0));
  state.counters["injected"] = static_cast<double>(plan.total_injected());
  state.counters["xfers/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BusTransactionsFaulty)->Arg(0)->Arg(100);

void BM_BusBreaker(benchmark::State& state) {
  // Fault-free supervision overhead (EXPERIMENTS.md E15): the same
  // transaction loop issued through a BusMasterPort directly (Arg 0) vs
  // through a closed CircuitBreaker wrapping that port (Arg 1). No fault
  // plan, so the breaker never opens — the measured delta is the pure cost
  // of the closed-path bookkeeping (one state check, one window update per
  // completion).
  Kernel kernel;
  MemoryMappedBus bus(kernel, "axi", SimTime::ns(8));
  std::uint64_t mem[64] = {};
  bus.map_device(
      "ram", 0, sizeof(mem), [&](std::uint64_t a) { return mem[(a / 8) % 64]; },
      [&](std::uint64_t a, std::uint64_t v) { mem[(a / 8) % 64] = v; });
  BusMasterPort port(kernel, bus, "dma");
  CircuitBreaker breaker(kernel, port, "dma");
  const bool through_breaker = state.range(0) != 0;
  std::uint64_t address = 0;
  for (auto _ : state) {
    bool done = false;
    auto completion = [&done](BusStatus) { done = true; };
    if (through_breaker) {
      breaker.write(address % 512, address, completion);
    } else {
      port.write(address % 512, address, completion);
    }
    kernel.run(kernel.now() + SimTime::ns(8));
    benchmark::DoNotOptimize(done);
    address += 8;
  }
  state.counters["breaker"] = through_breaker ? 1 : 0;
  state.counters["opens"] = static_cast<double>(breaker.stats().opens);
  state.counters["xfers/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BusBreaker)->Arg(0)->Arg(1);

void BM_KernelReplay(benchmark::State& state) {
  // Recorder overhead on the timed-event hot path (EXPERIMENTS.md E13).
  // Arg(0): no recorder (the detached cost is one null check per event).
  // Arg(1): full-log recording. Arg(2): bounded ring (flight-recorder
  // configuration, 4096 entries).
  constexpr int kEventsPerIter = 100000;
  double total_events = 0;
  std::uint64_t recorded = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Kernel kernel;
    EventRecorder recorder(state.range(0) == 2 ? 4096 : 0);
    if (state.range(0) != 0) kernel.set_recorder(&recorder);
    int remaining = kEventsPerIter;
    ProcessId id = kInvalidProcess;
    id = kernel.register_process([&] {
      if (--remaining > 0) kernel.schedule(SimTime::ns(1), id);
    });
    kernel.schedule(SimTime::ns(1), id);
    state.ResumeTiming();
    total_events += static_cast<double>(kernel.run());
    recorded = recorder.total_events();
  }
  state.counters["mode"] = static_cast<double>(state.range(0));
  state.counters["recorded"] = static_cast<double>(recorded);
  state.counters["events/s"] =
      benchmark::Counter(total_events, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_KernelReplay)->Arg(0)->Arg(1)->Arg(2)->Unit(benchmark::kMillisecond);

void BM_BusReplay(benchmark::State& state) {
  // Recorder overhead on a realistic workload: bus transactions whose
  // per-event cost includes decode, data phase and completion callbacks.
  // Arg(0): recorder detached. Arg(1): 4096-entry ring attached (the
  // flight-recorder configuration for long adversarial runs).
  Kernel kernel;
  EventRecorder recorder(/*ring_capacity=*/4096);
  if (state.range(0) != 0) kernel.set_recorder(&recorder);
  MemoryMappedBus bus(kernel, "axi", SimTime::ns(8));
  std::uint64_t mem[64] = {};
  bus.map_device(
      "ram", 0, sizeof(mem), [&](std::uint64_t a) { return mem[(a / 8) % 64]; },
      [&](std::uint64_t a, std::uint64_t v) { mem[(a / 8) % 64] = v; });
  std::uint64_t address = 0;
  for (auto _ : state) {
    bool done = false;
    bus.write(address % 512, address, [&done](BusStatus) { done = true; });
    kernel.run(kernel.now() + SimTime::ns(8));
    benchmark::DoNotOptimize(done);
    address += 8;
  }
  state.counters["recorded"] = static_cast<double>(recorder.total_events());
  state.counters["xfers/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BusReplay)->Arg(0)->Arg(1);

}  // namespace
