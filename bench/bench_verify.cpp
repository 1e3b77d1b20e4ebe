// E14 "Explicit-state verification throughput": states explored per second
// over an N-instance handshake network (each instance Idle -req-> Wait
// -ack-> Done -reset-> Idle, interleaved freely: 3^N reachable states,
// 3N-entry alphabet). Expected shape: per-state cost is dominated by
// restore + deliver + capture + hash, so states/s is roughly flat in N
// while the explored space grows exponentially — the budget/bound knobs,
// not throughput, are what limit verification scale.
//
// E16 addendum: BM_VerifyStatesPerSec runs the network on AOT-compiled
// plan-table engines (the verifier's default hot path); the *Interpreted
// variant keeps the reference interpreter for the before/after comparison.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "statechart/compile.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/model.hpp"
#include "support/diagnostics.hpp"
#include "verify/explore.hpp"

namespace {

using namespace umlsoc;

std::unique_ptr<statechart::StateMachine> make_handshake() {
  auto machine = std::make_unique<statechart::StateMachine>("Handshake");
  statechart::Region& top = machine->top();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& wait = top.add_state("Wait");
  statechart::State& done = top.add_state("Done");
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, wait).set_trigger("req");
  top.add_transition(wait, done).set_trigger("ack");
  top.add_transition(done, idle).set_trigger("reset");
  return machine;
}

void run_explore_loop(benchmark::State& state, verify::Network& network) {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  for (auto _ : state) {
    verify::ExploreResult result = verify::explore(network, {});
    benchmark::DoNotOptimize(result.stats.states);
    states += result.stats.states;
    transitions += result.stats.transitions;
  }
  state.counters["space"] = static_cast<double>(states / std::max<std::uint64_t>(
                                                             1, state.iterations()));
  state.counters["states/s"] =
      benchmark::Counter(static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["steps/s"] =
      benchmark::Counter(static_cast<double>(transitions), benchmark::Counter::kIsRate);
}

void add_handshake_choices(verify::Network& network, const std::string& name) {
  network.add_choice(name, statechart::Event("req"));
  network.add_choice(name, statechart::Event("ack"));
  network.add_choice(name, statechart::Event("reset"));
}

void BM_VerifyStatesPerSec(benchmark::State& state) {
  const auto instance_count = static_cast<std::size_t>(state.range(0));
  auto machine = make_handshake();
  std::vector<std::unique_ptr<statechart::CompiledMachine>> instances;
  verify::Network network;
  for (std::size_t i = 0; i < instance_count; ++i) {
    support::DiagnosticSink sink;
    auto compiled = statechart::compile(*machine, sink);
    compiled->start();
    instances.push_back(std::move(compiled));
    const std::string name = "hs" + std::to_string(i);
    network.add_instance(name, *instances.back());
    add_handshake_choices(network, name);
  }
  run_explore_loop(state, network);
}
BENCHMARK(BM_VerifyStatesPerSec)->Arg(1)->Arg(4)->Arg(8)->Arg(10);

void BM_VerifyStatesPerSecInterpreted(benchmark::State& state) {
  const auto instance_count = static_cast<std::size_t>(state.range(0));
  auto machine = make_handshake();
  std::vector<std::unique_ptr<statechart::StateMachineInstance>> instances;
  verify::Network network;
  for (std::size_t i = 0; i < instance_count; ++i) {
    instances.push_back(std::make_unique<statechart::StateMachineInstance>(*machine));
    instances.back()->set_trace_enabled(false);
    instances.back()->start();
    const std::string name = "hs" + std::to_string(i);
    network.add_instance(name, *instances.back());
    add_handshake_choices(network, name);
  }
  run_explore_loop(state, network);
}
BENCHMARK(BM_VerifyStatesPerSecInterpreted)->Arg(1)->Arg(4)->Arg(8)->Arg(10);

}  // namespace
