// E5 "MSC conformance": trace-check throughput vs fragment nesting, and the
// alt/par enumeration blowup. Expected shape: the position-set matcher is
// polynomial in trace length for alt/opt/loop; enumeration is exponential
// in alt depth (who wins: the matcher, by orders of magnitude at depth).
#include <benchmark/benchmark.h>

#include "interaction/trace.hpp"
#include "support/strings.hpp"

namespace {

using namespace umlsoc;
using namespace umlsoc::interaction;

/// depth nested alt blocks, each choosing between two messages.
std::unique_ptr<Interaction> make_alt_tower(int depth) {
  auto diagram = std::make_unique<Interaction>("alts");
  Lifeline& a = diagram->add_lifeline("A");
  Lifeline& b = diagram->add_lifeline("B");
  for (int i = 0; i < depth; ++i) {
    Fragment& alt = diagram->add_combined(InteractionOperator::kAlt);
    alt.add_operand().add_message(a, b, support::numbered("l", i));
    alt.add_operand().add_message(a, b, support::numbered("r", i));
  }
  return diagram;
}

Trace left_trace(int depth) {
  Trace trace;
  for (int i = 0; i < depth; ++i) trace.push_back("A->B:l" + std::to_string(i));
  return trace;
}

void BM_ConformAltTower(benchmark::State& state) {
  auto diagram = make_alt_tower(static_cast<int>(state.range(0)));
  ConformanceChecker checker(*diagram);
  Trace trace = left_trace(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.conforms(trace));
  }
  state.counters["alt_depth"] = static_cast<double>(state.range(0));
  state.counters["checks/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ConformAltTower)->Arg(2)->Arg(6)->Arg(12)->Arg(20);

void BM_EnumerateAltTower(benchmark::State& state) {
  auto diagram = make_alt_tower(static_cast<int>(state.range(0)));
  EnumerateOptions options;
  options.max_traces = 1u << 20;
  std::size_t traces = 0;
  for (auto _ : state) {
    EnumerationResult result = enumerate_traces(*diagram, options);
    traces = result.traces.size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["alt_depth"] = static_cast<double>(state.range(0));
  state.counters["traces"] = static_cast<double>(traces);  // 2^depth blowup.
}
BENCHMARK(BM_EnumerateAltTower)->Arg(2)->Arg(6)->Arg(12)->Unit(benchmark::kMicrosecond);

void BM_ConformLongLoop(benchmark::State& state) {
  Interaction diagram("loop");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  Fragment& loop = diagram.add_combined(InteractionOperator::kLoop);
  loop.set_loop_bounds(0, -1);
  loop.add_operand().add_message(a, b, "beat");
  diagram.add_message(a, b, "stop");

  ConformanceChecker checker(diagram);
  Trace trace(static_cast<std::size_t>(state.range(0)), "A->B:beat");
  trace.push_back("A->B:stop");
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.conforms(trace));
  }
  state.counters["trace_len"] = static_cast<double>(state.range(0) + 1);
}
BENCHMARK(BM_ConformLongLoop)->Arg(8)->Arg(64)->Arg(512);

void BM_ConformParBlock(benchmark::State& state) {
  Interaction diagram("par");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  Fragment& par = diagram.add_combined(InteractionOperator::kPar);
  for (int op = 0; op < state.range(0); ++op) {
    Operand& operand = par.add_operand();
    operand.add_message(a, b, support::numbered("x", op));
    operand.add_message(a, b, support::numbered("y", op));
  }
  ConformanceChecker checker(diagram);
  Trace trace;
  for (int op = 0; op < state.range(0); ++op) {
    trace.push_back("A->B:x" + std::to_string(op));
  }
  for (int op = 0; op < state.range(0); ++op) {
    trace.push_back("A->B:y" + std::to_string(op));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.conforms(trace));
  }
  state.counters["par_operands"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_ConformParBlock)->Arg(1)->Arg(2)->Arg(3)->Arg(4);

}  // namespace
