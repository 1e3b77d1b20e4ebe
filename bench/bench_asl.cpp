// E6 "ASL interpretation": parse cost and statements/sec for arithmetic,
// attribute, call and signal mixes. Expected shape: attribute access costs
// a map hop over locals; calls dominate when crossing the ObjectContext.
#include <benchmark/benchmark.h>

#include "asl/interpreter.hpp"
#include "asl/parser.hpp"
#include "support/strings.hpp"

namespace {

using namespace umlsoc;
using namespace umlsoc::asl;

void BM_AslParse(benchmark::State& state) {
  std::string source;
  for (int i = 0; i < state.range(0); ++i) {
    source += support::numbered("x", i);
    source += support::numbered(" := ", i);
    source += " * 3 + 1;";
  }
  for (auto _ : state) {
    support::DiagnosticSink sink;
    auto program = parse(source, sink);
    benchmark::DoNotOptimize(program);
  }
  state.counters["statements"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_AslParse)->Arg(10)->Arg(100)->Arg(1000);

void run_program_benchmark(benchmark::State& state, const char* source) {
  support::DiagnosticSink sink;
  auto program = parse(source, sink);
  if (!program.has_value()) {
    state.SkipWithError(sink.str().c_str());
    return;
  }
  MapObject self;
  self.define_operation("work", [](const std::vector<Value>& args) {
    return Value{args.empty() ? 0 : args[0].as_int() + 1};
  });
  std::uint64_t statements = 0;
  for (auto _ : state) {
    Environment environment(self);
    Interpreter interpreter;
    interpreter.execute(*program, environment);
    statements = interpreter.stats().statements_executed;
  }
  state.counters["stmts/s"] = benchmark::Counter(
      static_cast<double>(statements) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_AslArithmeticLoop(benchmark::State& state) {
  run_program_benchmark(state,
                        "acc := 0; i := 0;"
                        "while (i < 1000) { acc := acc * 3 + i % 7; i := i + 1; }"
                        "return acc;");
}
BENCHMARK(BM_AslArithmeticLoop);

void BM_AslAttributeLoop(benchmark::State& state) {
  run_program_benchmark(state,
                        "self.acc := 0; i := 0;"
                        "while (i < 1000) { self.acc := self.acc + i; i := i + 1; }"
                        "return self.acc;");
}
BENCHMARK(BM_AslAttributeLoop);

void BM_AslCallLoop(benchmark::State& state) {
  run_program_benchmark(state,
                        "acc := 0; i := 0;"
                        "while (i < 1000) { acc := work(acc); i := i + 1; }"
                        "return acc;");
}
BENCHMARK(BM_AslCallLoop);

void BM_AslSignalBurst(benchmark::State& state) {
  support::DiagnosticSink sink;
  auto program = parse("i := 0; while (i < 100) { send Bus.req(i); i := i + 1; }", sink);
  for (auto _ : state) {
    MapObject self;  // Fresh: signal log grows per run.
    Environment environment(self);
    Interpreter interpreter;
    interpreter.execute(*program, environment);
    benchmark::DoNotOptimize(self.sent_signals().size());
  }
  state.counters["signals/s"] = benchmark::Counter(
      100.0 * static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_AslSignalBurst);

}  // namespace
