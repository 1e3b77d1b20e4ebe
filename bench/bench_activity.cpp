// E4 "Activity token game": token steps/sec vs graph shape. Expected shape:
// fork/join-heavy graphs pay per-node enabledness scans (quadratic-ish in
// node count for the naive scheduler), sequential chains are the fast path.
#include <benchmark/benchmark.h>

#include "activity/interpreter.hpp"
#include "activity/synthetic.hpp"
#include "support/strings.hpp"

namespace {

using namespace umlsoc;
using namespace umlsoc::activity;

void BM_SequentialRun(benchmark::State& state) {
  auto activity = make_sequential(static_cast<std::size_t>(state.range(0)));
  std::uint64_t firings = 0;
  for (auto _ : state) {
    ActivityExecution execution(*activity);
    execution.run();
    firings = execution.firings();
  }
  state.counters["actions"] = static_cast<double>(state.range(0));
  state.counters["firings/s"] = benchmark::Counter(
      static_cast<double>(firings) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SequentialRun)->Arg(8)->Arg(64)->Arg(512);

void BM_ForkJoinRun(benchmark::State& state) {
  auto activity =
      make_fork_join(static_cast<std::size_t>(state.range(0)), static_cast<std::size_t>(4));
  std::uint64_t firings = 0;
  for (auto _ : state) {
    ActivityExecution execution(*activity);
    execution.run();
    firings = execution.firings();
  }
  state.counters["width"] = static_cast<double>(state.range(0));
  state.counters["firings/s"] = benchmark::Counter(
      static_cast<double>(firings) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ForkJoinRun)->Arg(2)->Arg(8)->Arg(32);

void BM_SeriesParallelRun(benchmark::State& state) {
  auto activity = make_series_parallel(7, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    ActivityExecution execution(*activity);
    execution.run();
    benchmark::DoNotOptimize(execution.firings());
  }
  state.counters["actions"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_SeriesParallelRun)->Arg(10)->Arg(50)->Arg(200);

void BM_PipelineSteadyState(benchmark::State& state) {
  // Tokens streamed through a pipeline that never terminates (flow-final
  // sink): per-token end-to-end stepping cost.
  Activity activity("pipe");
  ActivityNode* previous = nullptr;
  const ActivityEdge* first_edge = nullptr;
  ActivityNode& initial = activity.add_initial();
  previous = &initial;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    ActivityNode& action = activity.add_action(support::numbered("a", i));
    const ActivityEdge& edge = activity.add_edge(*previous, action);
    if (first_edge == nullptr) first_edge = &edge;
    previous = &action;
  }
  ActivityNode& sink_node = activity.add_node(NodeKind::kFlowFinal, "sink");
  activity.add_edge(*previous, sink_node);

  ActivityExecution execution(activity);
  for (auto _ : state) {
    execution.place_token(*first_edge, Token{1});
    while (execution.step()) {
    }
  }
  state.counters["stages"] = static_cast<double>(state.range(0));
  state.counters["tokens/s"] =
      benchmark::Counter(static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PipelineSteadyState)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
