// Codesign tests: task graph extraction, schedule evaluation, and the four
// partitioning algorithms with optimality/feasibility properties.
#include <gtest/gtest.h>

#include "activity/synthetic.hpp"
#include "codesign/partition.hpp"
#include "support/strings.hpp"

namespace umlsoc::codesign {
namespace {

/// Two parallel chains of two tasks each: a -> b, c -> d.
TaskGraph make_diamondless_graph() {
  TaskGraph graph;
  std::size_t a = graph.add_task({"a", 10, 2, 100, nullptr});
  std::size_t b = graph.add_task({"b", 20, 3, 200, nullptr});
  std::size_t c = graph.add_task({"c", 15, 4, 150, nullptr});
  std::size_t d = graph.add_task({"d", 5, 1, 50, nullptr});
  graph.add_precedence(a, b, 2.0);
  graph.add_precedence(c, d, 1.0);
  return graph;
}

TEST(TaskGraph, ExtractFromSequentialActivity) {
  auto activity = activity::make_sequential(4);
  TaskGraph graph = extract_task_graph(*activity);
  EXPECT_EQ(graph.size(), 4u);
  EXPECT_EQ(graph.graph().edge_count(), 3u);  // Chain a0->a1->a2->a3.
  auto order = graph.graph().topological_order();
  ASSERT_TRUE(order.has_value());
}

TEST(TaskGraph, ExtractSkipsControlNodes) {
  auto activity = activity::make_fork_join(3, 2);  // fork/join collapse away.
  TaskGraph graph = extract_task_graph(*activity);
  EXPECT_EQ(graph.size(), 6u);
  // Each first-stage action precedes its second-stage action; no edges
  // between parallel branches.
  EXPECT_EQ(graph.graph().edge_count(), 3u);
}

TEST(TaskGraph, ExtractMediaPipelineCosts) {
  auto activity = activity::make_media_pipeline();
  TaskGraph graph = extract_task_graph(*activity);
  EXPECT_EQ(graph.size(), 7u);
  double sw = graph.total_sw_cost();
  EXPECT_GT(sw, 100.0);
  EXPECT_GT(graph.total_hw_area(), 1000.0);
  // The DCT stages fork from color_convert and join into quantize.
  auto order = graph.graph().topological_order();
  ASSERT_TRUE(order.has_value());
}

TEST(Evaluate, AllSoftwareSerializesOnCpu) {
  TaskGraph graph = make_diamondless_graph();
  CostModel model;
  Partition all_sw(4, false);
  Evaluation eval = evaluate(graph, all_sw, model);
  // One CPU: 10+20+15+5 regardless of parallel structure.
  EXPECT_DOUBLE_EQ(eval.makespan, 50.0);
  EXPECT_DOUBLE_EQ(eval.area, 0.0);
  EXPECT_TRUE(eval.feasible);
}

TEST(Evaluate, AllHardwareRunsChainsInParallel) {
  TaskGraph graph = make_diamondless_graph();
  CostModel model;
  Partition all_hw(4, true);
  Evaluation eval = evaluate(graph, all_hw, model);
  // Chains (2+3) and (4+1) in parallel -> 5.
  EXPECT_DOUBLE_EQ(eval.makespan, 5.0);
  EXPECT_DOUBLE_EQ(eval.area, 500.0);
}

TEST(Evaluate, BoundaryPenaltyApplied) {
  TaskGraph graph;
  std::size_t a = graph.add_task({"a", 10, 2, 10, nullptr});
  std::size_t b = graph.add_task({"b", 10, 2, 10, nullptr});
  graph.add_precedence(a, b, 3.0);
  CostModel model;
  model.boundary_penalty = 7.0;

  Partition mixed{true, false};  // a in HW, b in SW: edge crosses.
  Evaluation eval = evaluate(graph, mixed, model);
  // a: 0..2 (hw), comm 3*7=21, b starts at 23, finishes 33.
  EXPECT_DOUBLE_EQ(eval.makespan, 33.0);

  Partition same{false, false};
  EXPECT_DOUBLE_EQ(evaluate(graph, same, model).makespan, 20.0);
}

TEST(Evaluate, AreaBudgetFeasibility) {
  TaskGraph graph = make_diamondless_graph();
  CostModel model;
  model.area_budget = 300.0;
  Partition all_hw(4, true);
  EXPECT_FALSE(evaluate(graph, all_hw, model).feasible);  // 500 > 300.
  Partition some_hw{true, false, true, false};            // 250 <= 300.
  EXPECT_TRUE(evaluate(graph, some_hw, model).feasible);
}

TEST(Evaluate, CyclicGraphThrows) {
  TaskGraph graph;
  std::size_t a = graph.add_task({"a", 1, 1, 1, nullptr});
  std::size_t b = graph.add_task({"b", 1, 1, 1, nullptr});
  graph.add_precedence(a, b);
  graph.add_precedence(b, a);
  EXPECT_THROW((void)evaluate(graph, Partition(2, false), CostModel{}),
               std::invalid_argument);
}

TEST(Schedule, RespectsPrecedences) {
  TaskGraph graph = make_diamondless_graph();
  CostModel model;
  Partition partition{true, true, false, false};
  std::vector<ScheduledTask> schedule = build_schedule(graph, partition, model);
  ASSERT_EQ(schedule.size(), 4u);
  auto find = [&](const std::string& name) -> const ScheduledTask& {
    for (const ScheduledTask& task : schedule) {
      if (task.name == name) return task;
    }
    throw std::runtime_error("missing " + name);
  };
  EXPECT_GE(find("b").start, find("a").finish);
  EXPECT_GE(find("d").start, find("c").finish);
  EXPECT_TRUE(find("a").hw);
  EXPECT_FALSE(find("c").hw);
}

TEST(Partition, BaselinesAndGreedy) {
  TaskGraph graph = make_diamondless_graph();
  CostModel model;
  model.area_budget = 350.0;

  PartitionResult sw = partition_all_software(graph, model);
  PartitionResult greedy = partition_greedy(graph, model);
  EXPECT_LE(greedy.evaluation.makespan, sw.evaluation.makespan);
  EXPECT_TRUE(greedy.evaluation.feasible);
  EXPECT_EQ(greedy.algorithm, "greedy");
  EXPECT_GT(greedy.evaluations, 1u);

  PartitionResult hw = partition_all_hardware(graph, model);
  EXPECT_FALSE(hw.evaluation.feasible);  // Over budget.
}

TEST(Partition, ExhaustiveIsOptimalLowerBound) {
  TaskGraph graph = make_diamondless_graph();
  CostModel model;
  model.area_budget = 350.0;

  PartitionResult exact = partition_exhaustive(graph, model);
  EXPECT_TRUE(exact.evaluation.feasible);
  for (const auto& result :
       {partition_greedy(graph, model), partition_kl(graph, model),
        partition_annealing(graph, model, 7, 5000)}) {
    EXPECT_GE(result.evaluation.makespan, exact.evaluation.makespan - 1e-9)
        << result.algorithm << " beat the optimum?!";
    EXPECT_TRUE(result.evaluation.feasible) << result.algorithm;
  }
}

TEST(Partition, KlNeverWorseThanAllSoftware) {
  auto activity = activity::make_series_parallel(5, 12);
  TaskGraph graph = extract_task_graph(*activity);
  CostModel model;
  model.area_budget = graph.total_hw_area() / 2.0;
  PartitionResult sw = partition_all_software(graph, model);
  PartitionResult kl = partition_kl(graph, model);
  EXPECT_LE(kl.evaluation.makespan, sw.evaluation.makespan);
  EXPECT_TRUE(kl.evaluation.feasible);
}

TEST(Partition, AnnealingDeterministicPerSeed) {
  TaskGraph graph = make_diamondless_graph();
  CostModel model;
  PartitionResult a = partition_annealing(graph, model, 42, 2000);
  PartitionResult b = partition_annealing(graph, model, 42, 2000);
  EXPECT_EQ(a.partition, b.partition);
  EXPECT_DOUBLE_EQ(a.evaluation.makespan, b.evaluation.makespan);
}

TEST(Partition, ExhaustiveRejectsLargeGraphs) {
  TaskGraph graph;
  for (int i = 0; i < 25; ++i) graph.add_task({support::numbered("t", i), 1, 1, 1, nullptr});
  EXPECT_THROW(partition_exhaustive(graph, CostModel{}), std::invalid_argument);
}

TEST(Pareto, FrontIsMonotone) {
  auto activity = activity::make_series_parallel(3, 10);
  TaskGraph graph = extract_task_graph(*activity);
  std::vector<ParetoPoint> front = pareto_front(graph, CostModel{});
  ASSERT_GE(front.size(), 2u);
  for (std::size_t i = 1; i < front.size(); ++i) {
    EXPECT_GT(front[i].area, front[i - 1].area);
    EXPECT_LT(front[i].makespan, front[i - 1].makespan);  // Strictly better.
  }
  // Extremes: the all-SW point has area 0.
  EXPECT_DOUBLE_EQ(front.front().area, 0.0);
}

// Property sweep: SA with enough iterations matches the exhaustive optimum
// on small graphs across seeds.
class SaQuality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SaQuality, MatchesExhaustiveOnSmallGraphs) {
  auto activity = activity::make_series_parallel(GetParam(), 8);
  TaskGraph graph = extract_task_graph(*activity);
  CostModel model;
  model.area_budget = graph.total_hw_area() * 0.6;
  PartitionResult exact = partition_exhaustive(graph, model);
  PartitionResult sa = partition_annealing(graph, model, GetParam() * 13 + 1, 30000);
  EXPECT_TRUE(sa.evaluation.feasible);
  EXPECT_LE(sa.evaluation.makespan, exact.evaluation.makespan * 1.05 + 1e-9)
      << "SA more than 5% off optimum";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SaQuality, ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace umlsoc::codesign
