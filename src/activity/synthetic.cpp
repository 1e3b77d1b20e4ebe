#include "activity/synthetic.hpp"

#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/strings.hpp"

namespace umlsoc::activity {

std::unique_ptr<Activity> make_sequential(std::size_t actions) {
  auto activity = std::make_unique<Activity>("seq" + std::to_string(actions));
  ActivityNode& initial = activity->add_initial();
  ActivityNode* previous = &initial;
  for (std::size_t i = 0; i < actions; ++i) {
    ActivityNode& action = activity->add_action(support::numbered("a", i));
    activity->add_edge(*previous, action);
    previous = &action;
  }
  ActivityNode& final_node = activity->add_final();
  activity->add_edge(*previous, final_node);
  return activity;
}

std::unique_ptr<Activity> make_fork_join(std::size_t width, std::size_t depth) {
  auto activity = std::make_unique<Activity>("fj_w" + std::to_string(width) + "_d" +
                                             std::to_string(depth));
  ActivityNode& initial = activity->add_initial();
  ActivityNode& fork = activity->add_node(NodeKind::kFork, "fork");
  ActivityNode& join = activity->add_node(NodeKind::kJoin, "join");
  ActivityNode& final_node = activity->add_final();
  activity->add_edge(initial, fork);
  activity->add_edge(join, final_node);

  for (std::size_t w = 0; w < width; ++w) {
    ActivityNode* previous = &fork;
    for (std::size_t d = 0; d < depth; ++d) {
      ActivityNode& action =
          activity->add_action(support::numbered(support::numbered("b", w) + "_", d));
      activity->add_edge(*previous, action);
      previous = &action;
    }
    activity->add_edge(*previous, join);
  }
  return activity;
}

std::unique_ptr<Activity> make_series_parallel(std::uint64_t seed, std::size_t actions) {
  support::Rng rng(seed);
  auto activity = std::make_unique<Activity>("sp" + std::to_string(actions));
  ActivityNode& initial = activity->add_initial();
  ActivityNode& final_node = activity->add_final();

  std::size_t created = 0;
  std::size_t fork_count = 0;

  // Recursive series-parallel block between two attachment points.
  // Returns nothing; wires head -> ... -> tail.
  std::function<void(ActivityNode&, ActivityNode&, std::size_t)> build =
      [&](ActivityNode& head, ActivityNode& tail, std::size_t budget) {
        if (budget == 0) {
          activity->add_edge(head, tail);
          return;
        }
        if (budget == 1 || rng.chance(0.6)) {
          // Series: head -> action -> (rest).
          ActivityNode& action = activity->add_action(support::numbered("n", created++));
          action.set_sw_latency(static_cast<double>(rng.range(1, 40)));
          action.set_hw_latency(static_cast<double>(rng.range(1, 8)));
          action.set_hw_area(static_cast<double>(rng.range(10, 500)));
          activity->add_edge(head, action);
          build(action, tail, budget - 1);
          return;
        }
        // Parallel: head -> fork -> two branches -> join -> tail.
        ActivityNode& fork =
            activity->add_node(NodeKind::kFork, support::numbered("f", fork_count));
        ActivityNode& join =
            activity->add_node(NodeKind::kJoin, support::numbered("j", fork_count));
        ++fork_count;
        activity->add_edge(head, fork);
        std::size_t left_budget = 1 + static_cast<std::size_t>(rng.below(budget - 1));
        build(fork, join, left_budget);
        build(fork, join, budget - left_budget);
        activity->add_edge(join, tail);
      };

  build(initial, final_node, actions);
  return activity;
}

std::unique_ptr<Activity> make_media_pipeline() {
  auto activity = std::make_unique<Activity>("media_pipeline");
  ActivityNode& initial = activity->add_initial();

  struct StageSpec {
    const char* name;
    double sw;
    double hw;
    double area;
  };
  const StageSpec front[] = {{"capture", 5, 4, 40}, {"color_convert", 18, 3, 220}};
  const StageSpec back[] = {{"quantize", 12, 2, 150}, {"entropy_code", 30, 9, 380},
                            {"packetize", 4, 3, 60}};

  ActivityNode* previous = &initial;
  for (const StageSpec& spec : front) {
    ActivityNode& action = activity->add_action(spec.name);
    action.set_sw_latency(spec.sw);
    action.set_hw_latency(spec.hw);
    action.set_hw_area(spec.area);
    activity->add_edge(*previous, action);
    previous = &action;
  }

  // Parallel transform stage: luma / chroma DCT.
  ActivityNode& fork = activity->add_node(NodeKind::kFork, "split");
  ActivityNode& join = activity->add_node(NodeKind::kJoin, "merge_planes");
  activity->add_edge(*previous, fork);
  for (const char* plane : {"dct_luma", "dct_chroma"}) {
    ActivityNode& action = activity->add_action(plane);
    action.set_sw_latency(45);
    action.set_hw_latency(6);
    action.set_hw_area(520);
    activity->add_edge(fork, action);
    activity->add_edge(action, join);
  }

  previous = &join;
  for (const StageSpec& spec : back) {
    ActivityNode& action = activity->add_action(spec.name);
    action.set_sw_latency(spec.sw);
    action.set_hw_latency(spec.hw);
    action.set_hw_area(spec.area);
    activity->add_edge(*previous, action);
    previous = &action;
  }
  ActivityNode& final_node = activity->add_final();
  activity->add_edge(*previous, final_node);
  return activity;
}

}  // namespace umlsoc::activity
