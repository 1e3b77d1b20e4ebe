#include "statechart/synthetic.hpp"

#include <string>
#include <vector>

#include "support/rng.hpp"
#include "support/strings.hpp"

namespace umlsoc::statechart {

std::unique_ptr<StateMachine> make_chain_machine(std::size_t states) {
  auto machine = std::make_unique<StateMachine>("chain" + std::to_string(states));
  Region& top = machine->top();
  Pseudostate& initial = top.add_initial();

  std::vector<State*> chain;
  for (std::size_t i = 0; i < states; ++i) {
    chain.push_back(&top.add_state(support::numbered("s", i)));
  }
  top.add_transition(initial, *chain.front());
  for (std::size_t i = 0; i < states; ++i) {
    top.add_transition(*chain[i], *chain[(i + 1) % states]).set_trigger("e");
  }
  return machine;
}

std::unique_ptr<StateMachine> make_nested_machine(std::size_t depth, std::size_t width) {
  auto machine = std::make_unique<StateMachine>("nested_d" + std::to_string(depth) + "_w" +
                                                std::to_string(width));
  Region* region = &machine->top();
  State* outermost = nullptr;

  for (std::size_t level = 0; level < depth; ++level) {
    Pseudostate& initial = region->add_initial();
    const std::string suffix = "_L" + std::to_string(level);

    State& composite = region->add_state("c" + suffix);
    region->add_transition(initial, composite);
    if (outermost == nullptr) outermost = &composite;

    Region& inner = composite.add_region("r" + suffix);
    if (level + 1 == depth) {
      // Innermost level: a cycle of `width` leaves on "step".
      Pseudostate& leaf_initial = inner.add_initial();
      std::vector<State*> leaves;
      for (std::size_t i = 0; i < width; ++i) {
        leaves.push_back(&inner.add_state("leaf" + suffix + "_" + std::to_string(i)));
      }
      inner.add_transition(leaf_initial, *leaves.front());
      for (std::size_t i = 0; i < width; ++i) {
        inner.add_transition(*leaves[i], *leaves[(i + 1) % width]).set_trigger("step");
      }
    } else {
      region = &inner;
    }
  }
  // Outer-level handler: "reset" re-enters the outermost composite, forcing
  // the interpreter to search the whole ancestor chain on every dispatch.
  if (outermost != nullptr) {
    machine->top().add_transition(*outermost, *outermost).set_trigger("reset");
  }
  return machine;
}

std::unique_ptr<StateMachine> make_orthogonal_machine(std::size_t regions,
                                                      std::size_t states_per_region) {
  auto machine = std::make_unique<StateMachine>("ortho_r" + std::to_string(regions) + "_s" +
                                                std::to_string(states_per_region));
  Region& top = machine->top();
  Pseudostate& initial = top.add_initial();
  State& parallel = top.add_state("parallel");
  top.add_transition(initial, parallel);

  for (std::size_t r = 0; r < regions; ++r) {
    Region& region = parallel.add_region(support::numbered("r", r));
    Pseudostate& region_initial = region.add_initial();
    std::vector<State*> cycle;
    for (std::size_t s = 0; s < states_per_region; ++s) {
      cycle.push_back(&region.add_state(support::numbered(support::numbered("q", r) + "_", s)));
    }
    region.add_transition(region_initial, *cycle.front());
    for (std::size_t s = 0; s < states_per_region; ++s) {
      State& from = *cycle[s];
      State& to = *cycle[(s + 1) % states_per_region];
      region.add_transition(from, to).set_trigger("tick");
      region.add_transition(from, to).set_trigger(support::numbered("r", r));
    }
  }
  return machine;
}


std::unique_ptr<StateMachine> make_random_hierarchical_machine(std::uint64_t seed,
                                                               std::size_t max_depth,
                                                               std::size_t states_per_region,
                                                               std::size_t events) {
  support::Rng rng(seed);
  auto machine = std::make_unique<StateMachine>("rand" + std::to_string(seed));
  std::size_t name_counter = 0;

  // Recursive region fill; returns the states created directly in `region`.
  std::function<void(Region&, std::size_t)> fill = [&](Region& region, std::size_t depth) {
    Pseudostate& initial = region.add_initial();
    std::vector<State*> states;
    for (std::size_t i = 0; i < states_per_region; ++i) {
      State& state = region.add_state(support::numbered("s", name_counter++));
      states.push_back(&state);
      if (depth < max_depth && rng.chance(0.4)) {
        fill(state.add_region(support::numbered("r", name_counter++)), depth + 1);
      }
    }
    region.add_transition(initial, *states.front());
    // Random event-triggered transitions within this region.
    for (State* state : states) {
      for (std::size_t e = 0; e < events; ++e) {
        if (!rng.chance(0.6)) continue;
        State& target = *states[static_cast<std::size_t>(rng.below(states.size()))];
        region.add_transition(*state, target).set_trigger(support::numbered("e", e));
      }
    }
  };
  fill(machine->top(), 0);
  return machine;
}

}  // namespace umlsoc::statechart
