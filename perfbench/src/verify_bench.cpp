// Verify workload: seeded statechart networks explored by BFS to a verdict.
//
//   verify_bench --seed N --seconds S [--traced] [--out DIR]
//
// The networks are generated from the seed: two handshake networks (the E14
// shape, 3^7 and 3^8 states), pairs of make_random_hierarchical_machine
// machines (capped at 2 000 states so that no seed's mix is dominated by
// one network),
// a pair of orthogonal-region machines, a pair of machines with shallow
// history and deferral (depth-bounded: deferral grows the event pool), and
// a pair of machines with a choice and a junction. compile() refuses the
// last, so those run on the interpreter, as EngineMode::kAuto falls back.
//
// Set-up (timed, repeated, median reported) compiles every machine and
// assembles the networks. Once per run and outside the timed loop, every
// network is also explored on interpreter engines; each timed exploration
// must reproduce that verdict, state count and transition count. The timed
// loop then explores the networks round-robin for S seconds.
//
// With --traced every engine is wrapped in a forwarding Engine that records
// statechart dispatch/capture/restore spans (virtual calls cannot be
// interposed at link time), and the spans go to DIR/spans-<pid>.tsv.
//
// Prints one JSON object with the raw counts and times.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "spans.hpp"
#include "usage.hpp"
#include "statechart/compile.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/synthetic.hpp"
#include "support/rng.hpp"
#include "verify/explore.hpp"

namespace {

using namespace umlsoc;
namespace spans = perfbench::spans;

/// Forwards every call to the wrapped engine; dispatch, capture and restore
/// are recorded as statechart spans. can_react is forwarded unchanged.
class TracedEngine final : public statechart::Engine {
 public:
  explicit TracedEngine(std::unique_ptr<statechart::Engine> inner) : inner_(std::move(inner)) {}

  const statechart::StateMachine& machine() const override { return inner_->machine(); }
  void start() override { inner_->start(); }
  bool dispatch(statechart::Event event) override {
    spans::Scope span(spans::kDispatch);
    return inner_->dispatch(std::move(event));
  }
  void post(statechart::Event event) override { inner_->post(std::move(event)); }
  bool dispatch_error(statechart::Event event) override {
    spans::Scope span(spans::kDispatch);
    return inner_->dispatch_error(std::move(event));
  }
  void post_error(statechart::Event event) override { inner_->post_error(std::move(event)); }
  void run_to_quiescence() override { inner_->run_to_quiescence(); }
  bool can_react(const statechart::Event& event) override { return inner_->can_react(event); }
  std::size_t pending_events() const override { return inner_->pending_events(); }
  bool is_in(std::string_view state_name) const override { return inner_->is_in(state_name); }
  std::vector<std::string> active_leaf_names() const override {
    return inner_->active_leaf_names();
  }
  bool is_in_final_state() const override { return inner_->is_in_final_state(); }
  bool is_terminated() const override { return inner_->is_terminated(); }
  bool started() const override { return inner_->started(); }
  void set_trace_enabled(bool enabled) override { inner_->set_trace_enabled(enabled); }
  std::uint64_t events_processed() const override { return inner_->events_processed(); }
  std::uint64_t transitions_fired() const override { return inner_->transitions_fired(); }
  std::uint64_t errors_raised() const override { return inner_->errors_raised(); }
  std::uint64_t errors_unhandled() const override { return inner_->errors_unhandled(); }
  std::int64_t variable(const std::string& name) const override {
    return inner_->variable(name);
  }
  void set_variable(const std::string& name, std::int64_t value) override {
    inner_->set_variable(name, value);
  }
  void set_state_listener(StateListener listener) override {
    inner_->set_state_listener(std::move(listener));
  }
  statechart::InstanceSnapshot capture() const override {
    spans::Scope span(spans::kStatechartCapture);
    return inner_->capture();
  }
  void capture_into(statechart::InstanceSnapshot& out) const override {
    spans::Scope span(spans::kStatechartCapture);
    inner_->capture_into(out);
  }
  bool restore(const statechart::InstanceSnapshot& snapshot,
               support::DiagnosticSink& sink) override {
    spans::Scope span(spans::kStatechartRestore);
    return inner_->restore(snapshot, sink);
  }

 private:
  std::unique_ptr<statechart::Engine> inner_;
};

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

/// Idle -start-> Active (a cycle A0..A(n-1) on "next" with shallow history);
/// Active -pause-> Paused, which defers "next"; Paused -resume-> history.
std::unique_ptr<statechart::StateMachine> make_history_deferral(std::size_t cycle) {
  auto machine = std::make_unique<statechart::StateMachine>("HistoryDefer");
  statechart::Region& top = machine->top();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& active = top.add_state("Active");
  statechart::State& paused = top.add_state("Paused");
  paused.add_deferred("next");
  statechart::Region& inner = active.add_region("inner");
  std::vector<statechart::State*> steps;
  for (std::size_t i = 0; i < cycle; ++i) {
    steps.push_back(&inner.add_state("A" + std::to_string(i)));
  }
  inner.add_transition(inner.add_initial(), *steps.front());
  for (std::size_t i = 0; i < cycle; ++i) {
    inner.add_transition(*steps[i], *steps[(i + 1) % cycle]).set_trigger("next");
  }
  statechart::Pseudostate& history =
      inner.add_pseudostate(statechart::VertexKind::kShallowHistory, "H");
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, active).set_trigger("start");
  top.add_transition(active, paused).set_trigger("pause");
  top.add_transition(paused, history).set_trigger("resume");
  top.add_transition(active, idle).set_trigger("stop");
  return machine;
}

/// S0 -go-> choice: [n < limit] / n := n + 1 -> S1, [n >= limit] -> S2;
/// S1 -hop-> junction: [n even] -> S0, [n odd] -> S1; S2 -reset / n := 0-> S0.
std::unique_ptr<statechart::StateMachine> make_choice_junction(std::int64_t limit) {
  auto machine = std::make_unique<statechart::StateMachine>("ChoiceJunction");
  statechart::Region& top = machine->top();
  statechart::State& s0 = top.add_state("S0");
  statechart::State& s1 = top.add_state("S1");
  statechart::State& s2 = top.add_state("S2");
  statechart::Pseudostate& choice = top.add_pseudostate(statechart::VertexKind::kChoice, "C");
  statechart::Pseudostate& junction =
      top.add_pseudostate(statechart::VertexKind::kJunction, "J");
  top.add_transition(top.add_initial(), s0).set_effect("n := 0", [](statechart::ActionContext& c) {
    c.instance.set_variable("n", 0);
  });
  top.add_transition(s0, choice).set_trigger("go");
  top.add_transition(choice, s1)
      .set_guard("n < limit",
                 [limit](const statechart::ActionContext& c) {
                   return c.instance.variable("n") < limit;
                 })
      .set_effect("n := n + 1", [](statechart::ActionContext& c) {
        c.instance.set_variable("n", c.instance.variable("n") + 1);
      });
  top.add_transition(choice, s2).set_guard(
      "n >= limit",
      [limit](const statechart::ActionContext& c) { return c.instance.variable("n") >= limit; });
  top.add_transition(s1, junction).set_trigger("hop");
  top.add_transition(junction, s0).set_guard("n even", [](const statechart::ActionContext& c) {
    return c.instance.variable("n") % 2 == 0;
  });
  top.add_transition(junction, s1).set_guard("n odd", [](const statechart::ActionContext& c) {
    return c.instance.variable("n") % 2 != 0;
  });
  top.add_transition(s2, s0).set_trigger("reset").set_effect(
      "n := 0", [](statechart::ActionContext& c) { c.instance.set_variable("n", 0); });
  return machine;
}

/// One network's inputs: its machines (one per instance) and alphabets.
struct NetworkSpec {
  std::string name;
  std::vector<const statechart::StateMachine*> machines;
  std::vector<std::string> events;  ///< Alphabet offered to every instance.
  std::string never_state;          ///< never_in(instance 0, this state).
  std::uint32_t max_depth = 0xffffffffu;
  std::uint64_t max_states = 1'000'000;
};

struct Inputs {
  std::vector<std::unique_ptr<statechart::StateMachine>> machines;
  std::vector<NetworkSpec> networks;
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs inputs;
  support::Rng rng(seed);
  const auto own = [&](std::unique_ptr<statechart::StateMachine> machine) {
    inputs.machines.push_back(std::move(machine));
    return inputs.machines.back().get();
  };
  const auto add = [&](NetworkSpec spec) {
    // The seed also permutes each alphabet: BFS order and store insertion
    // order change, the reachable space does not.
    rng.shuffle(spec.events);
    inputs.networks.push_back(std::move(spec));
  };
  {
    const statechart::StateMachine* choice =
        own(make_choice_junction(rng.range(4, 6)));
    add(NetworkSpec{"choice-junction", {choice, choice}, {"go", "hop", "reset"}, "S2"});
  }
  for (int i = 0; i < 3; ++i) {
    NetworkSpec spec{"hierarchical-" + std::to_string(i), {}, {"e0", "e1", "e2", "e3"}, ""};
    for (int k = 0; k < 2; ++k) {
      spec.machines.push_back(
          own(statechart::make_random_hierarchical_machine(rng.next(), 2, 3, 4)));
    }
    spec.max_states = 500;
    add(std::move(spec));
  }
  {
    const statechart::StateMachine* history = own(make_history_deferral(4));
    NetworkSpec spec{"history-deferral", {history, history},
                     {"start", "next", "pause", "resume", "stop"}, "Paused"};
    spec.max_depth = 9;
    add(std::move(spec));
  }
  const statechart::StateMachine* handshake = own(make_handshake());
  for (std::size_t n : {std::size_t{7}, std::size_t{8}}) {
    NetworkSpec spec{"handshake-" + std::to_string(n), {}, {"req", "ack", "reset"}, "Done"};
    spec.machines.assign(n, handshake);
    add(std::move(spec));
  }
  for (const auto& [regions, states] : {std::pair{3, 4}, std::pair{4, 3}}) {
    const statechart::StateMachine* orthogonal =
        own(statechart::make_orthogonal_machine(regions, states));
    NetworkSpec spec{"orthogonal-" + std::to_string(regions) + "x" + std::to_string(states),
                     {orthogonal, orthogonal}, {"r0", "r1", "r2", "tick"}, ""};
    if (regions == 4) spec.events.push_back("r3");
    add(std::move(spec));
  }
  return inputs;
}

/// A network plus the engines it runs on.
struct Built {
  std::vector<std::unique_ptr<statechart::Engine>> engines;
  verify::Network network;
  std::vector<verify::Property> properties;
  verify::ExploreOptions options;
  std::size_t fallbacks = 0;
};

std::unique_ptr<Built> build(const NetworkSpec& spec, bool interpreted, bool traced) {
  auto built = std::make_unique<Built>();
  for (std::size_t i = 0; i < spec.machines.size(); ++i) {
    std::unique_ptr<statechart::Engine> engine;
    if (!interpreted) {
      support::DiagnosticSink sink;
      engine = statechart::compile(*spec.machines[i], sink);
    }
    if (engine == nullptr) {
      if (!interpreted) ++built->fallbacks;
      auto instance = std::make_unique<statechart::StateMachineInstance>(*spec.machines[i]);
      instance->set_trace_enabled(false);
      engine = std::move(instance);
    }
    if (traced) engine = std::make_unique<TracedEngine>(std::move(engine));
    engine->start();
    const std::string name = "i" + std::to_string(i);
    built->network.add_instance(name, *engine);
    for (const std::string& event : spec.events) {
      built->network.add_choice(name, statechart::Event(event));
    }
    built->engines.push_back(std::move(engine));
  }
  built->properties.push_back(verify::Property::no_unhandled_errors());
  built->properties.push_back(verify::Property::deadlock_free());
  if (!spec.never_state.empty()) {
    built->properties.push_back(verify::Property::never_in("i0", spec.never_state));
  }
  built->options.stop_at_first_violation = false;
  built->options.max_depth = spec.max_depth;
  built->options.max_states = spec.max_states;
  return built;
}

struct Verdict {
  int termination = -1;
  std::vector<std::string> violated;
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;

  bool operator==(const Verdict&) const = default;
};

Verdict verdict_of(const verify::ExploreResult& result) {
  Verdict verdict;
  verdict.termination = static_cast<int>(result.termination);
  for (const verify::Violation& violation : result.violations) {
    verdict.violated.push_back(violation.property);
  }
  std::sort(verdict.violated.begin(), verdict.violated.end());
  verdict.states = result.stats.states;
  verdict.transitions = result.stats.transitions;
  return verdict;
}

/// Explores `built` from its initial state and puts it back there; adds the
/// host time of the explore call alone to `explore_ns`.
verify::ExploreResult explore_once(Built& built, bool traced, std::uint64_t& explore_ns) {
  const std::uint64_t start = spans::now_ns();
  if (traced) spans::open(spans::kExplore, start);
  verify::ExploreResult result = verify::explore(built.network, built.properties, built.options);
  const std::uint64_t end = spans::now_ns();
  if (traced) spans::close(end);
  explore_ns += end - start;
  support::DiagnosticSink sink;
  built.network.restore(result.initial, sink);
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool traced = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && i + 1 < argc) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--traced") {
      traced = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: verify_bench --seed N --seconds S [--traced] [--out DIR]\n");
      return 2;
    }
  }

  const Inputs inputs = make_inputs(seed);

  // Set-up: compile every machine and assemble the networks, 101 times.
  // A reference round after each gives the host speed of this phase.
  std::vector<double> setup_s;
  std::vector<std::uint64_t> setup_rounds;
  std::vector<std::unique_ptr<Built>> networks;
  for (int repeat = 0; repeat < 101; ++repeat) {
    networks.clear();
    const std::uint64_t start = spans::now_ns();
    for (const NetworkSpec& spec : inputs.networks) {
      networks.push_back(build(spec, /*interpreted=*/false, traced));
    }
    setup_s.push_back(static_cast<double>(spans::now_ns() - start) * 1e-9);
    setup_rounds.push_back(perfbench::reference_round_ns());
  }
  std::sort(setup_rounds.begin(), setup_rounds.end());
  std::size_t fallbacks = 0;
  for (const auto& built : networks) fallbacks += built->fallbacks;

  // Reference verdicts from interpreter engines, outside the timed loop.
  std::vector<Verdict> reference;
  for (const NetworkSpec& spec : inputs.networks) {
    std::unique_ptr<Built> interpreted = build(spec, /*interpreted=*/true, false);
    std::uint64_t untimed_ns = 0;
    reference.push_back(verdict_of(explore_once(*interpreted, false, untimed_ns)));
  }

  spans::reset();
  const perfbench::CpuTimes cpu_before = perfbench::cpu_times();
  std::uint64_t explores = 0, failed = 0, explore_ns = 0;
  std::uint64_t states = 0, transitions = 0, revisits = 0;
  const std::uint64_t budget_ns = static_cast<std::uint64_t>(seconds * 1e9);
  const std::uint64_t loop_start = spans::now_ns();
  std::vector<std::uint64_t> explore_times;
  // At least 200 explorations, so that ten lie beyond the 95th percentile.
  while (spans::now_ns() - loop_start < budget_ns || explores < 200) {
    for (std::size_t n = 0; n < networks.size(); ++n) {
      const std::uint64_t before = explore_ns;
      const verify::ExploreResult result = explore_once(*networks[n], traced, explore_ns);
      explore_times.push_back(explore_ns - before);
      perfbench::maybe_calibrate();
      ++explores;
      states += result.stats.states;
      transitions += result.stats.transitions;
      revisits += result.stats.revisits;
      if (!(verdict_of(result) == reference[n])) {
        ++failed;
        std::fprintf(stderr, "verify: network %s disagrees with the interpreter reference\n",
                     inputs.networks[n].name.c_str());
      }
    }
  }
  const perfbench::CpuTimes cpu_after = perfbench::cpu_times();
  if (traced && !spans::write(out_dir)) {
    std::fprintf(stderr, "verify: cannot write spans to %s\n", out_dir.c_str());
    return 1;
  }

  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"explore_ns\": %llu, \"states\": %llu, "
              "\"transitions\": %llu, \"revisits\": %llu, \"networks\": %zu, "
              "\"fallbacks\": %zu, \"peak_rss_kb\": %llu, \"loop_user_s\": %.6f, "
              "\"loop_sys_s\": %.6f, \"cal_round_ns\": %llu, \"setup_round_ns\": %llu, "
              "\"setup_s\": [",
              static_cast<unsigned long long>(explores),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(explore_ns),
              static_cast<unsigned long long>(states),
              static_cast<unsigned long long>(transitions),
              static_cast<unsigned long long>(revisits), networks.size(), fallbacks,
              static_cast<unsigned long long>(perfbench::peak_rss_kb()),
              cpu_after.user_s - cpu_before.user_s, cpu_after.sys_s - cpu_before.sys_s,
              static_cast<unsigned long long>(perfbench::median_round_ns()),
              static_cast<unsigned long long>(setup_rounds[setup_rounds.size() / 2]));
  for (std::size_t i = 0; i < setup_s.size(); ++i) {
    std::printf("%s%.9f", i == 0 ? "" : ", ", setup_s[i]);
  }
  std::printf("], \"explore_ns_each\": [");
  for (std::size_t i = 0; i < explore_times.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ", ", static_cast<unsigned long long>(explore_times[i]));
  }
  std::printf("], \"reference\": [");
  for (std::size_t n = 0; n < reference.size(); ++n) {
    std::printf("%s{\"network\": \"%s\", \"termination\": %d, \"violations\": %zu, "
                "\"states\": %llu, \"transitions\": %llu}",
                n == 0 ? "" : ", ", inputs.networks[n].name.c_str(), reference[n].termination,
                reference[n].violated.size(),
                static_cast<unsigned long long>(reference[n].states),
                static_cast<unsigned long long>(reference[n].transitions));
  }
  std::printf("]}\n");
  return 0;
}
