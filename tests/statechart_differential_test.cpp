// Differential property tests pinning the derived execution engines to the
// hierarchical interpreter (the reference semantics):
//  * interpreter vs flattened-table executor (fired-or-not + active leaf)
//    on randomized flattenable machines — evidence that flattening, the
//    RTL-generation path, is semantics-preserving;
//  * interpreter vs AOT-compiled plan-table engine (compile.hpp), compared
//    snapshot-for-snapshot after EVERY dispatch over the synthetic model
//    zoo plus uart-style guarded/error-channel and choice/junction machines
//    — identical configurations, history memory, variables, emitted/deferred
//    events and all four counters, under ordinary and error-channel
//    dispatch — and the same state-listener calls and entry/exit/effect
//    behavior runs, in the same order, per dispatch;
//  * a copy of a compiled, never-started prototype vs a freshly compiled
//    engine, by the same lockstep harness, on the soak's UartLink machine
//    and on machines whose tables grow at run time; copies of one
//    prototype stay independent of each other and of the prototype.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>

#include "statechart/compile.hpp"
#include "statechart/flatten.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/synthetic.hpp"
#include "soak/soak.hpp"
#include "statechart/validate.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "verify/explore.hpp"
#include "verify/property.hpp"

namespace umlsoc::statechart {
namespace {

class Differential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Differential, InterpreterAgreesWithFlatExecutor) {
  const std::uint64_t seed = GetParam();
  auto machine = make_random_hierarchical_machine(seed, 3, 4, 4);

  support::DiagnosticSink validate_sink;
  ASSERT_TRUE(validate(*machine, validate_sink)) << validate_sink.str();

  support::DiagnosticSink flatten_sink;
  auto flat = flatten(*machine, flatten_sink);
  ASSERT_TRUE(flat.has_value()) << flatten_sink.str();

  StateMachineInstance interpreter(*machine);
  interpreter.set_trace_enabled(false);
  interpreter.start();
  FlatExecutor executor(*flat);

  // Initial configurations agree.
  {
    std::vector<std::string> leaves = interpreter.active_leaf_names();
    ASSERT_EQ(leaves.size(), 1u);
    EXPECT_NE(executor.current_name().find(leaves[0]), std::string::npos);
  }

  support::Rng rng(seed * 977 + 13);
  for (int step = 0; step < 500; ++step) {
    Event event{support::numbered("e", rng.below(5))};  // Incl. unknown "e4".
    bool interpreter_fired = interpreter.dispatch(event);
    bool executor_fired = executor.dispatch(event);
    ASSERT_EQ(interpreter_fired, executor_fired)
        << "seed " << seed << " step " << step << " event " << event.name;

    std::vector<std::string> leaves = interpreter.active_leaf_names();
    ASSERT_EQ(leaves.size(), 1u) << "non-flat configuration?!";
    ASSERT_NE(executor.current_name().find(leaves[0]), std::string::npos)
        << "seed " << seed << " step " << step << ": interpreter in " << leaves[0]
        << ", executor in " << executor.current_name();
  }
  EXPECT_EQ(interpreter.transitions_fired(), executor.transitions_fired());
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 21, 34, 55, 89,
                                           144, 233));

// --- Interpreter vs compiled plan-table engine --------------------------------------

void expect_snapshots_equal(const InstanceSnapshot& reference, const InstanceSnapshot& compiled,
                            const std::string& where) {
  EXPECT_EQ(reference.started, compiled.started) << where;
  EXPECT_EQ(reference.terminated, compiled.terminated) << where;
  EXPECT_EQ(reference.active_states, compiled.active_states) << where;
  EXPECT_EQ(reference.active_finals, compiled.active_finals) << where;
  EXPECT_EQ(reference.shallow_history, compiled.shallow_history) << where;
  EXPECT_EQ(reference.deep_history, compiled.deep_history) << where;
  EXPECT_EQ(reference.variables, compiled.variables) << where;
  EXPECT_EQ(reference.queue.size(), compiled.queue.size()) << where;
  EXPECT_EQ(reference.deferred.size(), compiled.deferred.size()) << where;
  EXPECT_EQ(reference.events_processed, compiled.events_processed) << where;
  EXPECT_EQ(reference.transitions_fired, compiled.transitions_fired) << where;
  EXPECT_EQ(reference.errors_raised, compiled.errors_raised) << where;
  EXPECT_EQ(reference.errors_unhandled, compiled.errors_unhandled) << where;
  ASSERT_EQ(reference, compiled) << where;
}

/// One dispatch of a lockstep stream.
struct StreamEntry {
  Event event;
  bool error = false;
};

/// Entry, exit and effect runs per engine, in order: instrument() wraps
/// every behavior of a machine (empty ones included) to log into the list
/// of the engine that runs it.
using BehaviorLogs = std::map<const Engine*, std::vector<std::string>>;

Behavior logging(const Behavior& behavior, std::string label,
                 const std::shared_ptr<BehaviorLogs>& logs) {
  return Behavior{behavior.text, [logs, label = std::move(label), fn = behavior.fn](
                                     ActionContext& context) {
                    (*logs)[&context.instance].push_back(label);
                    if (fn != nullptr) fn(context);
                  }};
}

void instrument(Region& region, const std::shared_ptr<BehaviorLogs>& logs) {
  for (const auto& transition : region.transitions()) {
    transition->set_effect(logging(transition->effect(), "effect:" + transition->str(), logs));
  }
  for (const auto& vertex : region.vertices()) {
    auto* state = dynamic_cast<State*>(vertex.get());
    if (state == nullptr) continue;
    state->set_entry(logging(state->entry(), "entry:" + state->name(), logs));
    state->set_exit(logging(state->exit_behavior(), "exit:" + state->name(), logs));
    for (const auto& subregion : state->regions()) instrument(*subregion, logs);
  }
}

using EngineFactory = std::function<std::unique_ptr<Engine>(const StateMachine&)>;

std::unique_ptr<Engine> interpreted(const StateMachine& machine) {
  auto engine = std::make_unique<StateMachineInstance>(machine);
  engine->set_trace_enabled(false);
  return engine;
}

std::unique_ptr<Engine> freshly_compiled(const StateMachine& machine) {
  support::DiagnosticSink sink;
  return compile(machine, sink);
}

/// Runs two engines over `machine` in lockstep — by default the reference
/// interpreter and a freshly compiled engine: every event in `stream` is
/// dispatched to both (through the error channel when `error` is set).
/// After every single dispatch the full snapshots must match, and so must
/// the state-listener calls and the behavior runs (instrument() wraps the
/// machine's behaviors), in order.
void run_lockstep(StateMachine& machine, const std::vector<StreamEntry>& stream,
                  const EngineFactory& make_reference = interpreted,
                  const EngineFactory& make_subject = freshly_compiled) {
  auto logs = std::make_shared<BehaviorLogs>();
  instrument(machine.top(), logs);
  std::vector<std::string> reference_calls;
  std::vector<std::string> subject_calls;
  const std::unique_ptr<Engine> reference = make_reference(machine);
  const std::unique_ptr<Engine> subject = make_subject(machine);
  ASSERT_NE(reference, nullptr);
  ASSERT_NE(subject, nullptr);

  const auto listen = [](std::vector<std::string>& calls) {
    return [&calls](const State& state, bool entered) {
      calls.push_back((entered ? "+" : "-") + state.name());
    };
  };
  reference->set_state_listener(listen(reference_calls));
  subject->set_state_listener(listen(subject_calls));
  std::vector<std::string>& reference_runs = (*logs)[reference.get()];
  std::vector<std::string>& subject_runs = (*logs)[subject.get()];
  const auto expect_same_behavior = [&](const std::string& where) {
    EXPECT_EQ(reference_calls, subject_calls) << where << ": state listener calls";
    EXPECT_EQ(reference_runs, subject_runs) << where << ": behavior runs";
    reference_calls.clear();
    subject_calls.clear();
    reference_runs.clear();
    subject_runs.clear();
  };

  reference->start();
  subject->start();
  expect_snapshots_equal(reference->capture(), subject->capture(),
                         machine.name() + " after start");
  expect_same_behavior(machine.name() + " after start");

  for (std::size_t step = 0; step < stream.size(); ++step) {
    const StreamEntry& entry = stream[step];
    bool reference_fired = false;
    bool subject_fired = false;
    if (entry.error) {
      reference_fired = reference->dispatch_error(entry.event);
      subject_fired = subject->dispatch_error(entry.event);
    } else {
      reference_fired = reference->dispatch(entry.event);
      subject_fired = subject->dispatch(entry.event);
    }
    const std::string where = machine.name() + " step " + std::to_string(step) + " event " +
                              entry.event.name + (entry.error ? " (error channel)" : "");
    ASSERT_EQ(reference_fired, subject_fired) << where;
    expect_snapshots_equal(reference->capture(), subject->capture(), where);
    expect_same_behavior(where);
  }
}

std::vector<StreamEntry> random_stream(std::uint64_t seed,
                                       const std::vector<std::string>& alphabet,
                                       std::size_t length, double error_chance = 0.0) {
  support::Rng rng(seed);
  std::vector<StreamEntry> stream;
  stream.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    StreamEntry entry;
    entry.event = Event{alphabet[static_cast<std::size_t>(rng.below(alphabet.size()))],
                        static_cast<std::int64_t>(rng.below(8))};
    entry.error = error_chance > 0.0 && rng.chance(error_chance);
    stream.push_back(std::move(entry));
  }
  return stream;
}

TEST(CompiledDifferential, SyntheticZooChain) {
  auto machine = make_chain_machine(16);
  run_lockstep(*machine, random_stream(11, {"e", "nope"}, 400));
}

TEST(CompiledDifferential, SyntheticZooNested) {
  for (const auto& [depth, width] : {std::pair<std::size_t, std::size_t>{2, 2}, {4, 3}, {8, 4}}) {
    auto machine = make_nested_machine(depth, width);
    run_lockstep(*machine, random_stream(depth * 31 + width, {"step", "reset", "junk"}, 400));
  }
}

TEST(CompiledDifferential, SyntheticZooOrthogonal) {
  for (const auto& [regions, states] : {std::pair<std::size_t, std::size_t>{2, 2}, {3, 4}}) {
    auto machine = make_orthogonal_machine(regions, states);
    run_lockstep(*machine,
                 random_stream(regions * 7 + states, {"tick", "r0", "r1", "r2", "zz"}, 400));
  }
}

class CompiledRandomZoo : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CompiledRandomZoo, AgreesWithInterpreter) {
  const std::uint64_t seed = GetParam();
  auto machine = make_random_hierarchical_machine(seed, 3, 4, 4);
  support::DiagnosticSink validate_sink;
  ASSERT_TRUE(validate(*machine, validate_sink)) << validate_sink.str();
  run_lockstep(*machine, random_stream(seed * 977 + 13, {"e0", "e1", "e2", "e3", "e4"}, 500));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompiledRandomZoo,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 21, 34, 55, 89,
                                           144, 233));

// --- Feature machines: history, deferral, terminate, error channel -----------------

/// Composite with shallow history re-entry (compiled engine's dynamic-entry
/// fallback) plus a deep-history sibling over a nested region.
std::unique_ptr<StateMachine> make_history_machine() {
  auto machine = std::make_unique<StateMachine>("history");
  Region& top = machine->top();
  Pseudostate& initial = top.add_initial();
  State& off = top.add_state("Off");
  State& on = top.add_state("On");
  top.add_transition(initial, off);

  Region& run = on.add_region("run");
  Pseudostate& run_initial = run.add_initial();
  Pseudostate& shallow = run.add_pseudostate(VertexKind::kShallowHistory, "H");
  State& a = run.add_state("A");
  State& b = run.add_state("B");
  State& c = run.add_state("C");
  run.add_transition(run_initial, a);
  run.add_transition(a, b).set_trigger("adv");
  run.add_transition(b, c).set_trigger("adv");
  run.add_transition(c, a).set_trigger("adv");

  // Deep variant: C itself is composite, so deep history restores leaves.
  Region& inner = c.add_region("cr");
  Pseudostate& inner_initial = inner.add_initial();
  State& c1 = inner.add_state("C1");
  State& c2 = inner.add_state("C2");
  inner.add_transition(inner_initial, c1);
  inner.add_transition(c1, c2).set_trigger("inner");
  inner.add_transition(c2, c1).set_trigger("inner");

  Pseudostate& deep = run.add_pseudostate(VertexKind::kDeepHistory, "Hs");
  State& paused = top.add_state("Paused");
  top.add_transition(off, shallow).set_trigger("on");    // Enter via shallow history.
  top.add_transition(on, off).set_trigger("off");
  top.add_transition(on, paused).set_trigger("pause");
  top.add_transition(paused, deep).set_trigger("resume");  // Enter via deep history.
  return machine;
}

TEST(CompiledDifferential, ShallowAndDeepHistory) {
  auto machine = make_history_machine();
  run_lockstep(*machine, random_stream(42, {"on", "off", "adv", "inner", "pause", "resume"},
                                       600));
}

/// Deferred events: Busy defers "req"; returning to Idle recalls them.
std::unique_ptr<StateMachine> make_defer_machine() {
  auto machine = std::make_unique<StateMachine>("deferred");
  Region& top = machine->top();
  Pseudostate& initial = top.add_initial();
  State& idle = top.add_state("Idle");
  State& busy = top.add_state("Busy");
  State& work = top.add_state("Work");
  top.add_transition(initial, idle);
  busy.add_deferred("req");
  top.add_transition(idle, work).set_trigger("req");
  top.add_transition(work, idle).set_trigger("done");
  top.add_transition(idle, busy).set_trigger("lock");
  top.add_transition(busy, idle).set_trigger("unlock");
  return machine;
}

TEST(CompiledDifferential, DeferredEvents) {
  auto machine = make_defer_machine();
  run_lockstep(*machine, random_stream(7, {"req", "done", "lock", "unlock"}, 600));
}

/// Terminate pseudostate: "kill" from inside a composite ends the machine.
std::unique_ptr<StateMachine> make_terminate_machine() {
  auto machine = std::make_unique<StateMachine>("terminating");
  Region& top = machine->top();
  Pseudostate& initial = top.add_initial();
  State& running = top.add_state("Running");
  Pseudostate& terminate = top.add_pseudostate(VertexKind::kTerminate, "X");
  top.add_transition(initial, running);

  Region& inner = running.add_region("r");
  Pseudostate& inner_initial = inner.add_initial();
  State& a = inner.add_state("a");
  State& b = inner.add_state("b");
  inner.add_transition(inner_initial, a);
  inner.add_transition(a, b).set_trigger("flip");
  inner.add_transition(b, a).set_trigger("flip");

  top.add_transition(running, terminate).set_trigger("kill");
  return machine;
}

TEST(CompiledDifferential, TerminatePseudostate) {
  auto machine = make_terminate_machine();
  // Includes dispatches after termination (both must be dead no-ops).
  run_lockstep(*machine, random_stream(3, {"flip", "kill", "flip"}, 200));
}

/// uart_soc-style machine: guarded retries over an engine variable, an
/// error-event channel into a Fault state, recovery back to Idle. Guards
/// and effects read/write through ActionContext, so they are engine-blind.
std::unique_ptr<StateMachine> make_uart_style_machine() {
  auto machine = std::make_unique<StateMachine>("uartlink");
  Region& top = machine->top();
  Pseudostate& initial = top.add_initial();
  State& idle = top.add_state("Idle");
  State& sending = top.add_state("Sending");
  State& fault = top.add_state("Fault");
  FinalState& done = top.add_final("done");
  top.add_transition(initial, idle);

  top.add_transition(idle, sending)
      .set_trigger("tx")
      .set_effect("retries = 0", [](ActionContext& ctx) { ctx.instance.set_variable("retries", 0); });
  top.add_transition(sending, idle).set_trigger("ack");
  top.add_transition(sending, sending)
      .set_trigger("nak")
      .set_guard("retries < 3",
                 [](const ActionContext& ctx) { return ctx.instance.variable("retries") < 3; })
      .set_effect("retries++", [](ActionContext& ctx) {
        ctx.instance.set_variable("retries", ctx.instance.variable("retries") + 1);
      });
  top.add_transition(sending, fault)
      .set_trigger("nak")
      .set_guard("retries >= 3",
                 [](const ActionContext& ctx) { return ctx.instance.variable("retries") >= 3; });
  top.add_transition(sending, fault).set_trigger("bus_error");
  top.add_transition(idle, fault).set_trigger("bus_error");
  top.add_transition(fault, idle).set_trigger("reset");
  top.add_transition(idle, done).set_trigger("shutdown");
  return machine;
}

TEST(CompiledDifferential, UartStyleGuardsAndErrorChannel) {
  auto machine = make_uart_style_machine();
  // ~20% of events arrive through the error channel; "bus_error" is only
  // handled in Idle/Sending, so unhandled-error counting is exercised too.
  run_lockstep(*machine,
               random_stream(99, {"tx", "ack", "nak", "bus_error", "reset", "noise"}, 600,
                             0.2));
}

/// A top-level state whose "dive" transition targets the innermost leaf of
/// a `depth`-level nest of composites: the entry chain is `depth` long.
std::unique_ptr<StateMachine> make_deep_target_machine(std::size_t depth) {
  auto machine = std::make_unique<StateMachine>("deep" + std::to_string(depth));
  Region& top = machine->top();
  State& start = top.add_state("Start");
  top.add_transition(top.add_initial(), start);
  Region* region = &top;
  State* level = nullptr;
  for (std::size_t i = 0; i < depth; ++i) {
    if (level != nullptr) region = &level->add_region(support::numbered("r", i));
    level = &region->add_state(support::numbered("L", i));
    if (region != &top) region->add_transition(region->add_initial(), *level);
  }
  top.add_transition(start, *level).set_trigger("dive");
  top.add_transition(*level, start).set_trigger("surface");
  return machine;
}

TEST(CompiledDifferential, DeepTargetChain) {
  for (const std::size_t depth : {std::size_t{66}, std::size_t{70}}) {
    auto machine = make_deep_target_machine(depth);
    run_lockstep(*machine, random_stream(depth, {"dive", "surface"}, 40));

    support::DiagnosticSink sink;
    auto compiled = compile(*machine, sink);
    ASSERT_NE(compiled, nullptr) << sink.str();
    compiled->start();
    ASSERT_TRUE(compiled->dispatch(Event{"dive"}));
    EXPECT_EQ(compiled->capture().active_states.size(), depth);
  }
}

// --- Choice and junction machines (compiled through the live walk) --------------

/// The verifier benchmark's choice/junction pair: S0 -go-> choice:
/// [n < limit] / n := n + 1 -> S1, [n >= limit] -> S2; S1 -hop-> junction:
/// [n even] -> S0, [n odd] -> S1; S2 -reset / n := 0-> S0.
std::unique_ptr<StateMachine> make_choice_junction_machine(std::int64_t limit) {
  auto machine = std::make_unique<StateMachine>("ChoiceJunction");
  Region& top = machine->top();
  State& s0 = top.add_state("S0");
  State& s1 = top.add_state("S1");
  State& s2 = top.add_state("S2");
  Pseudostate& choice = top.add_pseudostate(VertexKind::kChoice, "C");
  Pseudostate& junction = top.add_pseudostate(VertexKind::kJunction, "J");
  top.add_transition(top.add_initial(), s0).set_effect("n := 0", [](ActionContext& c) {
    c.instance.set_variable("n", 0);
  });
  top.add_transition(s0, choice).set_trigger("go");
  top.add_transition(choice, s1)
      .set_guard("n < limit",
                 [limit](const ActionContext& c) { return c.instance.variable("n") < limit; })
      .set_effect("n := n + 1", [](ActionContext& c) {
        c.instance.set_variable("n", c.instance.variable("n") + 1);
      });
  top.add_transition(choice, s2).set_guard(
      "n >= limit", [limit](const ActionContext& c) { return c.instance.variable("n") >= limit; });
  top.add_transition(s1, junction).set_trigger("hop");
  top.add_transition(junction, s0).set_guard("n even", [](const ActionContext& c) {
    return c.instance.variable("n") % 2 == 0;
  });
  top.add_transition(junction, s1).set_guard("n odd", [](const ActionContext& c) {
    return c.instance.variable("n") % 2 != 0;
  });
  top.add_transition(s2, s0).set_trigger("reset").set_effect(
      "n := 0", [](ActionContext& c) { c.instance.set_variable("n", 0); });
  return machine;
}

TEST(CompiledDifferential, ChoiceJunctionNetworkShape) {
  for (const std::int64_t limit : {4, 5, 6}) {
    auto machine = make_choice_junction_machine(limit);
    run_lockstep(*machine, random_stream(static_cast<std::uint64_t>(limit),
                                         {"go", "hop", "reset", "noise"}, 400, 0.1));
  }
}

/// The exec tests' choice shapes in one machine: a choice routed by event
/// data with an else branch, a choice whose unguarded branch always wins,
/// a junction chain with segment effects, and a choice inside a composite
/// that can leave it (its path reaches beyond the transition's claim).
std::unique_ptr<StateMachine> make_choice_shapes_machine() {
  auto machine = std::make_unique<StateMachine>("choices");
  Region& top = machine->top();
  State& a = top.add_state("A");
  State& low = top.add_state("Low");
  State& high = top.add_state("High");
  State& p = top.add_state("P");
  top.add_transition(top.add_initial(), a);
  Pseudostate& by_data = top.add_pseudostate(VertexKind::kChoice, "byData");
  top.add_transition(a, by_data).set_trigger("val");
  top.add_transition(by_data, high).set_guard("data>=4", [](const ActionContext& c) {
    return c.event != nullptr && c.event->data >= 4;
  });
  top.add_transition(by_data, low).set_guard(Guard{"else", nullptr});
  Pseudostate& first_open = top.add_pseudostate(VertexKind::kChoice, "firstOpen");
  top.add_transition(low, first_open).set_trigger("go");
  top.add_transition(first_open, a);
  top.add_transition(first_open, high).set_guard(Guard{"else", nullptr});
  Pseudostate& chain = top.add_pseudostate(VertexKind::kJunction, "chain");
  top.add_transition(high, chain).set_trigger("go").set_effect("seg1", [](ActionContext& c) {
    c.instance.set_variable("segs", (c.instance.variable("segs") * 10 + 1) % 1000000);
  });
  top.add_transition(chain, p).set_effect("seg2", [](ActionContext& c) {
    c.instance.set_variable("segs", (c.instance.variable("segs") * 10 + 2) % 1000000);
  });

  // P: two orthogonal regions; r1's choice either stays in r1 or leaves P.
  Region& r1 = p.add_region("r1");
  State& x1 = r1.add_state("X1");
  State& x2 = r1.add_state("X2");
  r1.add_transition(r1.add_initial(), x1);
  Pseudostate& escape = r1.add_pseudostate(VertexKind::kChoice, "escape");
  r1.add_transition(x1, escape).set_trigger("tick");
  r1.add_transition(escape, a).set_guard("data odd", [](const ActionContext& c) {
    return c.event != nullptr && c.event->data % 2 != 0;
  });
  r1.add_transition(escape, x2).set_guard(Guard{"else", nullptr});
  r1.add_transition(x2, x1).set_trigger("tick");
  Region& r2 = p.add_region("r2");
  State& y1 = r2.add_state("Y1");
  State& y2 = r2.add_state("Y2");
  r2.add_transition(r2.add_initial(), y1);
  r2.add_transition(y1, y2).set_trigger("tick");
  r2.add_transition(y2, y1).set_trigger("tick");
  return machine;
}

TEST(CompiledDifferential, ExecTestChoiceShapes) {
  auto machine = make_choice_shapes_machine();
  run_lockstep(*machine, random_stream(17, {"val", "go", "tick", "noise"}, 600, 0.1));
}

/// A transition into an initial pseudostate enters its region's owner and
/// default-enters the region, as the interpreter does.
TEST(CompiledDifferential, TransitionIntoInitialPseudostate) {
  auto machine = std::make_unique<StateMachine>("into-initial");
  Region& top = machine->top();
  State& idle = top.add_state("Idle");
  State& busy = top.add_state("Busy");
  top.add_transition(top.add_initial(), idle);
  Region& inner = busy.add_region("inner");
  Pseudostate& inner_initial = inner.add_initial();
  State& b1 = inner.add_state("B1");
  State& b2 = inner.add_state("B2");
  inner.add_transition(inner_initial, b1);
  inner.add_transition(b1, b2).set_trigger("next");
  top.add_transition(idle, inner_initial).set_trigger("go");
  top.add_transition(busy, idle).set_trigger("stop");
  run_lockstep(*machine, random_stream(5, {"go", "next", "stop"}, 200));
}

TEST(CompiledDifferential, SnapshotsInterchangeableBetweenEngines) {
  auto machine = make_history_machine();
  support::DiagnosticSink sink;
  auto compiled = compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();

  StateMachineInstance interpreter(*machine);
  interpreter.set_trace_enabled(false);
  interpreter.start();
  for (const char* name : {"on", "adv", "adv", "inner", "pause"}) {
    interpreter.dispatch(Event{name});
  }

  // Interpreter snapshot restores into the compiled engine and vice versa;
  // both continue identically from the restored point.
  ASSERT_TRUE(compiled->restore(interpreter.capture(), sink)) << sink.str();
  expect_snapshots_equal(interpreter.capture(), compiled->capture(), "after cross-restore");
  for (const char* name : {"resume", "inner", "off", "on"}) {
    const Event event{name};
    ASSERT_EQ(interpreter.dispatch(event), compiled->dispatch(event)) << name;
    expect_snapshots_equal(interpreter.capture(), compiled->capture(),
                           std::string("continuing after ") + name);
  }

  StateMachineInstance second(*machine);
  second.set_trace_enabled(false);
  ASSERT_TRUE(second.restore(compiled->capture(), sink)) << sink.str();
  expect_snapshots_equal(second.capture(), compiled->capture(), "round trip into interpreter");
}

// Verifier counterexamples replay identically on both engines: explore a
// uart-style machine to a property violation, then drive the recorded event
// path from result.initial through a fresh interpreter and a fresh compiled
// machine in lockstep, ending in the same (violating) configuration.
TEST(CompiledDifferential, ReplayedCounterexamplesMatchAcrossEngines) {
  auto machine = make_uart_style_machine();

  StateMachineInstance explored(*machine);
  explored.set_trace_enabled(false);
  explored.start();
  verify::Network network;
  network.add_instance("uart", explored);
  network.add_choice("uart", Event("tx"));
  network.add_choice("uart", Event("nak"));
  network.add_choice("uart", Event("reset"));
  network.add_choice("uart", Event("bus_error"), /*is_error=*/true);

  std::vector<verify::Property> properties;
  properties.push_back(verify::Property::never_in("uart", "Fault"));

  verify::ExploreResult result = verify::explore(network, properties);
  ASSERT_EQ(result.termination, verify::ExploreResult::Termination::kViolation);
  ASSERT_FALSE(result.violations.empty());
  const verify::Violation& violation = result.violations.front();
  ASSERT_FALSE(violation.path.empty());

  support::DiagnosticSink sink;
  auto compiled = compile(*machine, sink);
  ASSERT_NE(compiled, nullptr) << sink.str();
  StateMachineInstance interpreter(*machine);
  interpreter.set_trace_enabled(false);
  ASSERT_EQ(result.initial.size(), 1u);
  ASSERT_TRUE(interpreter.restore(result.initial.front(), sink)) << sink.str();
  ASSERT_TRUE(compiled->restore(result.initial.front(), sink)) << sink.str();
  expect_snapshots_equal(interpreter.capture(), compiled->capture(), "at result.initial");

  for (std::size_t i = 0; i < violation.path.size(); ++i) {
    const verify::EventChoice& choice = violation.path[i];
    bool fired_reference = false;
    bool fired_compiled = false;
    if (choice.is_error) {
      fired_reference = interpreter.dispatch_error(choice.event);
      fired_compiled = compiled->dispatch_error(choice.event);
    } else {
      fired_reference = interpreter.dispatch(choice.event);
      fired_compiled = compiled->dispatch(choice.event);
    }
    EXPECT_EQ(fired_reference, fired_compiled) << "replay step " << i;
    expect_snapshots_equal(interpreter.capture(), compiled->capture(),
                           "replay step " + std::to_string(i) + " of " +
                               std::to_string(violation.path.size()));
  }
  // Both engines land on the violating state the verifier reported.
  EXPECT_TRUE(interpreter.is_in("Fault"));
  EXPECT_TRUE(compiled->is_in("Fault"));
}

// --- Copies of one compiled prototype -----------------------------------------------

/// A copy of a compiled, never-started prototype: how each soak rig takes
/// its link engine from the bundle's program.
std::unique_ptr<Engine> copied_from_prototype(const StateMachine& machine) {
  support::DiagnosticSink sink;
  const std::unique_ptr<CompiledMachine> prototype = compile(machine, sink);
  return std::make_unique<CompiledMachine>(*prototype);
}

TEST(CompiledCopy, UartLinkRunsInLockstepWithFreshCompile) {
  // The rig raises every supervision signal on the error channel; "noise"
  // is no trigger of the machine, so its plans are built at run time.
  const std::vector<std::string> signals = {
      "breaker_open",   "breaker_closed",  "watchdog_trip",       "unit_restarted",
      "restart_failed", "supervisor_escalate", "noise"};
  StateMachine live("UartLink");
  soak::build_link_machine(live);
  run_lockstep(live, random_stream(20, signals, 400, 0.9), freshly_compiled,
               copied_from_prototype);

  // With the give-up signal, runs end in Dead, which absorbs everything.
  std::vector<std::string> with_give_up = signals;
  with_give_up.push_back("supervisor_give_up");
  StateMachine dying("UartLink");
  soak::build_link_machine(dying);
  run_lockstep(dying, random_stream(21, with_give_up, 200, 0.9), freshly_compiled,
               copied_from_prototype);
}

TEST(CompiledCopy, LazilyExtendedMachinesRunInLockstepWithFreshCompile) {
  // Guards, history entries, deferral and choice paths lie outside the
  // compile-time seeding, as do event names that trigger nothing: a copy
  // builds those plans in its own tables as it runs.
  auto uart = make_uart_style_machine();
  run_lockstep(*uart, random_stream(99, {"tx", "ack", "nak", "bus_error", "reset", "noise"},
                                    600, 0.2),
               freshly_compiled, copied_from_prototype);
  auto history = make_history_machine();
  run_lockstep(*history,
               random_stream(42, {"on", "off", "adv", "inner", "pause", "resume", "noise"}, 600),
               freshly_compiled, copied_from_prototype);
  auto defer = make_defer_machine();
  run_lockstep(*defer, random_stream(7, {"req", "done", "lock", "unlock", "noise"}, 600),
               freshly_compiled, copied_from_prototype);
  auto choices = make_choice_shapes_machine();
  run_lockstep(*choices, random_stream(17, {"val", "go", "tick", "noise"}, 600, 0.1),
               freshly_compiled, copied_from_prototype);
  for (const std::uint64_t seed : {1, 5, 21, 144}) {
    auto random = make_random_hierarchical_machine(seed, 3, 4, 4);
    run_lockstep(*random,
                 random_stream(seed * 977 + 13, {"e0", "e1", "e2", "e3", "e4", "noise"}, 500),
                 freshly_compiled, copied_from_prototype);
  }
}

TEST(CompiledCopy, DispatchIntoOneCopyLeavesAnotherUnchanged) {
  auto machine = make_history_machine();
  support::DiagnosticSink sink;
  const std::unique_ptr<CompiledMachine> prototype = compile(*machine, sink);
  const std::size_t seeded_plans = prototype->plan_table().size();
  const std::size_t seeded_configs = prototype->configuration_count();

  CompiledMachine busy(*prototype);
  CompiledMachine idle(*prototype);
  busy.start();
  idle.start();
  const InstanceSnapshot idle_before = idle.capture();
  const std::uint32_t idle_config = idle.current_configuration();
  const std::size_t idle_plans = idle.plan_table().size();
  const std::size_t idle_configs = idle.configuration_count();

  for (const StreamEntry& entry : random_stream(
           42, {"on", "off", "adv", "inner", "pause", "resume", "noise"}, 300)) {
    (void)busy.dispatch(entry.event);
  }
  ASSERT_GT(busy.transitions_fired(), 0u);
  EXPECT_GT(busy.plan_table().size(), idle_plans) << "the busy copy extended its tables";

  EXPECT_EQ(idle.capture(), idle_before);
  EXPECT_EQ(idle.current_configuration(), idle_config);
  EXPECT_EQ(idle.events_processed(), 0u);
  EXPECT_EQ(idle.transitions_fired(), idle_before.transitions_fired);
  EXPECT_EQ(idle.plan_table().size(), idle_plans);
  EXPECT_EQ(idle.configuration_count(), idle_configs);

  EXPECT_FALSE(prototype->started());
  EXPECT_EQ(prototype->plan_table().size(), seeded_plans);
  EXPECT_EQ(prototype->configuration_count(), seeded_configs);
}

}  // namespace
}  // namespace umlsoc::statechart
