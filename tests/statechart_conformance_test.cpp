// Spec-clause conformance cases: one small machine per UML 2 state-machine
// rule, run through both engines (the reference interpreter and the
// AOT-compiled stepper) via the common Engine interface.
//
// The expectations are an oracle independent of the engines' shared
// semantics core: every expected entry/exit/effect sequence below is
// written by hand from the cited clause, and the observed sequence is
// recorded by the behaviors themselves (not from the interpreter trace and
// not from either engine's tables). Clauses cite the UML 2.5.1
// specification, section 14.2.3 (Behavior StateMachines, Semantics), by
// heading.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "statechart/compile.hpp"
#include "statechart/interpreter.hpp"

namespace umlsoc::statechart {
namespace {

using Log = std::vector<std::string>;

/// Behavior that appends `label` to `log` when it runs.
Behavior logs(Log& log, std::string label) {
  return Behavior{label, [&log, label](ActionContext&) { log.push_back(label); }};
}

/// Entry and exit behaviors that log "entry:<name>" / "exit:<name>".
State& logged(State& state, Log& log) {
  state.set_entry(logs(log, "entry:" + state.name()));
  state.set_exit(logs(log, "exit:" + state.name()));
  return state;
}

/// Runs `body` once per engine over `machine`, each on a fresh engine and
/// an empty log.
void on_each_engine(const StateMachine& machine, Log& log,
                    const std::function<void(Engine&)>& body) {
  {
    SCOPED_TRACE("interpreter");
    log.clear();
    StateMachineInstance interpreter(machine);
    body(interpreter);
  }
  {
    SCOPED_TRACE("compiled");
    log.clear();
    support::DiagnosticSink sink;
    std::unique_ptr<CompiledMachine> compiled = compile(machine, sink);
    ASSERT_NE(compiled, nullptr) << sink.str();
    body(*compiled);
  }
}

// "Transition kinds relative to source": kind = internal is a
// self-transition whose State is never exited nor re-entered, so no exit or
// entry Behaviors run — also when the source is a simple state (SCXML
// instead exits a non-compound source of an "internal" transition).
TEST(Conformance, InternalTransitionRunsOnlyItsEffect) {
  Log log;
  StateMachine machine("internal");
  Region& top = machine.top();
  State& a = logged(top.add_state("A"), log);
  top.add_transition(top.add_initial(), a);
  top.add_transition(a, a).set_trigger("poke").set_internal(true).set_effect(
      logs(log, "effect:poke"));
  top.add_transition(a, a).set_trigger("kick").set_effect(logs(log, "effect:kick"));

  on_each_engine(machine, log, [&](Engine& engine) {
    engine.start();
    EXPECT_EQ(log, (Log{"entry:A"}));
    log.clear();
    EXPECT_TRUE(engine.dispatch(Event{"poke"}));
    EXPECT_EQ(log, (Log{"effect:poke"}));
    log.clear();
    // The external self-transition, by contrast, exits and re-enters A.
    EXPECT_TRUE(engine.dispatch(Event{"kick"}));
    EXPECT_EQ(log, (Log{"exit:A", "effect:kick", "entry:A"}));
  });
}

// "Exiting a State": the innermost active states exit first and a
// composite exits after all of its substates; states of orthogonal regions
// at the same depth exit in region (document) order.
TEST(Conformance, ExitsInnermostFirstWithDocumentOrderTies) {
  Log log;
  StateMachine machine("exits");
  Region& top = machine.top();
  State& p = logged(top.add_state("P"), log);
  State& out = logged(top.add_state("Out"), log);
  top.add_transition(top.add_initial(), p);
  Region& r1 = p.add_region("r1");
  State& a1 = logged(r1.add_state("A1"), log);
  r1.add_transition(r1.add_initial(), a1);
  Region& a1_region = a1.add_region("a1r");
  State& a11 = logged(a1_region.add_state("A11"), log);
  a1_region.add_transition(a1_region.add_initial(), a11);
  Region& r2 = p.add_region("r2");
  State& b1 = logged(r2.add_state("B1"), log);
  r2.add_transition(r2.add_initial(), b1);
  top.add_transition(p, out).set_trigger("leave").set_effect(logs(log, "effect:leave"));

  on_each_engine(machine, log, [&](Engine& engine) {
    engine.start();
    log.clear();
    EXPECT_TRUE(engine.dispatch(Event{"leave"}));
    EXPECT_EQ(log, (Log{"exit:A11", "exit:A1", "exit:B1", "exit:P", "effect:leave",
                        "entry:Out"}));
  });
}

// "Entering a State": a composite is entered before its substates (entry
// Behaviors run outermost first), and each region without an explicit
// target is default-entered through its initial Pseudostate, whose
// transition effect runs before the default target's entry. Regions are
// entered in declaration order, each completely before the next.
TEST(Conformance, EntersOutermostFirstWithRegionOrderDefaults) {
  Log log;
  StateMachine machine("entries");
  Region& top = machine.top();
  State& out = logged(top.add_state("Out"), log);
  State& p = logged(top.add_state("P"), log);
  top.add_transition(top.add_initial(), out);
  Region& r1 = p.add_region("r1");
  State& a1 = logged(r1.add_state("A1"), log);
  r1.add_transition(r1.add_initial(), a1).set_effect(logs(log, "init:r1"));
  Region& a1_region = a1.add_region("a1r");
  State& a11 = logged(a1_region.add_state("A11"), log);
  a1_region.add_transition(a1_region.add_initial(), a11).set_effect(logs(log, "init:a1r"));
  Region& r2 = p.add_region("r2");
  State& b1 = logged(r2.add_state("B1"), log);
  r2.add_transition(r2.add_initial(), b1).set_effect(logs(log, "init:r2"));
  top.add_transition(out, p).set_trigger("enter").set_effect(logs(log, "effect:enter"));

  on_each_engine(machine, log, [&](Engine& engine) {
    engine.start();
    EXPECT_EQ(log, (Log{"entry:Out"}));
    log.clear();
    EXPECT_TRUE(engine.dispatch(Event{"enter"}));
    EXPECT_EQ(log, (Log{"exit:Out", "effect:enter", "entry:P", "init:r1", "entry:A1",
                        "init:a1r", "entry:A11", "init:r2", "entry:B1"}));
  });
}

/// Off -on-> history pseudostate of On's region "run" (A, and composite B
/// with B1 -next-> B2); On -off-> Off. The history vertex's own outgoing
/// transition (to B) is its default.
struct HistoryMachine {
  Log log;
  StateMachine machine{"history"};

  explicit HistoryMachine(VertexKind kind) {
    Region& top = machine.top();
    State& off = logged(top.add_state("Off"), log);
    State& on = logged(top.add_state("On"), log);
    top.add_transition(top.add_initial(), off);
    Region& run = on.add_region("run");
    State& a = logged(run.add_state("A"), log);
    State& b = logged(run.add_state("B"), log);
    run.add_transition(run.add_initial(), a);
    Region& inner = b.add_region("inner");
    State& b1 = logged(inner.add_state("B1"), log);
    State& b2 = logged(inner.add_state("B2"), log);
    inner.add_transition(inner.add_initial(), b1);
    inner.add_transition(b1, b2).set_trigger("next");
    Pseudostate& history = run.add_pseudostate(kind, "H");
    run.add_transition(history, b).set_effect(logs(log, "effect:default"));
    top.add_transition(off, history).set_trigger("on");
    top.add_transition(on, off).set_trigger("off");
  }
};

// "State history": entering through a history Pseudostate with no history
// yet recorded follows the Pseudostate's outgoing (default) transition.
// Shallow history then restores only the most recent direct substate (its
// own substates are default-entered); deep history restores the most
// recent configuration all the way down.
TEST(Conformance, HistoryDefaultThenRestore) {
  for (const VertexKind kind : {VertexKind::kShallowHistory, VertexKind::kDeepHistory}) {
    SCOPED_TRACE(std::string(to_string(kind)));
    HistoryMachine m(kind);
    on_each_engine(m.machine, m.log, [&](Engine& engine) {
      engine.start();
      m.log.clear();
      EXPECT_TRUE(engine.dispatch(Event{"on"}));
      EXPECT_EQ(m.log, (Log{"exit:Off", "entry:On", "effect:default", "entry:B", "entry:B1"}));
      EXPECT_TRUE(engine.dispatch(Event{"next"}));
      EXPECT_TRUE(engine.dispatch(Event{"off"}));
      m.log.clear();
      EXPECT_TRUE(engine.dispatch(Event{"on"}));
      if (kind == VertexKind::kShallowHistory) {
        EXPECT_EQ(m.log, (Log{"exit:Off", "entry:On", "entry:B", "entry:B1"}));
      } else {
        EXPECT_EQ(m.log, (Log{"exit:Off", "entry:On", "entry:B", "entry:B2"}));
      }
    });
  }
}

// "Conflicting Transitions" / "Firing priorities" / "Transition selection
// algorithm": one event fires a maximal set of non-conflicting enabled
// transitions, one per orthogonal region, and a transition from a
// substate has priority over a conflicting one from its containing state.
TEST(Conformance, MaximalConflictFreeFiringAcrossRegions) {
  Log log;
  bool inner_open = true;
  StateMachine machine("orthogonal");
  Region& top = machine.top();
  State& p = logged(top.add_state("P"), log);
  State& out = logged(top.add_state("Out"), log);
  top.add_transition(top.add_initial(), p);
  Region& r1 = p.add_region("r1");
  State& a = logged(r1.add_state("A"), log);
  State& a2 = logged(r1.add_state("A2"), log);
  r1.add_transition(r1.add_initial(), a);
  r1.add_transition(a, a2).set_trigger("go").set_effect(logs(log, "effect:a")).set_guard(
      "inner_open", [&inner_open](const ActionContext&) { return inner_open; });
  Region& r2 = p.add_region("r2");
  State& b = logged(r2.add_state("B"), log);
  State& b2 = logged(r2.add_state("B2"), log);
  r2.add_transition(r2.add_initial(), b);
  r2.add_transition(b, b2).set_trigger("go").set_effect(logs(log, "effect:b")).set_guard(
      "inner_open", [&inner_open](const ActionContext&) { return inner_open; });
  r1.add_transition(a2, a).set_trigger("back");
  r2.add_transition(b2, b).set_trigger("back");
  top.add_transition(p, out).set_trigger("go").set_effect(logs(log, "effect:p"));

  on_each_engine(machine, log, [&](Engine& engine) {
    inner_open = true;
    engine.start();
    log.clear();
    EXPECT_TRUE(engine.dispatch(Event{"go"}));
    EXPECT_EQ(log, (Log{"exit:A", "effect:a", "entry:A2", "exit:B", "effect:b", "entry:B2"}));
    EXPECT_TRUE(engine.is_in("P"));
    EXPECT_TRUE(engine.dispatch(Event{"back"}));
    log.clear();
    // With the inner transitions disabled, the containing state's fires.
    inner_open = false;
    EXPECT_TRUE(engine.dispatch(Event{"go"}));
    EXPECT_EQ(log, (Log{"exit:A", "exit:B", "exit:P", "effect:p", "entry:Out"}));
  });
}

// "Deferred Events": an event deferred by the active state is retained
// and, once the configuration changes, considered again before events
// that arrived after it.
TEST(Conformance, DeferredEventRecalledAheadOfNewerEvents) {
  Log log;
  StateMachine machine("defer");
  Region& top = machine.top();
  State& busy = logged(top.add_state("Busy"), log);
  State& idle = logged(top.add_state("Idle"), log);
  State& work = logged(top.add_state("Work"), log);
  State& pinged = logged(top.add_state("Pinged"), log);
  State& worked = logged(top.add_state("Worked"), log);
  busy.add_deferred("req");
  top.add_transition(top.add_initial(), busy);
  top.add_transition(busy, idle).set_trigger("done").set_effect(logs(log, "effect:done"));
  top.add_transition(idle, work).set_trigger("req").set_effect(logs(log, "effect:req"));
  top.add_transition(idle, pinged).set_trigger("ping");
  top.add_transition(work, worked).set_trigger("ping").set_effect(logs(log, "effect:ping"));

  on_each_engine(machine, log, [&](Engine& engine) {
    engine.start();
    log.clear();
    EXPECT_FALSE(engine.dispatch(Event{"req"}));  // Deferred by Busy.
    EXPECT_TRUE(log.empty());
    engine.post(Event{"done"});
    engine.post(Event{"ping"});
    engine.run_to_quiescence();
    EXPECT_EQ(log, (Log{"exit:Busy", "effect:done", "entry:Idle", "exit:Idle", "effect:req",
                        "entry:Work", "exit:Work", "effect:ping", "entry:Worked"}));
  });
}

// "Completion Transitions and completion events": a composite state
// completes only when every one of its orthogonal regions has reached a
// FinalState; its completion transition then fires without an event.
TEST(Conformance, CompletionAfterEveryRegionIsFinal) {
  Log log;
  StateMachine machine("completion");
  Region& top = machine.top();
  State& p = logged(top.add_state("P"), log);
  State& done = logged(top.add_state("Done"), log);
  top.add_transition(top.add_initial(), p);
  Region& r1 = p.add_region("r1");
  State& a = logged(r1.add_state("A"), log);
  r1.add_transition(r1.add_initial(), a);
  r1.add_transition(a, r1.add_final("f1")).set_trigger("a");
  Region& r2 = p.add_region("r2");
  State& b = logged(r2.add_state("B"), log);
  r2.add_transition(r2.add_initial(), b);
  r2.add_transition(b, r2.add_final("f2")).set_trigger("b");
  top.add_transition(p, done).set_effect(logs(log, "effect:complete"));

  on_each_engine(machine, log, [&](Engine& engine) {
    engine.start();
    log.clear();
    EXPECT_TRUE(engine.dispatch(Event{"a"}));
    EXPECT_EQ(log, (Log{"exit:A"}));
    EXPECT_TRUE(engine.is_in("P"));
    log.clear();
    EXPECT_TRUE(engine.dispatch(Event{"b"}));
    EXPECT_EQ(log, (Log{"exit:B", "exit:P", "effect:complete", "entry:Done"}));
  });
}

// PseudostateKind terminate: entering it terminates the execution; no
// states are exited beyond those the fired transition itself exits, and
// pending events are dropped.
TEST(Conformance, TerminateDropsQueueWithoutExits) {
  Log log;
  StateMachine machine("terminate");
  Region& top = machine.top();
  State& p = logged(top.add_state("P"), log);
  top.add_transition(top.add_initial(), p);
  Region& r1 = p.add_region("r1");
  State& a = logged(r1.add_state("A"), log);
  Pseudostate& kill = r1.add_pseudostate(VertexKind::kTerminate, "X");
  r1.add_transition(r1.add_initial(), a);
  r1.add_transition(a, kill).set_trigger("kill").set_effect(
      Behavior{"effect:kill", [&log](ActionContext& context) {
                 log.push_back("effect:kill");
                 context.instance.post(Event{"later"});
               }});
  Region& r2 = p.add_region("r2");
  State& b = logged(r2.add_state("B"), log);
  r2.add_transition(r2.add_initial(), b);
  r2.add_transition(b, b).set_trigger("later").set_effect(logs(log, "effect:later"));

  on_each_engine(machine, log, [&](Engine& engine) {
    engine.start();
    log.clear();
    EXPECT_TRUE(engine.dispatch(Event{"kill"}));
    EXPECT_EQ(log, (Log{"exit:A", "effect:kill"}));
    EXPECT_TRUE(engine.is_terminated());
    EXPECT_EQ(engine.pending_events(), 0u);
    EXPECT_TRUE(engine.active_leaf_names().empty());
    EXPECT_FALSE(engine.dispatch(Event{"later"}));
    EXPECT_EQ(log, (Log{"exit:A", "effect:kill"}));
  });
}

// PseudostateKind choice/junction, pinned to the engines' documented
// simplification (DESIGN.md): the whole compound transition is resolved
// before any of its Behaviors run, so choice guards see the state before
// the segment effects; then exits, the segment effects in order, and
// entry. A junction with no open guard takes its "else" branch, and a
// compound transition that cannot reach a state fires nothing at all.
TEST(Conformance, ChoiceAndJunctionResolution) {
  Log log;
  StateMachine machine("branches");
  Region& top = machine.top();
  State& a = logged(top.add_state("A"), log);
  State& one = logged(top.add_state("One"), log);
  State& other = logged(top.add_state("Other"), log);
  State& high = logged(top.add_state("High"), log);
  State& low = logged(top.add_state("Low"), log);
  Pseudostate& choice = top.add_pseudostate(VertexKind::kChoice, "C");
  Pseudostate& junction = top.add_pseudostate(VertexKind::kJunction, "J");
  Pseudostate& dead_end = top.add_pseudostate(VertexKind::kChoice, "D");
  top.add_transition(top.add_initial(), a);
  top.add_transition(a, choice).set_trigger("go").set_effect(
      Behavior{"n := 1", [&log](ActionContext& context) {
                 log.push_back("effect:go");
                 context.instance.set_variable("n", 1);
               }});
  top.add_transition(choice, one)
      .set_guard("n == 1",
                 [](const ActionContext& context) { return context.instance.variable("n") == 1; })
      .set_effect(logs(log, "effect:to-one"));
  top.add_transition(choice, other).set_guard(Guard{"else", nullptr}).set_effect(
      logs(log, "effect:to-other"));
  top.add_transition(other, junction).set_trigger("hop").set_effect(logs(log, "effect:hop"));
  top.add_transition(junction, high).set_guard(
      "n > 5", [](const ActionContext& context) { return context.instance.variable("n") > 5; });
  top.add_transition(junction, low).set_guard(Guard{"else", nullptr});
  top.add_transition(low, dead_end).set_trigger("stuck").set_effect(logs(log, "effect:stuck"));
  top.add_transition(dead_end, a).set_guard(
      "never", [](const ActionContext&) { return false; });

  on_each_engine(machine, log, [&](Engine& engine) {
    engine.start();
    log.clear();
    EXPECT_TRUE(engine.dispatch(Event{"go"}));
    EXPECT_EQ(log, (Log{"exit:A", "effect:go", "effect:to-other", "entry:Other"}));
    EXPECT_EQ(engine.variable("n"), 1);
    log.clear();
    EXPECT_TRUE(engine.dispatch(Event{"hop"}));
    EXPECT_EQ(log, (Log{"exit:Other", "effect:hop", "entry:Low"}));
    log.clear();
    const std::uint64_t fired = engine.transitions_fired();
    EXPECT_FALSE(engine.dispatch(Event{"stuck"}));
    EXPECT_TRUE(log.empty());
    EXPECT_TRUE(engine.is_in("Low"));
    EXPECT_EQ(engine.transitions_fired(), fired);
  });
}

}  // namespace
}  // namespace umlsoc::statechart
