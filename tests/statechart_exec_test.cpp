// Interpreter semantics tests: RTC steps, hierarchy, orthogonality, history,
// choice, completion, internal transitions, entry/exit ordering.
#include <gtest/gtest.h>

#include "statechart/interpreter.hpp"
#include "statechart/synthetic.hpp"
#include "support/strings.hpp"

namespace umlsoc::statechart {
namespace {

TEST(Exec, SimpleTransition) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  top.add_transition(initial, a);
  top.add_transition(a, b).set_trigger("go");

  StateMachineInstance instance(machine);
  instance.start();
  EXPECT_TRUE(instance.is_active(a));
  EXPECT_TRUE(instance.dispatch({"go"}));
  EXPECT_TRUE(instance.is_active(b));
  EXPECT_FALSE(instance.is_active(a));
  EXPECT_EQ(instance.transitions_fired(), 1u);
}

TEST(Exec, UnmatchedEventIsDiscarded) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  top.add_transition(initial, a);

  StateMachineInstance instance(machine);
  instance.start();
  EXPECT_FALSE(instance.dispatch({"nothing"}));
  EXPECT_TRUE(instance.is_active(a));
  bool found_discard = false;
  for (const std::string& entry : instance.trace()) {
    if (entry == "discard:nothing") found_discard = true;
  }
  EXPECT_TRUE(found_discard);
}

TEST(Exec, GuardBlocksTransition) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  top.add_transition(initial, a);
  top.add_transition(a, b).set_trigger("go").set_guard("enabled", [](const ActionContext& ctx) {
    return ctx.instance.variable("enabled") != 0;
  });

  StateMachineInstance instance(machine);
  instance.start();
  EXPECT_FALSE(instance.dispatch({"go"}));
  EXPECT_TRUE(instance.is_active(a));
  instance.set_variable("enabled", 1);
  EXPECT_TRUE(instance.dispatch({"go"}));
  EXPECT_TRUE(instance.is_active(b));
}

TEST(Exec, GuardSeesEventData) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  top.add_transition(initial, a);
  top.add_transition(a, b).set_trigger("v").set_guard(
      "data>10", [](const ActionContext& ctx) { return ctx.event->data > 10; });

  StateMachineInstance instance(machine);
  instance.start();
  EXPECT_FALSE(instance.dispatch({"v", 5}));
  EXPECT_TRUE(instance.dispatch({"v", 11}));
}

TEST(Exec, EffectRunsBetweenExitAndEntry) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  top.add_transition(initial, a);

  std::vector<std::string> order;
  a.set_exit(Behavior{"xA", [&](ActionContext&) { order.push_back("exitA"); }});
  b.set_entry(Behavior{"eB", [&](ActionContext&) { order.push_back("enterB"); }});
  top.add_transition(a, b).set_trigger("go").set_effect(
      "fx", [&](ActionContext&) { order.push_back("effect"); });

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"go"});
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "exitA");
  EXPECT_EQ(order[1], "effect");
  EXPECT_EQ(order[2], "enterB");
}

TEST(Exec, CompositeDefaultEntryEnterOrderIsOuterFirst) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& outer = top.add_state("Outer");
  top.add_transition(initial, outer);
  Region& inner_region = outer.add_region("r");
  Pseudostate& inner_initial = inner_region.add_initial();
  State& inner = inner_region.add_state("Inner");
  inner_region.add_transition(inner_initial, inner);

  std::vector<std::string> order;
  outer.set_entry(Behavior{"", [&](ActionContext&) { order.push_back("Outer"); }});
  inner.set_entry(Behavior{"", [&](ActionContext&) { order.push_back("Inner"); }});

  StateMachineInstance instance(machine);
  instance.start();
  EXPECT_TRUE(instance.is_active(outer));
  EXPECT_TRUE(instance.is_active(inner));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "Outer");
  EXPECT_EQ(order[1], "Inner");
}

TEST(Exec, ExitOrderIsInnerFirst) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& outer = top.add_state("Outer");
  State& elsewhere = top.add_state("Elsewhere");
  top.add_transition(initial, outer);
  Region& inner_region = outer.add_region("r");
  Pseudostate& inner_initial = inner_region.add_initial();
  State& inner = inner_region.add_state("Inner");
  inner_region.add_transition(inner_initial, inner);
  top.add_transition(outer, elsewhere).set_trigger("leave");

  std::vector<std::string> order;
  outer.set_exit(Behavior{"", [&](ActionContext&) { order.push_back("Outer"); }});
  inner.set_exit(Behavior{"", [&](ActionContext&) { order.push_back("Inner"); }});

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"leave"});
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], "Inner");
  EXPECT_EQ(order[1], "Outer");
  EXPECT_TRUE(instance.is_active(elsewhere));
}

TEST(Exec, InnerTransitionHasPriorityOverOuter) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& outer = top.add_state("Outer");
  State& out_target = top.add_state("OutTarget");
  top.add_transition(initial, outer);
  Region& inner_region = outer.add_region("r");
  Pseudostate& inner_initial = inner_region.add_initial();
  State& i1 = inner_region.add_state("I1");
  State& i2 = inner_region.add_state("I2");
  inner_region.add_transition(inner_initial, i1);

  top.add_transition(outer, out_target).set_trigger("e");  // Outer handler.
  inner_region.add_transition(i1, i2).set_trigger("e");    // Inner handler wins.

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"e"});
  EXPECT_TRUE(instance.is_active(i2));
  EXPECT_TRUE(instance.is_active(outer));
  EXPECT_FALSE(instance.is_active(out_target));

  // From I2 there is no inner handler: the outer one fires.
  instance.dispatch({"e"});
  EXPECT_TRUE(instance.is_active(out_target));
  EXPECT_FALSE(instance.is_active(outer));
}

TEST(Exec, OuterFiresWhenInnerGuardClosed) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& outer = top.add_state("Outer");
  State& out_target = top.add_state("OutTarget");
  top.add_transition(initial, outer);
  Region& inner_region = outer.add_region("r");
  Pseudostate& inner_initial = inner_region.add_initial();
  State& i1 = inner_region.add_state("I1");
  State& i2 = inner_region.add_state("I2");
  inner_region.add_transition(inner_initial, i1);

  inner_region.add_transition(i1, i2).set_trigger("e").set_guard(
      "never", [](const ActionContext&) { return false; });
  top.add_transition(outer, out_target).set_trigger("e");

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"e"});
  EXPECT_TRUE(instance.is_active(out_target));
}

TEST(Exec, SelfTransitionExitsAndReenters) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  top.add_transition(initial, a);
  top.add_transition(a, a).set_trigger("again");

  int entries = 0;
  int exits = 0;
  a.set_entry(Behavior{"", [&](ActionContext&) { ++entries; }});
  a.set_exit(Behavior{"", [&](ActionContext&) { ++exits; }});

  StateMachineInstance instance(machine);
  instance.start();
  EXPECT_EQ(entries, 1);
  instance.dispatch({"again"});
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(entries, 2);
  EXPECT_TRUE(instance.is_active(a));
}

TEST(Exec, InternalTransitionDoesNotExit) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  top.add_transition(initial, a);

  int entries = 0;
  int effects = 0;
  a.set_entry(Behavior{"", [&](ActionContext&) { ++entries; }});
  top.add_transition(a, a)
      .set_trigger("poke")
      .set_internal(true)
      .set_effect("fx", [&](ActionContext&) { ++effects; });

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"poke"});
  instance.dispatch({"poke"});
  EXPECT_EQ(entries, 1);  // Never re-entered.
  EXPECT_EQ(effects, 2);
  EXPECT_EQ(instance.transitions_fired(), 2u);
}

TEST(Exec, OrthogonalRegionsEnterTogetherAndFireTogether) {
  auto machine = make_orthogonal_machine(3, 4);
  StateMachineInstance instance(*machine);
  instance.start();
  EXPECT_TRUE(instance.is_in("q0_0"));
  EXPECT_TRUE(instance.is_in("q1_0"));
  EXPECT_TRUE(instance.is_in("q2_0"));

  // "tick" advances all three regions in one RTC step.
  instance.dispatch({"tick"});
  EXPECT_TRUE(instance.is_in("q0_1"));
  EXPECT_TRUE(instance.is_in("q1_1"));
  EXPECT_TRUE(instance.is_in("q2_1"));
  EXPECT_EQ(instance.transitions_fired(), 3u);

  // A region-specific event advances only that region.
  instance.dispatch({"r1"});
  EXPECT_TRUE(instance.is_in("q0_1"));
  EXPECT_TRUE(instance.is_in("q1_2"));
  EXPECT_TRUE(instance.is_in("q2_1"));
}

TEST(Exec, TransitionOutOfOrthogonalExitsAllRegions) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& parallel = top.add_state("P");
  State& done = top.add_state("Done");
  top.add_transition(initial, parallel);
  top.add_transition(parallel, done).set_trigger("abort");

  std::vector<std::string> exited;
  for (int r = 0; r < 2; ++r) {
    Region& region = parallel.add_region("r" + std::to_string(r));
    Pseudostate& region_initial = region.add_initial();
    State& s = region.add_state("w" + std::to_string(r));
    region.add_transition(region_initial, s);
    s.set_exit(Behavior{"", [&exited, r](ActionContext&) {
                          exited.push_back("w" + std::to_string(r));
                        }});
  }

  StateMachineInstance instance(machine);
  instance.start();
  EXPECT_EQ(instance.configuration().size(), 3u);  // P + two region states.
  instance.dispatch({"abort"});
  EXPECT_TRUE(instance.is_active(done));
  EXPECT_EQ(instance.configuration().size(), 1u);
  EXPECT_EQ(exited.size(), 2u);
}

TEST(Exec, ChoicePseudostateRoutesByGuard) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  Pseudostate& choice = top.add_pseudostate(VertexKind::kChoice, "c");
  State& low = top.add_state("Low");
  State& high = top.add_state("High");
  top.add_transition(initial, a);
  top.add_transition(a, choice).set_trigger("val");
  top.add_transition(choice, high).set_guard("data>=100", [](const ActionContext& ctx) {
    return ctx.event != nullptr && ctx.event->data >= 100;
  });
  top.add_transition(choice, low).set_guard(Guard{"else", nullptr});

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"val", 42});
  EXPECT_TRUE(instance.is_active(low));
}

TEST(Exec, ChoiceTakesFirstOpenBranch) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  Pseudostate& choice = top.add_pseudostate(VertexKind::kChoice, "c");
  State& b = top.add_state("B");
  State& c = top.add_state("C");
  top.add_transition(initial, a);
  top.add_transition(a, choice).set_trigger("go");
  top.add_transition(choice, b);  // Unguarded: always taken.
  top.add_transition(choice, c).set_guard(Guard{"else", nullptr});

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"go", 500});
  EXPECT_TRUE(instance.is_active(b));
}

TEST(Exec, SegmentEffectsRunInOrder) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  Pseudostate& junction = top.add_pseudostate(VertexKind::kJunction, "j");
  State& b = top.add_state("B");
  top.add_transition(initial, a);

  std::vector<int> order;
  top.add_transition(a, junction).set_trigger("go").set_effect(
      "seg1", [&](ActionContext&) { order.push_back(1); });
  top.add_transition(junction, b).set_effect("seg2",
                                             [&](ActionContext&) { order.push_back(2); });

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"go"});
  EXPECT_TRUE(instance.is_active(b));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_LT(order[0], order[1]);
}

TEST(Exec, ShallowHistoryRestoresDirectChild) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& work = top.add_state("Work");
  State& paused = top.add_state("Paused");
  top.add_transition(initial, work);
  Region& wr = work.add_region("r");
  Pseudostate& winit = wr.add_initial();
  State& w1 = wr.add_state("W1");
  State& w2 = wr.add_state("W2");
  Pseudostate& history = wr.add_pseudostate(VertexKind::kShallowHistory, "H");
  wr.add_transition(winit, w1);
  wr.add_transition(w1, w2).set_trigger("next");
  top.add_transition(work, paused).set_trigger("pause");
  top.add_transition(paused, history).set_trigger("resume");

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"next"});
  EXPECT_TRUE(instance.is_active(w2));
  instance.dispatch({"pause"});
  EXPECT_TRUE(instance.is_active(paused));
  instance.dispatch({"resume"});
  EXPECT_TRUE(instance.is_active(work));
  EXPECT_TRUE(instance.is_active(w2));  // Resumed where we left off.
  EXPECT_FALSE(instance.is_active(w1));
}

TEST(Exec, ShallowHistoryDefaultWhenEmpty) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& idle = top.add_state("Idle");
  State& work = top.add_state("Work");
  top.add_transition(initial, idle);
  Region& wr = work.add_region("r");
  Pseudostate& winit = wr.add_initial();
  State& w1 = wr.add_state("W1");
  State& w2 = wr.add_state("W2");
  Pseudostate& history = wr.add_pseudostate(VertexKind::kShallowHistory, "H");
  wr.add_transition(winit, w1);
  wr.add_transition(history, w2);  // History default goes to W2.
  top.add_transition(idle, history).set_trigger("begin");

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"begin"});  // No stored history: default transition.
  EXPECT_TRUE(instance.is_active(w2));
  EXPECT_FALSE(instance.is_active(w1));
}

TEST(Exec, ShallowHistoryIsShallow) {
  // Nested composite inside the remembered child re-enters via default.
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& work = top.add_state("Work");
  State& paused = top.add_state("Paused");
  top.add_transition(initial, work);
  Region& wr = work.add_region("r");
  Pseudostate& winit = wr.add_initial();
  State& sub = wr.add_state("Sub");
  Pseudostate& history = wr.add_pseudostate(VertexKind::kShallowHistory, "H");
  wr.add_transition(winit, sub);
  Region& sr = sub.add_region("sr");
  Pseudostate& sinit = sr.add_initial();
  State& d1 = sr.add_state("D1");
  State& d2 = sr.add_state("D2");
  sr.add_transition(sinit, d1);
  sr.add_transition(d1, d2).set_trigger("deep");
  top.add_transition(work, paused).set_trigger("pause");
  top.add_transition(paused, history).set_trigger("resume");

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"deep"});
  EXPECT_TRUE(instance.is_active(d2));
  instance.dispatch({"pause"});
  instance.dispatch({"resume"});
  EXPECT_TRUE(instance.is_active(sub));
  EXPECT_TRUE(instance.is_active(d1));  // Shallow: nested region reset.
  EXPECT_FALSE(instance.is_active(d2));
}

TEST(Exec, DeepHistoryRestoresLeaves) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& work = top.add_state("Work");
  State& paused = top.add_state("Paused");
  top.add_transition(initial, work);
  Region& wr = work.add_region("r");
  Pseudostate& winit = wr.add_initial();
  State& sub = wr.add_state("Sub");
  Pseudostate& history = wr.add_pseudostate(VertexKind::kDeepHistory, "DH");
  wr.add_transition(winit, sub);
  Region& sr = sub.add_region("sr");
  Pseudostate& sinit = sr.add_initial();
  State& d1 = sr.add_state("D1");
  State& d2 = sr.add_state("D2");
  sr.add_transition(sinit, d1);
  sr.add_transition(d1, d2).set_trigger("deep");
  top.add_transition(work, paused).set_trigger("pause");
  top.add_transition(paused, history).set_trigger("resume");

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"deep"});
  instance.dispatch({"pause"});
  instance.dispatch({"resume"});
  EXPECT_TRUE(instance.is_active(sub));
  EXPECT_TRUE(instance.is_active(d2));  // Deep: exact leaf restored.
  EXPECT_FALSE(instance.is_active(d1));
}

TEST(Exec, DeepHistoryRestoresOrthogonalLeaves) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& work = top.add_state("Work");
  State& paused = top.add_state("Paused");
  top.add_transition(initial, work);
  Region& wr = work.add_region("r");
  Pseudostate& winit = wr.add_initial();
  State& par = wr.add_state("Par");
  Pseudostate& history = wr.add_pseudostate(VertexKind::kDeepHistory, "DH");
  wr.add_transition(winit, par);
  Region& ra = par.add_region("ra");
  Pseudostate& ia = ra.add_initial();
  State& a1 = ra.add_state("A1");
  State& a2 = ra.add_state("A2");
  ra.add_transition(ia, a1);
  ra.add_transition(a1, a2).set_trigger("ea");
  Region& rb = par.add_region("rb");
  Pseudostate& ib = rb.add_initial();
  State& b1 = rb.add_state("B1");
  State& b2 = rb.add_state("B2");
  rb.add_transition(ib, b1);
  rb.add_transition(b1, b2).set_trigger("eb");
  top.add_transition(work, paused).set_trigger("pause");
  top.add_transition(paused, history).set_trigger("resume");

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"ea"});  // A2, B1 active.
  instance.dispatch({"pause"});
  instance.dispatch({"resume"});
  EXPECT_TRUE(instance.is_active(a2));
  EXPECT_TRUE(instance.is_active(b1));  // B-region restored, not defaulted...
  EXPECT_FALSE(instance.is_active(a1));
  EXPECT_FALSE(instance.is_active(b2));
}

TEST(Exec, CompletionTransitionFiresImmediately) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  State& c = top.add_state("C");
  top.add_transition(initial, a);
  top.add_transition(a, b).set_trigger("go");
  top.add_transition(b, c);  // Completion: B is transient.

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"go"});
  EXPECT_TRUE(instance.is_active(c));
  EXPECT_FALSE(instance.is_active(b));
  EXPECT_EQ(instance.transitions_fired(), 2u);
}

TEST(Exec, CompositeCompletionWaitsForFinal) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& work = top.add_state("Work");
  State& done = top.add_state("Done");
  top.add_transition(initial, work);
  top.add_transition(work, done);  // Completion out of composite.
  Region& wr = work.add_region("r");
  Pseudostate& winit = wr.add_initial();
  State& step1 = wr.add_state("Step1");
  FinalState& final_state = wr.add_final();
  wr.add_transition(winit, step1);
  wr.add_transition(step1, final_state).set_trigger("finish");

  StateMachineInstance instance(machine);
  instance.start();
  EXPECT_TRUE(instance.is_active(work));  // Not completed yet.
  EXPECT_FALSE(instance.is_active(done));
  instance.dispatch({"finish"});
  EXPECT_TRUE(instance.is_active(done));  // Final reached -> completion fires.
  EXPECT_FALSE(instance.is_active(work));
}

TEST(Exec, TopFinalStateTerminatesMachine) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  FinalState& end = top.add_final();
  top.add_transition(initial, a);
  top.add_transition(a, end).set_trigger("quit");

  StateMachineInstance instance(machine);
  instance.start();
  EXPECT_FALSE(instance.is_in_final_state());
  instance.dispatch({"quit"});
  EXPECT_TRUE(instance.is_in_final_state());
  EXPECT_TRUE(instance.configuration().empty());
}

TEST(Exec, ActionsCanRaiseInternalEvents) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  State& c = top.add_state("C");
  top.add_transition(initial, a);
  top.add_transition(a, b).set_trigger("go").set_effect(
      "raise done", [](ActionContext& ctx) { ctx.instance.post({"done"}); });
  top.add_transition(b, c).set_trigger("done");

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"go"});
  EXPECT_TRUE(instance.is_active(c));  // Internal event processed same run.
}

TEST(Exec, CompletionLivelockThrows) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& a = top.add_state("A");
  State& b = top.add_state("B");
  top.add_transition(initial, a);
  top.add_transition(a, b);  // Completion ping-pong forever.
  top.add_transition(b, a);

  StateMachineInstance instance(machine);
  instance.set_trace_enabled(false);
  EXPECT_THROW(instance.start(), std::runtime_error);
}

TEST(Exec, TransitionToInnerStateOfComposite) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& idle = top.add_state("Idle");
  State& work = top.add_state("Work");
  top.add_transition(initial, idle);
  Region& wr = work.add_region("r");
  Pseudostate& winit = wr.add_initial();
  State& w1 = wr.add_state("W1");
  State& w2 = wr.add_state("W2");
  wr.add_transition(winit, w1);
  top.add_transition(idle, w2).set_trigger("jump");  // Direct deep entry.

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"jump"});
  EXPECT_TRUE(instance.is_active(work));  // Ancestor entered implicitly.
  EXPECT_TRUE(instance.is_active(w2));
  EXPECT_FALSE(instance.is_active(w1));   // Initial NOT taken on explicit entry.
}

TEST(Exec, ExitFromDeepInnerStateToOutside) {
  StateMachine machine("m");
  Region& top = machine.top();
  Pseudostate& initial = top.add_initial();
  State& work = top.add_state("Work");
  State& out = top.add_state("Out");
  top.add_transition(initial, work);
  Region& wr = work.add_region("r");
  Pseudostate& winit = wr.add_initial();
  State& w1 = wr.add_state("W1");
  wr.add_transition(winit, w1);
  wr.add_transition(w1, out).set_trigger("escape");  // Cross-boundary.

  StateMachineInstance instance(machine);
  instance.start();
  instance.dispatch({"escape"});
  EXPECT_TRUE(instance.is_active(out));
  EXPECT_FALSE(instance.is_active(work));
  EXPECT_FALSE(instance.is_active(w1));
}

TEST(Exec, ChainMachineStepsDeterministically) {
  auto machine = make_chain_machine(10);
  StateMachineInstance instance(*machine);
  instance.set_trace_enabled(false);
  instance.start();
  for (int i = 0; i < 25; ++i) instance.dispatch({"e"});
  EXPECT_TRUE(instance.is_in("s5"));  // 25 mod 10.
  EXPECT_EQ(instance.transitions_fired(), 25u);
  EXPECT_EQ(instance.events_processed(), 25u);
}

TEST(Exec, NestedMachineStepAndReset) {
  auto machine = make_nested_machine(4, 3);
  StateMachineInstance instance(*machine);
  instance.set_trace_enabled(false);
  instance.start();
  EXPECT_TRUE(instance.is_in("leaf_L3_0"));
  instance.dispatch({"step"});
  EXPECT_TRUE(instance.is_in("leaf_L3_1"));
  instance.dispatch({"reset"});  // Handled at the outermost composite.
  EXPECT_TRUE(instance.is_in("leaf_L3_0"));
}

TEST(Exec, ActiveLeafNamesSortedAndCorrect) {
  auto machine = make_orthogonal_machine(2, 2);
  StateMachineInstance instance(*machine);
  instance.start();
  std::vector<std::string> leaves = instance.active_leaf_names();
  ASSERT_EQ(leaves.size(), 2u);
  EXPECT_EQ(leaves[0], "q0_0");
  EXPECT_EQ(leaves[1], "q1_0");
}

// Determinism guard: two structurally identical machines (separately built,
// so vertex addresses differ) must drive their instances through identical
// transition sequences. Sibling orthogonal regions deliberately reuse state
// names at the same depth — a name-keyed or address-keyed tie-break would
// make the firing/exit order diverge between the builds; only document
// order (pre-order index) is stable.
std::unique_ptr<StateMachine> make_twin_region_machine() {
  auto machine = std::make_unique<StateMachine>("Twin");
  Region& top = machine->top();
  State& work = top.add_state("Work");
  top.add_transition(top.add_initial(), work);
  State& out = top.add_state("Out");
  for (int r = 0; r < 3; ++r) {
    Region& region = work.add_region(support::numbered("r", r));
    Pseudostate& initial = region.add_initial();
    State& ping = region.add_state("Ping");  // Same names in every region.
    State& pong = region.add_state("Pong");
    region.add_transition(initial, ping);
    region.add_transition(ping, pong).set_trigger("flip");
    region.add_transition(pong, ping).set_trigger("flip");
  }
  top.add_transition(work, out).set_trigger("escape");
  return machine;
}

TEST(Exec, IdenticalModelsDispatchIdentically) {
  auto first_machine = make_twin_region_machine();
  auto second_machine = make_twin_region_machine();
  StateMachineInstance first(*first_machine);
  StateMachineInstance second(*second_machine);
  first.start();
  second.start();
  for (const char* event : {"flip", "flip", "flip", "escape"}) {
    first.dispatch({event});
    second.dispatch({event});
    EXPECT_EQ(first.active_leaf_names(), second.active_leaf_names());
    EXPECT_EQ(first.capture(), second.capture());
  }
  EXPECT_EQ(first.trace(), second.trace());
  EXPECT_EQ(first.transitions_fired(), second.transitions_fired());
}

TEST(Exec, VariablesDefaultToZero) {
  StateMachine machine("m");
  StateMachineInstance instance(machine);
  EXPECT_EQ(instance.variable("unset"), 0);
  instance.set_variable("x", -5);
  EXPECT_EQ(instance.variable("x"), -5);
}

// Property sweep: in a chain machine, after N dispatches exactly N
// transitions have fired and the active state index is N mod length.
class ChainProperty : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ChainProperty, FiringCountMatchesDispatchCount) {
  auto [length, dispatches] = GetParam();
  auto machine = make_chain_machine(static_cast<std::size_t>(length));
  StateMachineInstance instance(*machine);
  instance.set_trace_enabled(false);
  instance.start();
  for (int i = 0; i < dispatches; ++i) instance.dispatch({"e"});
  EXPECT_EQ(instance.transitions_fired(), static_cast<std::uint64_t>(dispatches));
  EXPECT_TRUE(instance.is_in("s" + std::to_string(dispatches % length)));
  // Invariant: exactly one leaf active in a chain machine.
  EXPECT_EQ(instance.active_leaf_names().size(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChainProperty,
                         ::testing::Combine(::testing::Values(1, 2, 5, 16),
                                            ::testing::Values(0, 1, 7, 40)));

// Property: configuration is always a legal tree cut — every active
// non-top state's parent is active, and no two sibling states of the same
// region are simultaneously active.
class ConfigurationInvariant : public ::testing::TestWithParam<int> {};

TEST_P(ConfigurationInvariant, HoldsThroughRandomEventSequences) {
  auto machine = make_orthogonal_machine(3, 3);
  StateMachineInstance instance(*machine);
  instance.set_trace_enabled(false);
  instance.start();

  const std::vector<std::string> events = {"tick", "r0", "r1", "r2", "noise"};
  unsigned seed = static_cast<unsigned>(GetParam());
  for (int i = 0; i < 200; ++i) {
    seed = seed * 1664525u + 1013904223u;
    instance.dispatch({events[seed % events.size()]});

    for (const State* state : instance.configuration()) {
      if (State* parent = state->containing_state()) {
        EXPECT_TRUE(instance.is_active(*parent))
            << state->name() << " active without its parent";
      }
      // Sibling exclusivity within the same region.
      for (const auto& vertex : state->container()->vertices()) {
        const auto* sibling = dynamic_cast<const State*>(vertex.get());
        if (sibling != nullptr && sibling != state) {
          EXPECT_FALSE(instance.is_active(*sibling))
              << state->name() << " and " << sibling->name() << " both active";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigurationInvariant, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace umlsoc::statechart
