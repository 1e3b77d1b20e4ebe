// Interaction trace semantics: enumeration and MSC conformance checking.
#include <gtest/gtest.h>

#include <algorithm>

#include "interaction/trace.hpp"
#include "support/strings.hpp"

namespace umlsoc::interaction {
namespace {

/// req/ack handshake used in several tests.
std::unique_ptr<Interaction> make_handshake() {
  auto diagram = std::make_unique<Interaction>("handshake");
  Lifeline& cpu = diagram->add_lifeline("Cpu");
  Lifeline& bus = diagram->add_lifeline("Bus");
  diagram->add_message(cpu, bus, "req");
  diagram->add_message(bus, cpu, "ack", MessageKind::kReply);
  return diagram;
}

TEST(Interaction, MessageLabels) {
  auto diagram = make_handshake();
  EXPECT_EQ(diagram->fragments().front()->label(), "Cpu->Bus:req");
  EXPECT_EQ(diagram->fragments().back()->label(), "Bus->Cpu:ack");
  EXPECT_NE(diagram->find_lifeline("Cpu"), nullptr);
  EXPECT_EQ(diagram->find_lifeline("Nope"), nullptr);
}

TEST(Interaction, EnumerateSimpleSequence) {
  auto diagram = make_handshake();
  EnumerationResult result = enumerate_traces(*diagram);
  ASSERT_EQ(result.traces.size(), 1u);
  EXPECT_FALSE(result.truncated);
  EXPECT_EQ(result.traces[0], (Trace{"Cpu->Bus:req", "Bus->Cpu:ack"}));
}

TEST(Interaction, ConformanceOnSimpleSequence) {
  auto diagram = make_handshake();
  ConformanceChecker checker(*diagram);
  EXPECT_TRUE(checker.conforms({"Cpu->Bus:req", "Bus->Cpu:ack"}));
  EXPECT_FALSE(checker.conforms({"Cpu->Bus:req"}));            // Incomplete.
  EXPECT_FALSE(checker.conforms({"Bus->Cpu:ack", "Cpu->Bus:req"}));  // Reordered.
  EXPECT_FALSE(checker.conforms({}));
  EXPECT_TRUE(checker.is_prefix({"Cpu->Bus:req"}));
  EXPECT_TRUE(checker.is_prefix({}));
  EXPECT_FALSE(checker.is_prefix({"Bus->Cpu:ack"}));
}

TEST(Interaction, AltChoosesOneBranch) {
  Interaction diagram("alt");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  Fragment& alt = diagram.add_combined(InteractionOperator::kAlt);
  Operand& ok = alt.add_operand("ok");
  ok.add_message(a, b, "yes");
  Operand& fail = alt.add_operand("else");
  fail.add_message(a, b, "no");

  EnumerationResult result = enumerate_traces(diagram);
  EXPECT_EQ(result.traces.size(), 2u);

  ConformanceChecker checker(diagram);
  EXPECT_TRUE(checker.conforms({"A->B:yes"}));
  EXPECT_TRUE(checker.conforms({"A->B:no"}));
  EXPECT_FALSE(checker.conforms({"A->B:yes", "A->B:no"}));
}

TEST(Interaction, OptIsOptional) {
  Interaction diagram("opt");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  diagram.add_message(a, b, "start");
  Fragment& opt = diagram.add_combined(InteractionOperator::kOpt);
  opt.add_operand("verbose").add_message(a, b, "log");
  diagram.add_message(a, b, "end");

  ConformanceChecker checker(diagram);
  EXPECT_TRUE(checker.conforms({"A->B:start", "A->B:end"}));
  EXPECT_TRUE(checker.conforms({"A->B:start", "A->B:log", "A->B:end"}));
  EXPECT_FALSE(checker.conforms({"A->B:start", "A->B:log", "A->B:log", "A->B:end"}));
  EXPECT_EQ(enumerate_traces(diagram).traces.size(), 2u);
}

TEST(Interaction, BoundedLoop) {
  Interaction diagram("loop");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  Fragment& loop = diagram.add_combined(InteractionOperator::kLoop);
  loop.set_loop_bounds(1, 3);
  loop.add_operand().add_message(a, b, "beat");

  ConformanceChecker checker(diagram);
  EXPECT_FALSE(checker.conforms({}));
  EXPECT_TRUE(checker.conforms({"A->B:beat"}));
  EXPECT_TRUE(checker.conforms({"A->B:beat", "A->B:beat", "A->B:beat"}));
  EXPECT_FALSE(checker.conforms(Trace(4, "A->B:beat")));
  EXPECT_EQ(enumerate_traces(diagram).traces.size(), 3u);
}

TEST(Interaction, UnboundedLoopMatchesAnyCount) {
  Interaction diagram("loop*");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  Fragment& loop = diagram.add_combined(InteractionOperator::kLoop);
  loop.set_loop_bounds(0, -1);
  loop.add_operand().add_message(a, b, "beat");
  diagram.add_message(a, b, "stop");

  ConformanceChecker checker(diagram);
  EXPECT_TRUE(checker.conforms({"A->B:stop"}));
  EXPECT_TRUE(checker.conforms(
      {"A->B:beat", "A->B:beat", "A->B:beat", "A->B:beat", "A->B:beat", "A->B:stop"}));
  EXPECT_FALSE(checker.conforms({"A->B:beat"}));
  // Enumeration is bounded by loop_unroll.
  EnumerateOptions options;
  options.loop_unroll = 2;
  EXPECT_EQ(enumerate_traces(diagram, options).traces.size(), 3u);
}

TEST(Interaction, ParInterleavesOperands) {
  Interaction diagram("par");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  Fragment& par = diagram.add_combined(InteractionOperator::kPar);
  par.add_operand().add_message(a, b, "x");
  par.add_operand().add_message(a, b, "y");

  EnumerationResult result = enumerate_traces(diagram);
  EXPECT_EQ(result.traces.size(), 2u);  // xy and yx.

  ConformanceChecker checker(diagram);
  EXPECT_TRUE(checker.conforms({"A->B:x", "A->B:y"}));
  EXPECT_TRUE(checker.conforms({"A->B:y", "A->B:x"}));
  EXPECT_FALSE(checker.conforms({"A->B:x"}));
  EXPECT_TRUE(checker.is_prefix({"A->B:y"}));
}

TEST(Interaction, ParPreservesOperandInternalOrder) {
  Interaction diagram("par2");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  Fragment& par = diagram.add_combined(InteractionOperator::kPar);
  Operand& first = par.add_operand();
  first.add_message(a, b, "x1");
  first.add_message(a, b, "x2");
  Operand& second = par.add_operand();
  second.add_message(a, b, "y");

  ConformanceChecker checker(diagram);
  EXPECT_TRUE(checker.conforms({"A->B:x1", "A->B:x2", "A->B:y"}));
  EXPECT_TRUE(checker.conforms({"A->B:x1", "A->B:y", "A->B:x2"}));
  EXPECT_TRUE(checker.conforms({"A->B:y", "A->B:x1", "A->B:x2"}));
  EXPECT_FALSE(checker.conforms({"A->B:x2", "A->B:x1", "A->B:y"}));  // Order broken.
  EXPECT_EQ(enumerate_traces(diagram).traces.size(), 3u);  // C(3,1) positions for y.
}

TEST(Interaction, StrictGroupsSequences) {
  Interaction diagram("strict");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  Fragment& strict = diagram.add_combined(InteractionOperator::kStrict);
  strict.add_operand().add_message(a, b, "first");
  strict.add_operand().add_message(a, b, "second");

  ConformanceChecker checker(diagram);
  EXPECT_TRUE(checker.conforms({"A->B:first", "A->B:second"}));
  EXPECT_FALSE(checker.conforms({"A->B:second", "A->B:first"}));
}

TEST(Interaction, NestedCombinedFragments) {
  // loop(0..2) { alt { a | b } } end
  Interaction diagram("nested");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  Fragment& loop = diagram.add_combined(InteractionOperator::kLoop);
  loop.set_loop_bounds(0, 2);
  Operand& body = loop.add_operand();
  Fragment& alt = body.add_combined(InteractionOperator::kAlt);
  alt.add_operand("g1").add_message(a, b, "m1");
  alt.add_operand("else").add_message(a, b, "m2");
  diagram.add_message(a, b, "end");

  ConformanceChecker checker(diagram);
  EXPECT_TRUE(checker.conforms({"A->B:end"}));
  EXPECT_TRUE(checker.conforms({"A->B:m1", "A->B:end"}));
  EXPECT_TRUE(checker.conforms({"A->B:m2", "A->B:m1", "A->B:end"}));
  EXPECT_FALSE(checker.conforms({"A->B:m1", "A->B:m2", "A->B:m1", "A->B:end"}));
  // 1 + 2 + 4 loop bodies, each followed by end.
  EXPECT_EQ(enumerate_traces(diagram).traces.size(), 7u);
}

TEST(Interaction, ParInsideLoopConformance) {
  Interaction diagram("pl");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  Fragment& loop = diagram.add_combined(InteractionOperator::kLoop);
  loop.set_loop_bounds(1, 2);
  Operand& body = loop.add_operand();
  Fragment& par = body.add_combined(InteractionOperator::kPar);
  par.add_operand().add_message(a, b, "p");
  par.add_operand().add_message(b, a, "q");

  ConformanceChecker checker(diagram);
  EXPECT_TRUE(checker.conforms({"A->B:p", "B->A:q"}));
  EXPECT_TRUE(checker.conforms({"B->A:q", "A->B:p", "A->B:p", "B->A:q"}));
  EXPECT_FALSE(checker.conforms({"A->B:p", "A->B:p", "B->A:q"}));  // Unbalanced.
}

TEST(Interaction, EnumerationTruncatesAtCap) {
  Interaction diagram("blowup");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  // 2^10 alt combinations.
  for (int i = 0; i < 10; ++i) {
    Fragment& alt = diagram.add_combined(InteractionOperator::kAlt);
    alt.add_operand().add_message(a, b, support::numbered("l", i));
    alt.add_operand().add_message(a, b, support::numbered("r", i));
  }
  EnumerateOptions options;
  options.max_traces = 100;
  EnumerationResult result = enumerate_traces(diagram, options);
  EXPECT_TRUE(result.truncated);
  EXPECT_LE(result.traces.size(), 100u);
}

TEST(Interaction, CheckerAgreesWithEnumeration) {
  // Property: every enumerated trace conforms; mutations mostly do not.
  Interaction diagram("agree");
  Lifeline& a = diagram.add_lifeline("A");
  Lifeline& b = diagram.add_lifeline("B");
  diagram.add_message(a, b, "open");
  Fragment& alt = diagram.add_combined(InteractionOperator::kAlt);
  alt.add_operand().add_message(a, b, "read");
  Operand& write_branch = alt.add_operand();
  write_branch.add_message(a, b, "write");
  write_branch.add_message(b, a, "ok");
  Fragment& loop = diagram.add_combined(InteractionOperator::kLoop);
  loop.set_loop_bounds(0, 2);
  loop.add_operand().add_message(a, b, "poll");
  diagram.add_message(a, b, "close");

  EnumerationResult result = enumerate_traces(*&diagram);
  ConformanceChecker checker(diagram);
  ASSERT_FALSE(result.traces.empty());
  for (const Trace& trace : result.traces) {
    EXPECT_TRUE(checker.conforms(trace));
    // Dropping the final event leaves a strict prefix.
    Trace prefix(trace.begin(), trace.end() - 1);
    EXPECT_TRUE(checker.is_prefix(prefix));
    // Appending garbage breaks conformance.
    Trace extended = trace;
    extended.push_back("A->B:bogus");
    EXPECT_FALSE(checker.conforms(extended));
  }
}

}  // namespace
}  // namespace umlsoc::interaction
