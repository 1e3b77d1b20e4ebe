// Unit tests for the support module: strings, rng, graph, diagnostics, ids,
// and the little-endian byte codec.
#include <gtest/gtest.h>

#include "support/bytes.hpp"
#include "support/diagnostics.hpp"
#include "support/graph.hpp"
#include "support/ids.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace umlsoc::support {
namespace {

TEST(Ids, DefaultIsInvalid) {
  Id id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id.value(), 0u);
}

TEST(Ids, GeneratorIsMonotonic) {
  IdGenerator generator;
  Id a = generator.next();
  Id b = generator.next();
  EXPECT_TRUE(a.valid());
  EXPECT_LT(a, b);
}

TEST(Ids, ReserveSkipsPastExternalIds) {
  IdGenerator generator;
  generator.reserve(Id{100});
  EXPECT_EQ(generator.next().value(), 101u);
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a"), "a");
}

TEST(Strings, SplitAndJoin) {
  std::vector<std::string> parts = split("a.b..c", '.');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(join(parts, "/"), "a/b//c");
}

TEST(Strings, SplitEmpty) {
  std::vector<std::string> parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("statechart", "state"));
  EXPECT_FALSE(starts_with("st", "state"));
  EXPECT_TRUE(ends_with("top.v", ".v"));
  EXPECT_FALSE(ends_with("v", ".v"));
}

TEST(Strings, XmlEscape) {
  EXPECT_EQ(xml_escape("a<b>&\"c'"), "a&lt;b&gt;&amp;&quot;c&apos;");
  EXPECT_EQ(xml_escape("plain"), "plain");
}

TEST(Strings, Indent) {
  EXPECT_EQ(indent("a\nb", 1), "  a\n  b");
  EXPECT_EQ(indent("a\n\nb", 1), "  a\n\n  b");  // Blank lines stay blank.
}

TEST(Strings, SnakeCase) {
  EXPECT_EQ(to_snake_case("FrameBuffer"), "frame_buffer");
  EXPECT_EQ(to_snake_case("frame buffer"), "frame_buffer");
  EXPECT_EQ(to_snake_case("frame-buffer"), "frame_buffer");
  EXPECT_EQ(to_snake_case("UART"), "uart");
  EXPECT_EQ(to_snake_case("AxiLiteBus"), "axi_lite_bus");
}

TEST(Strings, UpperCamelCase) {
  EXPECT_EQ(to_upper_camel_case("frame_buffer"), "FrameBuffer");
  EXPECT_EQ(to_upper_camel_case("uart rx"), "UartRx");
  EXPECT_EQ(to_upper_camel_case("9lives"), "X9lives");
}

TEST(Strings, IsIdentifier) {
  EXPECT_TRUE(is_identifier("abc_1"));
  EXPECT_TRUE(is_identifier("_x"));
  EXPECT_FALSE(is_identifier("1abc"));
  EXPECT_FALSE(is_identifier(""));
  EXPECT_FALSE(is_identifier("a-b"));
}

TEST(Strings, CountNonemptyLines) {
  EXPECT_EQ(count_nonempty_lines("a\n\n b\n  \nc"), 3u);
  EXPECT_EQ(count_nonempty_lines(""), 0u);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, BelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.below(17), 17u);
}

TEST(Rng, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = rng.range(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= (v == -2);
    saw_hi |= (v == 2);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(5);
  EXPECT_FALSE(rng.chance(0.0));
  EXPECT_TRUE(rng.chance(1.0));
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(9);
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Graph, TopologicalOrderOfDag) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  auto order = g.topological_order();
  ASSERT_TRUE(order.has_value());
  ASSERT_EQ(order->size(), 4u);
  std::vector<std::size_t> position(4);
  for (std::size_t i = 0; i < order->size(); ++i) position[(*order)[i]] = i;
  EXPECT_LT(position[0], position[1]);
  EXPECT_LT(position[1], position[3]);
  EXPECT_LT(position[2], position[3]);
}

TEST(Graph, CycleDetected) {
  Digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 0);
  EXPECT_TRUE(g.has_cycle());
  EXPECT_FALSE(g.topological_order().has_value());
}

TEST(Graph, Reachability) {
  Digraph g(5);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(3, 4);
  std::vector<bool> from0 = g.reachable_from(0);
  EXPECT_TRUE(from0[0]);
  EXPECT_TRUE(from0[2]);
  EXPECT_FALSE(from0[3]);
  std::vector<bool> to2 = g.reaching(2);
  EXPECT_TRUE(to2[0]);
  EXPECT_FALSE(to2[4]);
}

TEST(Graph, LongestPathWeights) {
  Digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  auto finish = g.longest_path_to({1.0, 2.0, 5.0, 1.0});
  ASSERT_TRUE(finish.has_value());
  EXPECT_DOUBLE_EQ((*finish)[3], 1.0 + 5.0 + 1.0);  // Via the heavier branch.
}

TEST(Graph, LongestPathRejectsCycle) {
  Digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_FALSE(g.longest_path_to({1.0, 1.0}).has_value());
}

TEST(Diagnostics, CountsAndFormat) {
  DiagnosticSink sink;
  sink.note("x", "info");
  sink.warning("y", "watch out");
  sink.error("z", "broken");
  EXPECT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.error_count(), 1u);
  EXPECT_EQ(sink.warning_count(), 1u);
  EXPECT_EQ(sink.diagnostics().size(), 3u);
  EXPECT_NE(sink.str().find("error: z: broken"), std::string::npos);
  sink.clear();
  EXPECT_FALSE(sink.has_errors());
  EXPECT_TRUE(sink.empty());
}

// --- Byte codec -----------------------------------------------------------------

enum class Colour : std::uint8_t { kRed, kGreen, kBlue };
constexpr std::size_t kColourCount = 3;

TEST(Bytes, EveryPrimitiveRoundTrips) {
  std::string buffer;
  ByteWriter out(buffer);
  out.u8(0xab);
  out.u16(0x0102);
  out.u32(0x01020304);
  out.u64(0x0102030405060708ull);
  out.i64(-5);
  out.boolean(true);
  out.boolean(false);
  out.str(std::string("nul\0inside", 10));
  out.bytes("raw");
  out.list(std::vector<std::uint32_t>{7, 8}, [](ByteWriter& io, std::uint32_t v) { io.u32(v); });
  out.enumerated(Colour::kBlue, kColourCount);
  ByteWriter::put(out.extend(4), std::uint32_t{0x0a0b0c0d});
  EXPECT_EQ(buffer.size(), 1 + 2 + 4 + 8 + 8 + 1 + 1 + (4 + 10) + 3 + (4 + 8) + 1 + 4u);
  EXPECT_EQ(buffer.substr(3, 4), "\x04\x03\x02\x01");  // Little-endian.

  ByteReader in(buffer);
  EXPECT_EQ(in.u8(), 0xab);
  EXPECT_EQ(in.u16(), 0x0102);
  std::uint32_t u32 = 0;
  in.u32(u32);
  EXPECT_EQ(u32, 0x01020304u);
  std::uint64_t u64 = 0;
  in.u64(u64);
  EXPECT_EQ(u64, 0x0102030405060708ull);
  std::int64_t i64 = 0;
  in.i64(i64);
  EXPECT_EQ(i64, -5);
  bool yes = false;
  bool no = true;
  in.boolean(yes);
  in.boolean(no);
  EXPECT_TRUE(yes);
  EXPECT_FALSE(no);
  std::string text;
  in.str(text);
  EXPECT_EQ(text, std::string("nul\0inside", 10));
  EXPECT_EQ(in.bytes(3), "raw");
  std::vector<std::uint32_t> list;
  in.list(list, [](ByteReader& io, std::uint32_t& v) { io.u32(v); });
  EXPECT_EQ(list, (std::vector<std::uint32_t>{7, 8}));
  Colour colour = Colour::kRed;
  in.enumerated(colour, kColourCount);
  EXPECT_EQ(colour, Colour::kBlue);
  EXPECT_EQ(in.u32(), 0x0a0b0c0du);
  EXPECT_TRUE(in.exhausted());
}

TEST(Bytes, OverrunLatchesAndLaterReadsAreZero) {
  ByteReader in(std::string_view("\x01\x02\x03", 3));
  EXPECT_EQ(in.u32(), 0u);  // Three bytes cannot hold a u32.
  EXPECT_TRUE(in.failed());
  EXPECT_EQ(in.u8(), 0u);   // The bytes are there, but the latch holds.
  std::string text = "kept?";
  in.str(text);
  EXPECT_EQ(text, "");
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_FALSE(in.exhausted());
  ByteReader refused(std::string_view("\x01", 1));
  refused.fail();
  EXPECT_EQ(refused.u8(), 0u);
}

TEST(Bytes, ListRefusesCountAboveRemaining) {
  std::string buffer;
  ByteWriter out(buffer);
  out.u32(5);
  out.bytes("four");
  const auto element = [](ByteReader& io, std::uint8_t& v) { io.u8(v); };
  std::vector<std::uint8_t> items = {9};
  ByteReader in(buffer);
  in.list(items, element);
  EXPECT_TRUE(in.failed());
  EXPECT_EQ(items, std::vector<std::uint8_t>{9});  // Refused before resizing.

  buffer += "!";  // Now exactly five one-byte elements follow the count.
  ByteReader exact(buffer);
  exact.list(items, element);
  EXPECT_TRUE(exact.exhausted());
  EXPECT_EQ(items.size(), 5u);

  ByteReader hostile(std::string_view("\xff\xff\xff\xff", 4));
  hostile.list(items, element);
  EXPECT_TRUE(hostile.failed());
}

TEST(Bytes, ListIntoReusedTargetKeepsElementCapacity) {
  std::string buffer;
  ByteWriter out(buffer);
  const std::vector<std::pair<std::string, std::vector<std::uint32_t>>> source = {
      {"a", {1}}, {"b", {2, 3}}};
  const auto walk = [](auto& io, auto& entry) {
    io.str(entry.first);
    io.list(entry.second, [](auto& io, auto& v) { io.u32(v); });
  };
  out.list(source, walk);

  std::vector<std::pair<std::string, std::vector<std::uint32_t>>> target(2);
  for (auto& [name, values] : target) {
    name.reserve(64);
    values.reserve(64);
  }
  const char* name_data = target[1].first.data();
  const std::uint32_t* values_data = target[1].second.data();
  ByteReader in(buffer);
  in.list(target, walk);
  ASSERT_TRUE(in.exhausted());
  EXPECT_EQ(target, source);
  EXPECT_EQ(target[1].first.data(), name_data);
  EXPECT_GE(target[1].first.capacity(), 64u);
  EXPECT_EQ(target[1].second.data(), values_data);
  EXPECT_GE(target[1].second.capacity(), 64u);
}

TEST(Bytes, EnumeratedRefusesOutOfRange) {
  Colour colour = Colour::kRed;
  ByteReader last(std::string_view("\x02", 1));
  last.enumerated(colour, kColourCount);
  EXPECT_TRUE(last.exhausted());
  EXPECT_EQ(colour, Colour::kBlue);
  ByteReader beyond(std::string_view("\x03", 1));
  beyond.enumerated(colour, kColourCount);
  EXPECT_TRUE(beyond.failed());
}

}  // namespace
}  // namespace umlsoc::support
