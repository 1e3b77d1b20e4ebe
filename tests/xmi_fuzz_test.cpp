// Robustness property tests: the XML parser and the model readers must
// never crash on malformed input — every failure is a clean diagnostic.
// Targeted corpora cover the parser's hardening edges: deep nesting
// (bounded recursion), numeric character references and CDATA sections.
// (The binary snapshot decoder has its own corpus in
// binary_snapshot_test.cpp.)
#include <gtest/gtest.h>

#include "support/rng.hpp"
#include "uml/synthetic.hpp"
#include "xmi/behavior.hpp"
#include "xmi/serialize.hpp"
#include "xmi/xml.hpp"

namespace umlsoc::xmi {
namespace {

/// Characters biased toward XML structure to hit parser edges.
std::string random_blob(support::Rng& rng, std::size_t length) {
  static const char kAlphabet[] = "<>/=\"'&; \nabcdeXMLid0123&lt;&amp;!-?";
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
  }
  return out;
}

class XmlFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(XmlFuzz, RandomBlobsNeverCrashParser) {
  support::Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::string blob = random_blob(rng, 1 + rng.below(300));
    support::DiagnosticSink sink;
    std::unique_ptr<XmlNode> node = parse_xml(blob, sink);
    // Either it parsed, or it reported why not — never both empty.
    if (node == nullptr) {
      EXPECT_TRUE(sink.has_errors()) << "silent failure on: " << blob;
    }
  }
}

TEST_P(XmlFuzz, RandomBlobsNeverCrashModelReader) {
  support::Rng rng(GetParam() * 31 + 7);
  for (int i = 0; i < 100; ++i) {
    std::string blob = random_blob(rng, 1 + rng.below(300));
    support::DiagnosticSink sink;
    auto model = read_model(blob, sink);
    if (model == nullptr) {
      EXPECT_TRUE(sink.has_errors());
    }
    support::DiagnosticSink sink2;
    auto machine = read_state_machine(blob, sink2);
    if (machine == nullptr) {
      EXPECT_TRUE(sink2.has_errors());
    }
    support::DiagnosticSink sink3;
    auto activity = read_activity(blob, sink3);
    if (activity == nullptr) {
      EXPECT_TRUE(sink3.has_errors());
    }
  }
}

TEST_P(XmlFuzz, MutatedValidDocumentsNeverCrash) {
  // Take a real document and corrupt random spans.
  uml::SyntheticSpec spec;
  spec.seed = GetParam();
  spec.packages = 2;
  auto model = uml::make_synthetic_model(spec);
  const std::string original = write_model(*model);

  support::Rng rng(GetParam() * 101 + 3);
  for (int i = 0; i < 100; ++i) {
    std::string mutated = original;
    const int mutations = 1 + static_cast<int>(rng.below(5));
    for (int m = 0; m < mutations; ++m) {
      std::size_t position = rng.below(mutated.size());
      switch (rng.below(3)) {
        case 0:  // Flip a character.
          mutated[position] = static_cast<char>('!' + rng.below(90));
          break;
        case 1:  // Delete a span.
          mutated.erase(position, 1 + rng.below(8));
          break;
        default:  // Duplicate a span.
          mutated.insert(position, mutated.substr(position, 1 + rng.below(8)));
      }
      if (mutated.empty()) mutated = "<";
    }
    support::DiagnosticSink sink;
    auto reread = read_model(mutated, sink);
    if (reread == nullptr) {
      EXPECT_TRUE(sink.has_errors());
    } else {
      // A mutation that still parses must still yield a sane model.
      EXPECT_GE(reread->element_count(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, XmlFuzz, ::testing::Values(1, 2, 3, 4, 5));

TEST(XmlHardening, DeepNestingIsBoundedNotAStackOverflow) {
  // 10k nested elements: far past the default depth bound. The parser must
  // report a clean diagnostic, not recurse to a crash.
  std::string document;
  for (int i = 0; i < 10000; ++i) document += "<a>";
  for (int i = 0; i < 10000; ++i) document += "</a>";
  support::DiagnosticSink sink;
  EXPECT_EQ(parse_xml(document, sink), nullptr);
  EXPECT_NE(sink.str().find("nesting exceeds maximum depth"), std::string::npos)
      << sink.str();
}

TEST(XmlHardening, DepthBoundIsConfigurable) {
  const std::string document = "<a><b><c/></b></a>";
  XmlParseOptions shallow;
  shallow.max_depth = 2;
  support::DiagnosticSink sink;
  EXPECT_EQ(parse_xml(document, sink, shallow), nullptr);
  EXPECT_TRUE(sink.has_errors());

  XmlParseOptions deep;
  deep.max_depth = 3;
  support::DiagnosticSink ok_sink;
  EXPECT_NE(parse_xml(document, ok_sink, deep), nullptr);
  EXPECT_FALSE(ok_sink.has_errors());
}

TEST(XmlHardening, NumericCharacterReferenceCorpus) {
  // (input fragment, expected decoded text, or "" for a must-fail case).
  const struct {
    const char* fragment;
    const char* decoded;
    bool valid;
  } kCases[] = {
      {"&#65;&#66;", "AB", true},
      {"&#x41;&#x62;", "Ab", true},
      {"&#xe9;", "\xC3\xA9", true},            // Two-byte UTF-8.
      {"&#x20AC;", "\xE2\x82\xAC", true},      // Three-byte UTF-8 (euro).
      {"&#x1F600;", "\xF0\x9F\x98\x80", true}, // Four-byte UTF-8.
      {"&#38;&#60;", "&<", true},              // Escaping XML's own syntax.
      {"&#0;", "", false},                     // NUL forbidden.
      {"&#xD800;", "", false},                 // Surrogate half.
      {"&#x110000;", "", false},               // Past the Unicode ceiling.
      {"&#;", "", false},                      // Empty digits.
      {"&#x;", "", false},
      {"&#abc;", "", false},                   // Non-digits.
      {"&#65", "", false},                     // Unterminated.
  };
  for (const auto& test_case : kCases) {
    const std::string document = std::string("<t>") + test_case.fragment + "</t>";
    support::DiagnosticSink sink;
    std::unique_ptr<XmlNode> node = parse_xml(document, sink);
    if (test_case.valid) {
      ASSERT_NE(node, nullptr) << document << "\n" << sink.str();
      EXPECT_EQ(node->text(), test_case.decoded) << document;
    } else {
      EXPECT_EQ(node, nullptr) << document;
      EXPECT_TRUE(sink.has_errors()) << document;
    }
  }
}

TEST(XmlHardening, NumericReferencesInAttributes) {
  support::DiagnosticSink sink;
  std::unique_ptr<XmlNode> node = parse_xml("<t name=\"&#x48;&#105;\"/>", sink);
  ASSERT_NE(node, nullptr) << sink.str();
  EXPECT_EQ(node->attribute_or("name", ""), "Hi");
}

TEST(XmlHardening, CdataSectionsPassThroughVerbatim) {
  support::DiagnosticSink sink;
  std::unique_ptr<XmlNode> node =
      parse_xml("<t>before <![CDATA[<raw> & &amp; ]] &#65;]]> after</t>", sink);
  ASSERT_NE(node, nullptr) << sink.str();
  // Inside CDATA nothing is decoded; outside, normal text rules apply.
  EXPECT_EQ(node->text(), "before <raw> & &amp; ]] &#65; after");

  support::DiagnosticSink empty_sink;
  std::unique_ptr<XmlNode> empty = parse_xml("<t><![CDATA[]]></t>", empty_sink);
  ASSERT_NE(empty, nullptr) << empty_sink.str();
  EXPECT_EQ(empty->text(), "");
}

TEST(XmlHardening, UnterminatedCdataIsAnError) {
  support::DiagnosticSink sink;
  EXPECT_EQ(parse_xml("<t><![CDATA[never closed</t>", sink), nullptr);
  EXPECT_TRUE(sink.has_errors());
}

TEST(XmlHardening, CdataFuzzNeverCrashes) {
  support::Rng rng(11);
  static const char kAlphabet[] = "<>[]!CDATA&#; ]x";
  for (int i = 0; i < 300; ++i) {
    std::string body;
    for (std::size_t j = 0; j < 1 + rng.below(60); ++j) {
      body += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
    }
    const std::string document = "<t><![CDATA" + body + "</t>";
    support::DiagnosticSink sink;
    std::unique_ptr<XmlNode> node = parse_xml(document, sink);
    if (node == nullptr) {
      EXPECT_TRUE(sink.has_errors()) << "silent failure on: " << document;
    }
  }
}

TEST(XmlHardening, ErrorLocationsCarryLineAndColumn) {
  support::DiagnosticSink sink;
  EXPECT_EQ(parse_xml("<a>\n  <b>\n    <c>&bogus;</c>\n  </b>\n</a>", sink), nullptr);
  EXPECT_NE(sink.str().find("line 3"), std::string::npos) << sink.str();
  EXPECT_NE(sink.str().find("col"), std::string::npos) << sink.str();
}

}  // namespace
}  // namespace umlsoc::xmi
