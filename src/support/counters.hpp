// Counter blocks: plain structs of std::uint64_t counters that list their
// fields once.
//
// A block declares a static visitor
//
//   template <typename Fn, typename... Blocks>
//   static constexpr void fields(Fn&& fn, Blocks&... blocks);
//
// that calls `fn(rule, blocks.field...)` once per field, in a fixed order.
// Passing one block visits its fields; passing two visits them pairwise.
// Everything that walks a block field by field derives from that visitor:
// folding per-run blocks into a total, deterministic equality, and any wire
// codec (which writes fields in visit order). A field the visitor leaves out
// is caught by covers_layout(), which blocks assert next to their definition.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace umlsoc::support {

/// How one counter field combines across runs, and whether two runs of the
/// same seed must agree on it.
enum class CounterRule : std::uint8_t {
  kSum,      ///< Deterministic count: sums across runs.
  kMax,      ///< Deterministic high-water mark: takes the max across runs.
  kWallSum,  ///< Host-clock nanoseconds: sums, ignored by deterministic_equal.
};

/// Number of fields Block::fields visits.
template <typename Block>
constexpr std::size_t field_count() {
  std::size_t count = 0;
  Block block{};
  Block::fields([&count](CounterRule, const std::uint64_t&) { ++count; }, block);
  return count;
}

/// True when the visitor accounts for every byte of the block: a u64 field
/// added to the struct but not to its visitor makes this false.
template <typename Block>
constexpr bool covers_layout() {
  return field_count<Block>() * sizeof(std::uint64_t) == sizeof(Block);
}

/// Folds `from` into `into`: sums add, high-water marks take the max.
template <typename Block>
constexpr void reduce(Block& into, const Block& from) {
  Block::fields(
      [](CounterRule rule, std::uint64_t& total, const std::uint64_t& value) {
        total = rule == CounterRule::kMax ? std::max(total, value) : total + value;
      },
      into, from);
}

/// Field-wise equality over everything except host-clock fields.
template <typename Block>
constexpr bool deterministic_equal(const Block& a, const Block& b) {
  bool equal = true;
  Block::fields(
      [&equal](CounterRule rule, const std::uint64_t& x, const std::uint64_t& y) {
        equal = equal && (rule == CounterRule::kWallSum || x == y);
      },
      a, b);
  return equal;
}

}  // namespace umlsoc::support
