// Flattening of hierarchical (non-orthogonal) state machines into a plain
// transition table: one leaf state is active at a time and each row maps
// (leaf, trigger) to a successor leaf, the last state the shared entry walk
// (semantics.hpp) enters. Consumed by benchmark E3 (flat vs hierarchical
// dispatch) and by the differential harness; the AOT plan-table compiler
// (compile.hpp) generalizes this row/group layout to hierarchical
// configurations.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "statechart/model.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::statechart {

/// One row of the flat transition table.
struct FlatTransition {
  std::size_t from = 0;       // Leaf-state index.
  std::string trigger;        // Event name (flattening rejects completion).
  std::size_t to = 0;         // Leaf-state index.
  const Transition* origin;   // Hierarchical transition this row came from.
};

/// Rows of one (from, trigger) key: a contiguous run in `row_order`, in
/// innermost-first priority order.
struct FlatRowGroup {
  std::size_t from = 0;
  std::string trigger;
  std::size_t first_row = 0;  // Offset into FlatStateMachine::row_order.
  std::size_t row_count = 0;
};

/// Flattened machine: exactly one leaf state is active at a time.
struct FlatStateMachine {
  std::vector<const State*> states;  // Leaf states, stable order.
  std::vector<std::string> state_names;
  std::size_t initial_state = 0;
  std::vector<FlatTransition> transitions;
  /// Dispatch index, sorted by (from, trigger): binary search locates the
  /// group, `row_order` lists its row indices in priority order. Replaces
  /// the old string-keyed hash map — no key formatting or hashing per
  /// dispatch, and the sorted layout is what the RTL generator emits.
  std::vector<FlatRowGroup> groups;
  std::vector<std::size_t> row_order;

  /// Group for (from, trigger), or nullptr when no row matches.
  [[nodiscard]] const FlatRowGroup* find_group(std::size_t from,
                                               std::string_view trigger) const;
};

/// Flattens `machine`. Requirements (else error + nullopt): no orthogonal
/// regions, no history pseudostates, no completion transitions from states,
/// guard-free unconditional default entries (no choice off initial).
/// Guards/effects on event transitions are preserved via `origin`.
[[nodiscard]] std::optional<FlatStateMachine> flatten(const StateMachine& machine,
                                                      support::DiagnosticSink& sink);

/// Minimal executor over a flat table; semantically equivalent to the
/// hierarchical interpreter on flattenable machines (tested property).
class FlatExecutor {
 public:
  explicit FlatExecutor(const FlatStateMachine& flat, StateMachineInstance* guard_host = nullptr)
      : flat_(&flat), guard_host_(guard_host), current_(flat.initial_state) {}

  [[nodiscard]] std::size_t current() const { return current_; }
  [[nodiscard]] const std::string& current_name() const { return flat_->state_names[current_]; }

  /// Dispatches one event; returns true when a row fired. Guards of the
  /// originating hierarchical transitions are honored (evaluated against
  /// `guard_host` when provided).
  bool dispatch(const Event& event);

  [[nodiscard]] std::uint64_t transitions_fired() const { return fired_; }

 private:
  const FlatStateMachine* flat_;
  StateMachineInstance* guard_host_;
  std::size_t current_;
  std::uint64_t fired_ = 0;
};

}  // namespace umlsoc::statechart
