// The configuration algebra of UML state machines, defined once and shared
// by every executor (DESIGN.md "AOT statechart compilation"):
//
//  * MachineTables — pre-order index tables of one machine (vertices,
//    regions, transitions) and the pure queries over a configuration
//    bitset: transition domain, exit-set order, conflict claim, completion.
//  * ExecState — the execution state both engines hold (configuration and
//    final-flag bits, history slots, variables, event pools, counters),
//    with the one snapshot capture/restore and the queue/deferral loop.
//  * Walk — the one exit/effect/entry walk of a firing. In record mode it
//    emits a Step program against a symbolic configuration (the compiler
//    memoizes these into plans; the flattener reads successor leaves off
//    them); in live mode it runs behaviors and the state listener against
//    an ExecState (the interpreter fires every transition this way, the
//    compiled engine its dynamic candidates).
//
// Vertices and regions are numbered in pre-order over the region tree
// (StateMachine::all_vertices / all_regions), so everything nested inside a
// region or state occupies one contiguous index range.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "statechart/engine.hpp"
#include "statechart/model.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::statechart::semantics {

/// Step opcodes of a firing program, executed in order. `a`/`b` operands
/// are pre-order vertex/region indices or pool offsets.
enum class Op : std::uint8_t {
  kRecordShallow,  ///< a = region, b = state: latch shallow history.
  kRecordDeep,     ///< a = region, b = leaf_pool offset (count, leaves...).
  kExitState,      ///< a = state: exit behavior, clear bit, listener.
  kClearFinal,     ///< a = final vertex: clear its flag.
  kEffect,         ///< a = transition row: run its effect behavior.
  kEnterState,     ///< a = state: set bit, entry/do behaviors, listener.
  kEnterFinal,     ///< a = final vertex: set its flag.
  kTerminate,      ///< Kill the instance (clear configuration and queue).
};

struct Step {
  Op op = Op::kEffect;
  std::uint32_t a = 0;
  std::uint32_t b = 0;
};

/// One transition of the machine in flat form (row of the table).
struct TransitionRow {
  const Transition* origin = nullptr;
  std::uint32_t source = 0;  ///< Pre-order vertex index.
  std::uint32_t target = 0;
  std::uint32_t domain = 0;  ///< Pre-order region index (external only).
  bool internal = false;
  bool completion = false;
};

struct VertexInfo {
  VertexKind kind = VertexKind::kState;
  std::int32_t parent_state = -1;  ///< Vertex index of containing composite.
  std::uint32_t container = 0;     ///< Region index.
  std::uint16_t depth = 0;
  const Vertex* vertex = nullptr;
  const State* state = nullptr;          ///< Non-null for kState.
  std::vector<std::uint32_t> regions;    ///< Composite: child region indices.
  std::vector<std::uint32_t> outgoing;   ///< TransitionRow indices, decl order.
};

struct RegionInfo {
  const Region* region = nullptr;
  std::int32_t owner = -1;                  ///< Owner state vertex index.
  std::int32_t initial = -1;                ///< Default-entry TransitionRow.
  std::uint32_t first = 0;                  ///< Vertices nested inside, at any
  std::uint32_t end = 0;                    ///< depth: [first, end).
  std::vector<std::uint32_t> child_states;  ///< Direct children, decl order.
  std::vector<std::uint32_t> finals;        ///< Direct final vertices.
};

[[nodiscard]] constexpr bool is_branch(VertexKind kind) {
  return kind == VertexKind::kChoice || kind == VertexKind::kJunction;
}

[[nodiscard]] inline bool test_bit(const std::uint64_t* bits, std::uint32_t index) {
  return (bits[index >> 6] >> (index & 63)) & 1u;
}
inline void set_bit(std::uint64_t* bits, std::uint32_t index) {
  bits[index >> 6] |= std::uint64_t{1} << (index & 63);
}
inline void clear_bit(std::uint64_t* bits, std::uint32_t index) {
  bits[index >> 6] &= ~(std::uint64_t{1} << (index & 63));
}

/// Index tables of one machine plus the pure configuration queries. A
/// configuration is a bitset over vertex indices: active states and the
/// flags of active final states.
class MachineTables {
 public:
  explicit MachineTables(const StateMachine& machine);

  const StateMachine* machine = nullptr;
  std::vector<VertexInfo> vertices;
  std::vector<RegionInfo> regions;
  std::vector<TransitionRow> transitions;
  std::unordered_map<const Vertex*, std::uint32_t> vertex_index;
  std::uint32_t words = 1;                 ///< Bitset width in 64-bit words.
  std::vector<std::uint64_t> state_mask;   ///< Bits of kState vertices.

  /// True when `vertex` lies (at any depth) inside `region`.
  [[nodiscard]] bool within(std::uint32_t vertex, std::uint32_t region) const {
    return regions[region].first <= vertex && vertex < regions[region].end;
  }
  /// Innermost region containing both vertices (the transition domain).
  [[nodiscard]] std::uint32_t domain(std::uint32_t source, std::uint32_t target) const;

  /// Active states inside `region`, innermost first (depth descending, then
  /// document order): the exit order, and the selection priority order.
  void active_innermost_first(const std::uint64_t* bits, std::uint32_t region,
                              std::vector<std::uint32_t>& out) const;

  /// Conflict claim of firing `transition` out of active `state`: the
  /// active states its exit set would leave (the active part of the domain
  /// for external transitions, just the source for internal ones). Writes
  /// `words` u64s to `out`.
  void claim(const std::uint64_t* bits, std::uint32_t state, std::uint32_t transition,
             std::uint64_t* out) const;

  /// True when every region of `state` has reached a final state (always
  /// true for a simple state): its completion transitions are enabled.
  [[nodiscard]] bool state_completed(const std::uint64_t* bits, std::uint32_t state) const;
  [[nodiscard]] bool region_in_final(const std::uint64_t* bits, std::uint32_t region) const;
  /// True when some active state defers `event`.
  [[nodiscard]] bool defers(const std::uint64_t* bits, std::string_view event) const;

  /// Calls fn(state, transition) for every transition `trigger` enables
  /// out of an active state, in selection priority order (innermost first,
  /// document order, declaration order within a state). A null trigger
  /// enumerates completion transitions of completed states. Guards are not
  /// evaluated. `order` is scratch.
  template <class Fn>
  void for_each_candidate(const std::uint64_t* bits, const std::string* trigger,
                          std::vector<std::uint32_t>& order, Fn&& fn) const {
    active_innermost_first(bits, 0, order);
    for (const std::uint32_t state : order) {
      for (const std::uint32_t transition : vertices[state].outgoing) {
        const TransitionRow& row = transitions[transition];
        if (trigger != nullptr) {
          if (row.origin->trigger() != *trigger) continue;
        } else if (!row.completion || !state_completed(bits, state)) {
          continue;
        }
        fn(state, transition);
      }
    }
  }

  // Introspection shared by both engines.
  [[nodiscard]] bool is_in(const std::uint64_t* bits, std::string_view state_name) const;
  [[nodiscard]] std::vector<std::string> active_leaf_names(const std::uint64_t* bits) const;

  /// Calls fn(index) for every set bit of `bits`, ascending.
  template <class Fn>
  void for_each_set(const std::uint64_t* bits, Fn&& fn) const {
    for (std::uint32_t w = 0; w < words; ++w) {
      for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
        fn(w * 64 + static_cast<std::uint32_t>(std::countr_zero(word)));
      }
    }
  }
};

/// Execution state of one engine, in index/bitset form.
struct ExecState {
  explicit ExecState(const MachineTables& tables);

  std::vector<std::uint64_t> bits;  ///< Active states + final flags.
  std::vector<std::int32_t> shallow;             ///< Per region: state or -1.
  std::vector<std::uint8_t> deep_set;            ///< Per region: slot engaged.
  std::vector<std::vector<std::uint32_t>> deep;  ///< Per region: leaves.
  std::unordered_map<std::string, std::int64_t> variables;
  std::deque<Event> queue;
  std::vector<Event> deferred;
  bool started = false;
  bool terminated = false;
  std::uint64_t events_processed = 0;
  std::uint64_t transitions_fired = 0;
  std::uint64_t errors_raised = 0;
  std::uint64_t errors_unhandled = 0;

  [[nodiscard]] std::int64_t variable(const std::string& name) const;

  void capture_into(InstanceSnapshot& out, const MachineTables& tables) const;
  /// Validates every index of `snapshot` against `tables` before mutating
  /// anything; on failure reports through `sink` and leaves this unchanged.
  bool restore(const InstanceSnapshot& snapshot, const MachineTables& tables,
               support::DiagnosticSink& sink);

  /// Processes queued events until the pool is empty; `rtc_step(event)`
  /// returns how many transitions it fired. A configuration change recalls
  /// deferred events ahead of newer queue entries (UML deferral).
  template <class Rtc>
  void run_to_quiescence(Rtc&& rtc_step) {
    while (!queue.empty()) {
      Event event = std::move(queue.front());
      queue.pop_front();
      ++events_processed;
      const std::size_t fired = rtc_step(event);
      if (fired > 0 && !deferred.empty()) {
        for (auto it = deferred.rbegin(); it != deferred.rend(); ++it) {
          queue.push_front(std::move(*it));
        }
        deferred.clear();
      }
    }
  }

  /// Engine::dispatch: queue at the back, process once started.
  template <class Rtc>
  bool dispatch(Event event, Rtc&& rtc_step) {
    if (terminated) return false;
    const std::uint64_t fired_before = transitions_fired;
    queue.push_back(std::move(event));
    if (started) run_to_quiescence(rtc_step);
    return transitions_fired != fired_before;
  }

  void post_error(Event event) {
    ++errors_raised;
    queue.push_front(std::move(event));
  }

  /// Engine::dispatch_error: queue at the front; unhandled errors count.
  template <class Rtc>
  bool dispatch_error(Event event, Rtc&& rtc_step) {
    if (terminated) return false;
    const std::uint64_t fired_before = transitions_fired;
    post_error(std::move(event));
    if (started) run_to_quiescence(rtc_step);
    const bool handled = transitions_fired != fired_before;
    if (!handled) ++errors_unhandled;
    return handled;
  }
};

/// Reusable buffers of the walk (steady-state allocation-free firing).
struct WalkScratch {
  std::vector<std::uint32_t> pending;  ///< Entered composites, FIFO from `head`.
  std::size_t head = 0;
  std::vector<std::uint32_t> exits;
  std::vector<std::uint32_t> leaves;
  std::vector<std::uint32_t> segments;  ///< Resolved compound-transition path.
};

/// Record-mode output: the step program of one walk.
struct Recording {
  std::vector<Step>* steps = nullptr;
  std::vector<std::uint32_t>* leaf_pool = nullptr;
  /// Set when the walk reaches a vertex whose outcome depends on run-time
  /// state (history memory, choice/junction guards); recording stops.
  bool dynamic = false;
  /// Steps size where the entry phase of the last fire() began.
  std::size_t entry_begin = 0;
};

/// Live-mode context: the state the walk mutates and the hooks it calls.
struct Live {
  ExecState& state;
  ActionContext& context;
  const Engine::StateListener& listener;
  std::vector<std::string>* trace = nullptr;  ///< Interpreter trace, if on.
};

/// The exit/effect/entry walk of the run-to-completion step. One Walk
/// covers one firing (or one default entry); it is cheap to construct.
class Walk {
 public:
  /// Record mode over `bits`, a scratch copy of a configuration.
  Walk(const MachineTables& tables, std::vector<std::uint64_t>& bits, Recording& recording,
       WalkScratch& scratch);
  /// Live mode over `live.state`.
  Walk(const MachineTables& tables, Live& live, WalkScratch& scratch);

  /// Fires a selected transition: an internal one runs its effect only; an
  /// external one resolves its choice/junction path, exits the active part
  /// of the domain (history recorded first), clears final flags there, runs
  /// the segment effects, and enters the target. Returns false when the
  /// path cannot be resolved (nothing runs).
  bool fire(std::uint32_t transition);
  /// Enters `vertex` from `scope`: the ancestor chain outermost first, then
  /// the vertex itself (state, final, history restore, terminate), then —
  /// at the outermost call — default entry of every entered composite's
  /// still-empty regions, in FIFO order.
  void enter(std::uint32_t vertex, std::uint32_t scope);
  /// Default entry of `region` through its initial pseudostate.
  void default_enter(std::uint32_t region);

 private:
  [[nodiscard]] bool tracing() const { return live_ != nullptr && live_->trace != nullptr; }
  void note(std::string_view what, const std::string& name);
  [[nodiscard]] bool stopped() const { return recording_ != nullptr && recording_->dynamic; }
  void emit(Op op, std::uint32_t a, std::uint32_t b = 0) {
    recording_->steps->push_back(Step{op, a, b});
  }

  /// Follows the choice/junction chain from `transition` into
  /// scratch_.segments; returns the final target, or -1 when unresolvable
  /// (or, recording, when a guard would have to be evaluated).
  std::int64_t resolve(std::uint32_t transition);
  void record_history(std::uint32_t exiting);
  void exit_state(std::uint32_t state);
  void effect(std::uint32_t transition);
  void enter_ancestors(std::uint32_t vertex, std::uint32_t scope);
  void enter_state(std::uint32_t state);
  void enter_history(std::uint32_t vertex);
  void terminate();

  const MachineTables& tables_;
  std::vector<std::uint64_t>& bits_;
  Recording* recording_ = nullptr;
  Live* live_ = nullptr;
  WalkScratch& scratch_;
  int depth_ = 0;
};

}  // namespace umlsoc::statechart::semantics
