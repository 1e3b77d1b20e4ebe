// AOT compilation of hierarchical state machines to flat transition-plan
// tables (DESIGN.md "AOT statechart compilation").
//
// For each (configuration, event) pair the compiler precomputes the full
// RTC step plan the interpreter would derive by walking the region tree:
// the conflict-resolved candidate set in innermost-first priority order
// (with per-candidate conflict claim masks), the exit set innermost first
// with its history-record slots, the final-flag clears, the
// transition effect, and the entry set with default/initial completion
// fully linearized. Plans live in flat POD arrays — an extension of the
// flatten.hpp row/group layout from single-leaf machines to hierarchical
// configurations, where a "group" is the plan of one (configuration,
// event) key and its "rows" are candidate transitions.
//
// Configurations (active-state + final-flag bitsets) are interned to dense
// ids. compile() seeds the tables with a breadth-first closure over the
// guard-free successor relation; configurations or events first reached at
// run time (guard outcomes, history restores, snapshot restores) extend
// the tables lazily and are then cached. CompiledMachine::dispatch
// executes a plan with no tree walking and no allocation in steady state.
//
// Plans are recorded by the shared semantics core (semantics.hpp): its
// exit/effect/entry walk runs in record mode against the interned
// configuration. A candidate whose outcome depends on run-time state runs
// that same walk live instead: an entry through a history pseudostate
// (the restored configuration is not known statically; the steps cover
// exit and effect only), and a choice/junction target (its guards pick the
// path, and the path picks the exit set; the whole firing runs live).
// compile() therefore accepts every machine the interpreter runs. The
// differential harness (tests/statechart_differential_test.cpp) holds this
// engine to the interpreter snapshot-for-snapshot, and listener and effect
// order, after every dispatch.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "statechart/engine.hpp"
#include "statechart/model.hpp"
#include "statechart/semantics.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::statechart {

class CompiledMachine;

/// Compiles `machine` into plan tables and returns an executable engine
/// bound to it. Every machine compiles, so the result is never null; the
/// sink is kept for diagnostics. `machine` must outlive the result.
[[nodiscard]] std::unique_ptr<CompiledMachine> compile(const StateMachine& machine,
                                                       support::DiagnosticSink& sink);

/// One compiled machine: the plan tables plus one execution context over
/// them. Implements the full Engine contract — snapshots are
/// interchangeable with the interpreter's.
class CompiledMachine final : public Engine {
 public:
  using Op = semantics::Op;
  using Step = semantics::Step;
  using TransitionRow = semantics::TransitionRow;

  /// One enabled-transition candidate of a plan, in selection priority
  /// order (source depth descending, document order ascending, declaration
  /// order within a source).
  struct Candidate {
    std::uint32_t transition = 0;    ///< TransitionRow index.
    std::uint32_t claim_offset = 0;  ///< words() u64s in claim_pool().
    std::uint32_t first_step = 0;
    std::uint32_t step_count = 0;
    std::uint32_t entry_target = 0;  ///< Dynamic entry only: vertex index.
    std::uint32_t entry_scope = 0;   ///< Dynamic entry only: region index.
    bool internal = false;
    bool has_guard = false;
    /// True when the firing runs the live walk at run time: an entry
    /// through a history pseudostate (the steps cover exit/effect only and
    /// the entry starts at entry_target/entry_scope), or a choice/junction
    /// target (no steps; the whole firing is live).
    bool dynamic_entry = false;
  };

  /// The plan of one (configuration, event) key.
  struct Plan {
    std::uint32_t config = 0;
    std::uint32_t event = 0;  ///< Interned event id; 0 = completion.
    std::uint32_t first_candidate = 0;
    std::uint32_t candidate_count = 0;
    /// Some active state defers the event: park it instead of discarding.
    bool defer_if_unfired = false;
  };

  /// A second engine over the same machine: copies the plan tables (with
  /// every lazily added configuration and plan) and the execution state,
  /// state listener included. A copy shares no mutable state with its
  /// source and extends its own tables from then on. Copying a compiled,
  /// never-started engine is the cheap way to get many fresh engines for
  /// one machine: compile once, copy per instance (the soak's rigs do).
  /// Copying reads the source only, so threads may copy one shared,
  /// never-dispatched prototype concurrently.
  CompiledMachine(const CompiledMachine&) = default;
  CompiledMachine& operator=(const CompiledMachine&) = delete;

  // --- Engine interface ------------------------------------------------------

  [[nodiscard]] const StateMachine& machine() const override { return *tables_.machine; }
  void start() override;
  bool dispatch(Event event) override;
  void post(Event event) override;
  bool dispatch_error(Event event) override;
  void post_error(Event event) override;
  void run_to_quiescence() override;
  /// O(1) from the plan table: false when the (configuration, event) plan
  /// has no candidates, the event is not deferrable here, and no queued
  /// work is pending — dispatch() would provably change nothing.
  [[nodiscard]] bool can_react(const Event& event) override;
  [[nodiscard]] std::size_t pending_events() const override { return exec_.queue.size(); }
  [[nodiscard]] bool is_in(std::string_view state_name) const override;
  [[nodiscard]] std::vector<std::string> active_leaf_names() const override;
  [[nodiscard]] bool is_in_final_state() const override;
  [[nodiscard]] bool is_terminated() const override { return exec_.terminated; }
  [[nodiscard]] bool started() const override { return exec_.started; }
  void set_trace_enabled(bool) override {}  // No trace capture (documented).
  [[nodiscard]] std::uint64_t events_processed() const override { return exec_.events_processed; }
  [[nodiscard]] std::uint64_t transitions_fired() const override { return exec_.transitions_fired; }
  [[nodiscard]] std::uint64_t errors_raised() const override { return exec_.errors_raised; }
  [[nodiscard]] std::uint64_t errors_unhandled() const override { return exec_.errors_unhandled; }
  [[nodiscard]] std::int64_t variable(const std::string& name) const override {
    return exec_.variable(name);
  }
  void set_variable(const std::string& name, std::int64_t value) override {
    exec_.variables[name] = value;
  }
  void set_state_listener(StateListener listener) override { listener_ = std::move(listener); }
  [[nodiscard]] InstanceSnapshot capture() const override;
  void capture_into(InstanceSnapshot& out) const override;
  bool restore(const InstanceSnapshot& snapshot, support::DiagnosticSink& sink) override;

  /// Completion-transition microstep bound, matching the interpreter's
  /// livelock guard (exceeding it throws std::runtime_error).
  static constexpr int kMaxMicrosteps = 10000;

  // --- Table introspection (codegen/software emission, DESIGN.md) -----------

  [[nodiscard]] std::size_t vertex_count() const { return tables_.vertices.size(); }
  [[nodiscard]] std::size_t region_count() const { return tables_.regions.size(); }
  /// Bitset width of configurations and claim masks, in 64-bit words.
  [[nodiscard]] std::size_t words() const { return tables_.words; }
  [[nodiscard]] const std::vector<TransitionRow>& transition_table() const {
    return tables_.transitions;
  }
  [[nodiscard]] const std::vector<Plan>& plan_table() const { return plans_; }
  [[nodiscard]] const std::vector<Candidate>& candidate_table() const { return candidates_; }
  [[nodiscard]] const std::vector<Step>& step_table() const { return steps_; }
  [[nodiscard]] const std::vector<std::uint64_t>& claim_pool() const { return claim_pool_; }
  [[nodiscard]] const std::vector<std::uint32_t>& leaf_pool() const { return leaf_pool_; }
  [[nodiscard]] std::size_t configuration_count() const { return configs_.size(); }
  /// Active state/final vertex indices of an interned configuration,
  /// ascending (states first, then finals).
  [[nodiscard]] std::vector<std::uint32_t> configuration_members(std::uint32_t config) const;
  [[nodiscard]] std::size_t event_count() const { return event_names_.size(); }
  [[nodiscard]] const std::string& event_name(std::uint32_t id) const { return event_names_[id]; }
  [[nodiscard]] std::uint32_t current_configuration() const { return config_id_; }
  /// Approximate resident size of the plan tables (pools + rows + interned
  /// configurations), for the memory-cost accounting in DESIGN.md.
  [[nodiscard]] std::size_t table_bytes() const;

 private:
  friend std::unique_ptr<CompiledMachine> compile(const StateMachine&, support::DiagnosticSink&);

  struct ConfigRec {
    std::uint32_t bits_offset = 0;     ///< words() u64s in config_bits_pool_.
    std::uint32_t members_offset = 0;  ///< Into config_member_pool_.
    std::uint32_t state_count = 0;
    std::uint32_t final_count = 0;
  };

  explicit CompiledMachine(const StateMachine& machine);

  // Table construction (compile time and lazy extension).
  void build_start_program();
  void seed_reachable_plans();
  [[nodiscard]] std::uint32_t intern_config(const std::uint64_t* bits);
  [[nodiscard]] std::uint32_t intern_event(const std::string& name);
  [[nodiscard]] std::uint32_t plan_for(std::uint32_t config, std::uint32_t event_id);
  [[nodiscard]] std::uint32_t build_plan(std::uint32_t config, std::uint32_t event_id);
  void build_fire_program(std::uint32_t config, std::uint32_t transition, Candidate& candidate);

  // Runtime execution.
  [[nodiscard]] std::uint32_t current_config();
  std::size_t rtc_step(const Event& event);
  void run_completions();
  std::size_t select_and_fire(std::uint32_t plan_index, ActionContext& context);
  /// Runs a candidate's recorded program (and its live history entry).
  void execute_candidate(const Candidate& candidate, ActionContext& context);
  void execute_steps(std::uint32_t first, std::uint32_t count, ActionContext& context);

  // --- Static tables ---------------------------------------------------------
  const semantics::MachineTables tables_;

  // --- Interned configurations / events / plans (lazily extended) -----------
  std::vector<ConfigRec> configs_;
  std::vector<std::uint64_t> config_bits_pool_;
  std::vector<std::uint32_t> config_member_pool_;
  std::vector<std::uint32_t> config_slots_;  ///< Open addressing: id or ~0u.
  std::vector<std::string> event_names_;
  std::unordered_map<std::string, std::uint32_t> event_ids_;
  std::vector<Plan> plans_;
  std::vector<Candidate> candidates_;
  std::vector<Step> steps_;
  std::vector<std::uint64_t> claim_pool_;
  std::vector<std::uint32_t> leaf_pool_;
  std::unordered_map<std::uint64_t, std::uint32_t> plan_ids_;
  std::uint32_t start_first_step_ = 0;
  std::uint32_t start_step_count_ = 0;
  bool start_dynamic_ = false;

  // --- Execution state -------------------------------------------------------
  semantics::ExecState exec_;
  std::uint32_t config_id_ = 0;
  bool config_stale_ = false;  ///< Bits changed since config_id_ was interned.
  StateListener listener_;

  // Dispatch scratch (reused; steady-state allocation-free).
  std::vector<std::uint64_t> claimed_scratch_;
  std::vector<std::uint32_t> selected_scratch_;
  semantics::WalkScratch walk_scratch_;
};

}  // namespace umlsoc::statechart
