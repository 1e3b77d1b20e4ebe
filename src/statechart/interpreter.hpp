// Run-to-completion executor for state machines (STATEMATE-style semantics,
// paper ref [2]). One instance holds the active configuration, event pool,
// and history memory of one machine execution. It is the reference engine:
// every step selects and fires live through the shared semantics core
// (semantics.hpp), with no plans, and records a trace.
//
// Semantics implemented:
//  * RTC step: one event is dispatched, a maximal conflict-free set of
//    enabled transitions fires (innermost-first priority), then completion
//    (trigger-less) transitions fire until quiescence.
//  * Exit set = active states inside the transition's domain (the innermost
//    region containing source and target); exits run innermost-first,
//    entries outermost-first, effects in between.
//  * Choice/junction chains are resolved when the transition fires, before
//    any of its behaviors run, collecting the segment effects in order
//    (documented simplification for choice: guards see the state before
//    segment effects run).
//  * Shallow history restores the last active direct substate; deep history
//    restores the full leaf configuration of the region.
//  * Events deferred by an active state are retained and recalled — ahead
//    of newer queue entries — after the next configuration change.
//  * Entering a terminate pseudostate kills the instance: the configuration
//    and event pool are dropped and dispatch becomes a no-op.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "statechart/engine.hpp"
#include "statechart/model.hpp"
#include "statechart/semantics.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::statechart {

class StateMachineInstance final : public Engine {
 public:
  /// Bound but not started; call start() to enter the initial configuration.
  explicit StateMachineInstance(const StateMachine& machine);

  /// Enters the top region through its initial pseudostate and runs
  /// completion transitions to quiescence.
  void start() override;

  /// Queues an event and processes the queue to quiescence. Returns true
  /// when at least one transition fired for this event.
  bool dispatch(Event event) override;

  /// Queues without processing (used by actions raising internal events).
  void post(Event event) override;

  /// Events waiting in the ordinary pool (excludes the deferred pool).
  /// Network harnesses (verify::Network) poll this to drain cross-posted
  /// work to quiescence without capturing a snapshot.
  [[nodiscard]] std::size_t pending_events() const override { return exec_.queue.size(); }

  /// Error-event channel: fault monitors (bus ports, watchdogs) report
  /// failures here. Error events jump ahead of the normal pool — an error
  /// preempts pending ordinary work — and are counted separately; an error
  /// event that fires no transition is recorded as unhandled so harnesses
  /// can assert that every declared fault reaches an error state.
  bool dispatch_error(Event event) override;

  /// Queues an error event at the front without processing.
  void post_error(Event event) override;

  /// Processes queued events until the pool is empty.
  void run_to_quiescence() override;

  // --- Introspection --------------------------------------------------------

  [[nodiscard]] const StateMachine& machine() const override { return *tables_.machine; }
  [[nodiscard]] bool is_active(const State& state) const;
  /// True when any active state (at any depth) has this name.
  [[nodiscard]] bool is_in(std::string_view state_name) const override;
  /// Names of active simple (leaf) states, in stable order.
  [[nodiscard]] std::vector<std::string> active_leaf_names() const override;
  /// Active states at any depth, in document order.
  [[nodiscard]] std::vector<const State*> configuration() const;
  /// True when the top region has reached a final state.
  [[nodiscard]] bool is_in_final_state() const override;
  /// True after a terminate pseudostate was reached; the instance is dead
  /// (dispatch becomes a no-op).
  [[nodiscard]] bool is_terminated() const override { return exec_.terminated; }
  [[nodiscard]] bool started() const override { return exec_.started; }

  // --- Observability ---------------------------------------------------------

  /// When enabled (default), records "enter:X" / "exit:X" / "fire:..." /
  /// "event:E" / "discard:E" entries; tests and MSC conformance use this.
  void set_trace_enabled(bool enabled) override { trace_enabled_ = enabled; }
  [[nodiscard]] const std::vector<std::string>& trace() const { return trace_; }
  void clear_trace() { trace_.clear(); }

  [[nodiscard]] std::uint64_t events_processed() const override { return exec_.events_processed; }
  [[nodiscard]] std::uint64_t transitions_fired() const override { return exec_.transitions_fired; }
  [[nodiscard]] std::uint64_t errors_raised() const override { return exec_.errors_raised; }
  [[nodiscard]] std::uint64_t errors_unhandled() const override { return exec_.errors_unhandled; }

  /// Machine-variable store available to guards/effects via ActionContext.
  [[nodiscard]] std::int64_t variable(const std::string& name) const override {
    return exec_.variable(name);
  }
  void set_variable(const std::string& name, std::int64_t value) override {
    exec_.variables[name] = value;
  }

  void set_state_listener(StateListener listener) override { listener_ = std::move(listener); }

  // --- Checkpoint / restore --------------------------------------------------

  /// Captures the instance's execution state in machine-independent,
  /// deterministic form (indices ascending, variables sorted by name).
  [[nodiscard]] InstanceSnapshot capture() const override;
  /// As capture(), but reuses `out`'s buffers — the verify explorer calls
  /// this per exploration step, where a fresh snapshot's allocations are
  /// the dominant cost.
  void capture_into(InstanceSnapshot& out) const override;

  /// Replaces this instance's execution state with `snapshot`. Validates the
  /// snapshot against the bound machine before mutating anything: on any
  /// out-of-range or kind-mismatched index it reports through `sink` and
  /// returns false with the instance unchanged. No entry/exit behaviors run
  /// and no listener fires — restore reproduces state, not history.
  bool restore(const InstanceSnapshot& snapshot, support::DiagnosticSink& sink) override;

  /// Completion-transition microstep bound; exceeding it throws
  /// std::runtime_error (livelock guard).
  static constexpr int kMaxMicrosteps = 10000;

 private:
  void note(std::string entry) {
    if (trace_enabled_) trace_.push_back(std::move(entry));
  }

  /// One RTC step for `event`; returns number of transitions fired.
  std::size_t rtc_step(const Event& event);
  /// Fires completion transitions until none are enabled.
  void run_completions();
  /// Greedy maximal conflict-free selection into selected_ (innermost
  /// priority, guards evaluated now).
  void select_transitions(const Event* event);
  /// Fires the selected transitions whose source is still active; returns
  /// how many were attempted.
  std::size_t fire_selected(const Event* event);

  const semantics::MachineTables tables_;
  semantics::ExecState exec_;
  semantics::WalkScratch walk_scratch_;
  StateListener listener_;
  std::vector<std::string> trace_;
  bool trace_enabled_ = true;

  // Selection scratch (reused across steps).
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> selected_;
  std::vector<std::uint64_t> claim_;
  std::vector<std::uint64_t> claimed_;
};

}  // namespace umlsoc::statechart
