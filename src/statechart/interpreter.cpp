#include "statechart/interpreter.hpp"

#include <algorithm>
#include <stdexcept>

namespace umlsoc::statechart {

StateMachineInstance::StateMachineInstance(const StateMachine& machine)
    : tables_(machine),
      exec_(tables_),
      claim_(tables_.words, 0),
      claimed_(tables_.words, 0) {}

// --- Introspection -------------------------------------------------------------

bool StateMachineInstance::is_active(const State& state) const {
  auto it = tables_.vertex_index.find(&state);
  return it != tables_.vertex_index.end() && semantics::test_bit(exec_.bits.data(), it->second);
}

bool StateMachineInstance::is_in(std::string_view state_name) const {
  return tables_.is_in(exec_.bits.data(), state_name);
}

std::vector<std::string> StateMachineInstance::active_leaf_names() const {
  return tables_.active_leaf_names(exec_.bits.data());
}

std::vector<const State*> StateMachineInstance::configuration() const {
  std::vector<const State*> states;
  tables_.for_each_set(exec_.bits.data(), [&](std::uint32_t index) {
    if (const State* state = tables_.vertices[index].state) states.push_back(state);
  });
  return states;
}

bool StateMachineInstance::is_in_final_state() const {
  return tables_.region_in_final(exec_.bits.data(), 0);
}

// --- Lifecycle -------------------------------------------------------------------

void StateMachineInstance::start() {
  if (exec_.started) return;
  exec_.started = true;
  ActionContext context{*this, nullptr};
  semantics::Live live{exec_, context, listener_, trace_enabled_ ? &trace_ : nullptr};
  semantics::Walk(tables_, live, walk_scratch_).default_enter(0);
  run_completions();
  run_to_quiescence();
}

void StateMachineInstance::post(Event event) { exec_.queue.push_back(std::move(event)); }

bool StateMachineInstance::dispatch(Event event) {
  return exec_.dispatch(std::move(event), [this](const Event& e) { return rtc_step(e); });
}

void StateMachineInstance::post_error(Event event) {
  note("error-event:" + event.name);
  exec_.post_error(std::move(event));
}

bool StateMachineInstance::dispatch_error(Event event) {
  if (!exec_.terminated) note("error-event:" + event.name);
  return exec_.dispatch_error(std::move(event), [this](const Event& e) { return rtc_step(e); });
}

void StateMachineInstance::run_to_quiescence() {
  exec_.run_to_quiescence([this](const Event& e) { return rtc_step(e); });
}

// --- Checkpoint / restore ------------------------------------------------------

InstanceSnapshot StateMachineInstance::capture() const {
  InstanceSnapshot snapshot;
  capture_into(snapshot);
  return snapshot;
}

void StateMachineInstance::capture_into(InstanceSnapshot& snapshot) const {
  exec_.capture_into(snapshot, tables_);
}

bool StateMachineInstance::restore(const InstanceSnapshot& snapshot,
                                   support::DiagnosticSink& sink) {
  if (!exec_.restore(snapshot, tables_, sink)) return false;
  note("snapshot-restore");
  return true;
}

// --- Selection and firing ------------------------------------------------------------

void StateMachineInstance::select_transitions(const Event* event) {
  // Deterministic innermost-first order: depth descending, then document
  // (pre-order) position — a total order, so two instances of the same
  // machine select identically.
  ActionContext context{*this, event};
  const std::uint64_t* bits = exec_.bits.data();
  selected_.clear();
  std::fill(claimed_.begin(), claimed_.end(), 0);
  tables_.for_each_candidate(
      bits, event != nullptr ? &event->name : nullptr, order_,
      [&](std::uint32_t state, std::uint32_t transition) {
        const Guard& guard = tables_.transitions[transition].origin->guard();
        if (guard.fn != nullptr && !guard.fn(context)) return;
        tables_.claim(bits, state, transition, claim_.data());
        for (std::uint32_t w = 0; w < tables_.words; ++w) {
          if (claim_[w] & claimed_[w]) return;
        }
        for (std::uint32_t w = 0; w < tables_.words; ++w) claimed_[w] |= claim_[w];
        selected_.push_back(transition);
      });
}

std::size_t StateMachineInstance::fire_selected(const Event* event) {
  ActionContext context{*this, event};
  semantics::Live live{exec_, context, listener_, trace_enabled_ ? &trace_ : nullptr};
  std::size_t fired = 0;
  for (const std::uint32_t transition : selected_) {
    // An earlier firing in the same step may have exited this source.
    if (!semantics::test_bit(exec_.bits.data(), tables_.transitions[transition].source)) continue;
    if (semantics::Walk(tables_, live, walk_scratch_).fire(transition)) {
      ++exec_.transitions_fired;
    }
    ++fired;
  }
  return fired;
}

std::size_t StateMachineInstance::rtc_step(const Event& event) {
  note("event:" + event.name);
  select_transitions(&event);
  if (selected_.empty()) {
    if (tables_.defers(exec_.bits.data(), event.name)) {
      note("defer:" + event.name);
      exec_.deferred.push_back(event);
      return 0;
    }
    note("discard:" + event.name);
    return 0;
  }
  const std::size_t fired = fire_selected(&event);
  run_completions();
  return fired;
}

void StateMachineInstance::run_completions() {
  for (int microsteps = 0;; ++microsteps) {
    if (microsteps > kMaxMicrosteps) {
      throw std::runtime_error("state machine '" + tables_.machine->name() +
                               "': completion livelock (more than " +
                               std::to_string(kMaxMicrosteps) + " microsteps)");
    }
    select_transitions(nullptr);
    if (selected_.empty()) return;
    (void)fire_selected(nullptr);
  }
}

}  // namespace umlsoc::statechart
