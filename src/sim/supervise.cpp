#include "sim/supervise.hpp"

#include <algorithm>

namespace umlsoc::sim {

std::string_view to_string(UnitHealth health) {
  switch (health) {
    case UnitHealth::kHealthy:
      return "healthy";
    case UnitHealth::kDegraded:
      return "degraded";
    case UnitHealth::kFailed:
      return "failed";
  }
  return "?";
}

std::string_view to_string(CircuitBreaker::State state) {
  switch (state) {
    case CircuitBreaker::State::kClosed:
      return "closed";
    case CircuitBreaker::State::kOpen:
      return "open";
    case CircuitBreaker::State::kHalfOpen:
      return "half-open";
  }
  return "?";
}

std::string_view to_string(RestartStrategy strategy) {
  switch (strategy) {
    case RestartStrategy::kOneForOne:
      return "one-for-one";
    case RestartStrategy::kAllForOne:
      return "all-for-one";
  }
  return "?";
}

// --- HealthRegistry ----------------------------------------------------------

HealthRegistry::UnitId HealthRegistry::register_unit(std::string name) {
  units_.push_back(Unit{std::move(name), UnitHealth::kHealthy});
  return static_cast<UnitId>(units_.size() - 1);
}

HealthRegistry::UnitId HealthRegistry::find(std::string_view name) const {
  for (std::size_t i = 0; i < units_.size(); ++i) {
    if (units_[i].name == name) return static_cast<UnitId>(i);
  }
  return kInvalidUnit;
}

void HealthRegistry::set_health(UnitId unit, UnitHealth health, std::string_view reason) {
  const UnitHealth from = units_[unit].health;
  if (from == health) return;
  units_[unit].health = health;
  ++transitions_;
  for (const Listener& listener : listeners_) listener(unit, from, health, reason);
}

UnitHealth HealthRegistry::aggregate() const {
  UnitHealth worst = UnitHealth::kHealthy;
  for (const Unit& unit : units_) worst = std::max(worst, unit.health);
  return worst;
}

std::string HealthRegistry::str() const {
  std::string out;
  for (const Unit& unit : units_) {
    if (!out.empty()) out += " ";
    out += unit.name + "=" + std::string(to_string(unit.health));
  }
  return out.empty() ? "(no units)" : out;
}

HealthRegistry::Checkpoint HealthRegistry::capture_checkpoint() const {
  Checkpoint out;
  capture_into(out);
  return out;
}

void HealthRegistry::capture_into(Checkpoint& out) const {
  out.health.clear();
  for (const Unit& unit : units_) out.health.push_back(static_cast<std::uint8_t>(unit.health));
  out.transitions = transitions_;
}

bool HealthRegistry::restore_checkpoint(const Checkpoint& checkpoint,
                                        support::DiagnosticSink& sink) {
  if (checkpoint.health.size() != units_.size()) {
    sink.error("health-registry", "snapshot has " + std::to_string(checkpoint.health.size()) +
                                      " units, registry has " +
                                      std::to_string(units_.size()));
    return false;
  }
  for (std::uint8_t value : checkpoint.health) {
    if (value > static_cast<std::uint8_t>(UnitHealth::kFailed)) {
      sink.error("health-registry", "invalid health value " + std::to_string(value));
      return false;
    }
  }
  for (std::size_t i = 0; i < units_.size(); ++i) {
    units_[i].health = static_cast<UnitHealth>(checkpoint.health[i]);
  }
  transitions_ = checkpoint.transitions;
  return true;
}

// --- CircuitBreaker ----------------------------------------------------------

CircuitBreaker::CircuitBreaker(Kernel& kernel, BusMasterPort& port, std::string name)
    : CircuitBreaker(kernel, port, std::move(name), Config{}) {}

CircuitBreaker::CircuitBreaker(Kernel& kernel, BusMasterPort& port, std::string name,
                               Config config)
    : kernel_(kernel), port_(port), name_(std::move(name)), config_(config) {
  config_.window = std::min<std::uint32_t>(std::max<std::uint32_t>(config_.window, 1), 64);
  config_.min_samples = std::max<std::uint32_t>(config_.min_samples, 1);
  open_duration_ps_ = config_.open_duration.picoseconds();
  timer_process_ =
      kernel_.register_process([this] { on_open_elapsed(); }, "breaker." + name_ + ".timer");
}

void CircuitBreaker::emit(const char* event, std::int64_t data) {
  if (emitter_ != nullptr) emitter_(event, data);
}

void CircuitBreaker::set_health(UnitHealth health, std::string_view reason) {
  if (registry_ != nullptr && health_unit_ != HealthRegistry::kInvalidUnit) {
    registry_->set_health(health_unit_, health, reason);
  }
}

void CircuitBreaker::record_outcome(bool failure) {
  const std::uint64_t bit = 1ULL << cursor_;
  if (samples_ == config_.window && (outcomes_ & bit) != 0) --failures_in_window_;
  if (failure) {
    outcomes_ |= bit;
    ++failures_in_window_;
  } else {
    outcomes_ &= ~bit;
  }
  if (samples_ < config_.window) ++samples_;
  cursor_ = (cursor_ + 1) % config_.window;
}

void CircuitBreaker::reset_window() {
  outcomes_ = 0;
  cursor_ = 0;
  samples_ = 0;
  failures_in_window_ = 0;
}

void CircuitBreaker::open(std::string_view cause) {
  state_ = State::kOpen;
  ++stats_.opens;
  reopen_at_ps_ = (kernel_.now() + SimTime(open_duration_ps_)).picoseconds();
  if (!timer_pending_) {
    timer_pending_ = true;
    kernel_.schedule(SimTime(open_duration_ps_), timer_process_);
  }
  set_health(UnitHealth::kDegraded, cause);
  emit("breaker_open", static_cast<std::int64_t>(stats_.opens));
}

void CircuitBreaker::close() {
  state_ = State::kClosed;
  ++stats_.closes;
  reset_window();
  open_duration_ps_ = config_.open_duration.picoseconds();
  set_health(UnitHealth::kHealthy, "breaker closed");
  emit("breaker_closed", static_cast<std::int64_t>(stats_.closes));
}

void CircuitBreaker::force_closed() {
  const bool was_closed = state_ == State::kClosed;
  state_ = State::kClosed;
  probe_in_flight_ = false;
  reset_window();
  open_duration_ps_ = config_.open_duration.picoseconds();
  // A pending timer wakeup finds the breaker closed and falls through.
  if (!was_closed) {
    ++stats_.closes;
    set_health(UnitHealth::kHealthy, "breaker force-closed");
    emit("breaker_closed", static_cast<std::int64_t>(stats_.closes));
  }
}

void CircuitBreaker::on_open_elapsed() {
  timer_pending_ = false;
  if (state_ != State::kOpen) return;  // Stale wakeup (force_closed meanwhile).
  const std::uint64_t now_ps = kernel_.now().picoseconds();
  if (now_ps < reopen_at_ps_) {
    // Re-opened with a longer duration since this wakeup was scheduled.
    timer_pending_ = true;
    kernel_.schedule(SimTime(reopen_at_ps_ - now_ps), timer_process_);
    return;
  }
  state_ = State::kHalfOpen;
  probe_in_flight_ = false;
}

bool CircuitBreaker::admit() {
  switch (state_) {
    case State::kClosed:
      return true;
    case State::kOpen:
      return false;
    case State::kHalfOpen:
      if (probe_in_flight_) return false;
      probe_in_flight_ = true;
      ++stats_.probes;
      return true;
  }
  return false;
}

void CircuitBreaker::on_completion(bool admitted_as_probe, BusStatus status) {
  const bool failure = status != BusStatus::kOk;
  if (failure) {
    ++stats_.failures;
  } else {
    ++stats_.ok;
  }
  if (admitted_as_probe) {
    probe_in_flight_ = false;
    if (state_ != State::kHalfOpen) return;  // force_closed raced the probe.
    if (failure) {
      ++stats_.probe_failures;
      // Failed probe: back to open with the duration scaled up (clamped).
      const std::uint64_t scaled = open_duration_ps_ * config_.reopen_multiplier;
      const bool overflow = config_.reopen_multiplier != 0 &&
                            scaled / config_.reopen_multiplier != open_duration_ps_;
      open_duration_ps_ = std::min(
          overflow ? config_.max_open_duration.picoseconds() : scaled,
          config_.max_open_duration.picoseconds());
      open("probe failed");
    } else {
      close();
    }
    return;
  }
  if (state_ != State::kClosed) return;  // Late completion from before an open.
  record_outcome(failure);
  if (samples_ >= config_.min_samples &&
      static_cast<double>(failures_in_window_) >=
          config_.failure_threshold * static_cast<double>(samples_)) {
    open("failure threshold");
  }
}

void CircuitBreaker::read(std::uint64_t address, MemoryMappedBus::ReadCompletion done) {
  const bool was_half_open = state_ == State::kHalfOpen;
  if (!admit()) {
    ++stats_.fast_failed;
    if (done != nullptr) done(BusStatus::kError, MemoryMappedBus::kBusError);
    return;
  }
  ++stats_.issued;
  const bool as_probe = was_half_open;
  port_.read(address,
             [this, as_probe, done = std::move(done)](BusStatus status, std::uint64_t value) {
               on_completion(as_probe, status);
               if (done != nullptr) done(status, value);
             });
}

void CircuitBreaker::write(std::uint64_t address, std::uint64_t value,
                           MemoryMappedBus::WriteCompletion done) {
  const bool was_half_open = state_ == State::kHalfOpen;
  if (!admit()) {
    ++stats_.fast_failed;
    if (done != nullptr) done(BusStatus::kError);
    return;
  }
  ++stats_.issued;
  const bool as_probe = was_half_open;
  port_.write(address, value, [this, as_probe, done = std::move(done)](BusStatus status) {
    on_completion(as_probe, status);
    if (done != nullptr) done(status);
  });
}

CircuitBreaker::Checkpoint CircuitBreaker::capture_checkpoint() const {
  Checkpoint out;
  out.state = static_cast<std::uint8_t>(state_);
  out.outcomes = outcomes_;
  out.cursor = cursor_;
  out.samples = samples_;
  out.failures_in_window = failures_in_window_;
  out.open_duration_ps = open_duration_ps_;
  out.reopen_at_ps = reopen_at_ps_;
  out.timer_pending = timer_pending_;
  out.probe_in_flight = probe_in_flight_;
  out.stats = stats_;
  return out;
}

bool CircuitBreaker::restore_checkpoint(const Checkpoint& checkpoint,
                                        support::DiagnosticSink& sink) {
  if (checkpoint.state > static_cast<std::uint8_t>(State::kHalfOpen)) {
    sink.error("breaker " + name_, "invalid state " + std::to_string(checkpoint.state));
    return false;
  }
  if (checkpoint.cursor >= config_.window || checkpoint.samples > config_.window ||
      checkpoint.failures_in_window > checkpoint.samples) {
    sink.error("breaker " + name_, "window state out of range for configured window " +
                                       std::to_string(config_.window));
    return false;
  }
  state_ = static_cast<State>(checkpoint.state);
  outcomes_ = checkpoint.outcomes;
  cursor_ = checkpoint.cursor;
  samples_ = checkpoint.samples;
  failures_in_window_ = checkpoint.failures_in_window;
  open_duration_ps_ = checkpoint.open_duration_ps;
  reopen_at_ps_ = checkpoint.reopen_at_ps;
  timer_pending_ = checkpoint.timer_pending;
  probe_in_flight_ = checkpoint.probe_in_flight;
  stats_ = checkpoint.stats;
  return true;
}

// --- Supervisor --------------------------------------------------------------

Supervisor::Supervisor(Kernel& kernel, std::string name, RestartStrategy strategy,
                       RestartPolicy policy)
    : kernel_(kernel), name_(std::move(name)), strategy_(strategy), policy_(policy) {
  restart_process_ =
      kernel_.register_process([this] { drain_due_restarts(); }, "sup." + name_ + ".restart");
  restart_expectation_ = kernel_.register_expectation(restart_expectation_label());
}

Supervisor::ChildId Supervisor::add_child(std::string name, std::function<bool()> restart) {
  Child child;
  child.name = std::move(name);
  child.restart = std::move(restart);
  children_.push_back(std::move(child));
  return static_cast<ChildId>(children_.size() - 1);
}

Supervisor::ChildId Supervisor::attach_child_supervisor(Supervisor& child) {
  const ChildId id = add_child(child.name_, [&child] { return child.reset_and_restart_all(); });
  child.parent_ = this;
  child.id_in_parent_ = id;
  return id;
}

void Supervisor::attach_watchdog(ChildId child, Watchdog& watchdog) {
  children_[child].watchdog = &watchdog;
  watchdog.set_on_trip([this, child] {
    emit("watchdog_trip", static_cast<std::int64_t>(child));
    report_failure(child, "watchdog_trip");
  });
}

void Supervisor::bind_child_health(ChildId child, HealthRegistry& registry,
                                   HealthRegistry::UnitId unit) {
  children_[child].registry = &registry;
  children_[child].health_unit = unit;
}

void Supervisor::set_child_health(ChildId child, UnitHealth health, std::string_view reason) {
  Child& entry = children_[child];
  if (entry.registry != nullptr && entry.health_unit != HealthRegistry::kInvalidUnit) {
    entry.registry->set_health(entry.health_unit, health, reason);
  }
}

void Supervisor::emit(const char* event, std::int64_t data) {
  if (emitter_ != nullptr) emitter_(event, data);
}

SimTime Supervisor::backoff_for(ChildId child) const {
  std::uint64_t delay_ps = policy_.backoff.picoseconds();
  const std::uint32_t level = children_[child].stats.consecutive;
  for (std::uint32_t i = 0; i + 1 < level && i + 1 < 32; ++i) {
    const std::uint64_t scaled = delay_ps * policy_.backoff_multiplier;
    if (policy_.backoff_multiplier != 0 && scaled / policy_.backoff_multiplier != delay_ps) {
      return policy_.max_backoff;  // Saturate instead of wrapping.
    }
    delay_ps = scaled;
  }
  return SimTime(std::min(delay_ps, policy_.max_backoff.picoseconds()));
}

bool Supervisor::budget_allows(std::uint64_t now_ps) {
  const std::uint64_t window_ps = policy_.window.picoseconds();
  const std::uint64_t horizon = now_ps > window_ps ? now_ps - window_ps : 0;
  window_.erase(window_.begin(),
                std::find_if(window_.begin(), window_.end(),
                             [horizon](std::uint64_t at) { return at >= horizon; }));
  if (window_.size() >= policy_.max_restarts) return false;
  window_.push_back(now_ps);
  return true;
}

void Supervisor::report_failure(ChildId child, std::string_view reason) {
  if (suspended_ || gave_up_) return;
  Child& entry = children_[child];
  ++entry.stats.failures;
  const std::uint64_t now_ps = kernel_.now().picoseconds();
  // A failure long after the previous one is a fresh burst; within the
  // intensity window it grows the backoff.
  if (entry.stats.consecutive != 0 &&
      now_ps > entry.last_failure_ps + policy_.window.picoseconds()) {
    entry.stats.consecutive = 0;
  }
  ++entry.stats.consecutive;
  entry.last_failure_ps = now_ps;
  set_child_health(child, UnitHealth::kDegraded, reason);

  if (!budget_allows(now_ps)) {
    escalate(reason);
    return;
  }
  const SimTime delay = backoff_for(child);
  if (strategy_ == RestartStrategy::kAllForOne) {
    for (ChildId id = 0; id < static_cast<ChildId>(children_.size()); ++id) {
      schedule_restart(id, delay);
    }
  } else {
    schedule_restart(child, delay);
  }
}

void Supervisor::report_recovered(ChildId child) {
  children_[child].stats.consecutive = 0;
  set_child_health(child, UnitHealth::kHealthy, "recovered");
}

void Supervisor::schedule_restart(ChildId child, SimTime delay) {
  // At most one pending restart per child: a second failure before the
  // restart ran would otherwise restart the unit twice.
  for (const PendingRestart& entry : pending_) {
    if (entry.child == child) return;
  }
  pending_.push_back(PendingRestart{(kernel_.now() + delay).picoseconds(), child});
  kernel_.expect(restart_expectation_);
  kernel_.schedule(delay, restart_process_);
}

void Supervisor::drain_due_restarts() {
  const std::uint64_t now_ps = kernel_.now().picoseconds();
  due_scratch_.clear();
  std::size_t kept = 0;
  for (PendingRestart& entry : pending_) {
    if (entry.due_ps <= now_ps) {
      due_scratch_.push_back(entry);
    } else {
      pending_[kept++] = entry;
    }
  }
  pending_.resize(kept);
  for (const PendingRestart& due : due_scratch_) {
    kernel_.fulfill(restart_expectation_);
    execute_restart(due.child);
  }
  due_scratch_.clear();
}

void Supervisor::execute_restart(ChildId child) {
  if (suspended_ || gave_up_) return;
  Child& entry = children_[child];
  const bool ok = entry.restart == nullptr || entry.restart();
  if (!ok) {
    ++entry.stats.failed_restarts;
    emit("restart_failed", static_cast<std::int64_t>(child));
    // A failed restart is a fresh failure: backoff grows, budget shrinks.
    report_failure(child, "restart failed");
    return;
  }
  ++entry.stats.restarts;
  set_child_health(child, UnitHealth::kHealthy, "restarted");
  emit("unit_restarted", static_cast<std::int64_t>(child));
  if (entry.watchdog != nullptr) entry.watchdog->arm();
}

void Supervisor::cancel_pending() {
  for (std::size_t i = 0; i < pending_.size(); ++i) kernel_.fulfill(restart_expectation_);
  pending_.clear();
  // Stale drain wakeups find an empty queue and fall through.
}

void Supervisor::escalate(std::string_view reason) {
  ++escalations_;
  cancel_pending();
  for (ChildId id = 0; id < static_cast<ChildId>(children_.size()); ++id) {
    set_child_health(id, UnitHealth::kFailed, "supervisor escalated");
  }
  if (parent_ != nullptr) {
    suspended_ = true;
    emit("supervisor_escalate", static_cast<std::int64_t>(escalations_));
    parent_->report_failure(id_in_parent_, "escalation: " + std::string(reason));
    return;
  }
  const std::string exhausted = "restart budget exhausted (" +
                                std::to_string(policy_.max_restarts) + " restarts in " +
                                policy_.window.str() + "): " + std::string(reason);
  // Root escalation ladder: rollback before terminal give-up. An accepting
  // handler suspends the tree and leaves recovery to the orchestrator; a
  // rejecting (or absent) handler falls through to give-up.
  if (rollback_handler_ != nullptr && rollback_handler_(exhausted)) {
    suspended_ = true;
    emit("supervisor_rollback", static_cast<std::int64_t>(escalations_));
    return;
  }
  gave_up_ = true;
  give_up_reason_ = exhausted;
  emit("supervisor_give_up", static_cast<std::int64_t>(escalations_));
  if (on_give_up_ != nullptr) on_give_up_(give_up_reason_);
}

void Supervisor::force_give_up(std::string_view reason) {
  if (gave_up_) return;
  suspended_ = false;
  gave_up_ = true;
  give_up_reason_ = std::string(reason);
  emit("supervisor_give_up", static_cast<std::int64_t>(escalations_));
  if (on_give_up_ != nullptr) on_give_up_(give_up_reason_);
}

bool Supervisor::reset_and_restart_all() {
  suspended_ = false;
  gave_up_ = false;
  give_up_reason_.clear();
  window_.clear();
  cancel_pending();
  bool all_ok = true;
  for (ChildId id = 0; id < static_cast<ChildId>(children_.size()); ++id) {
    Child& entry = children_[id];
    entry.stats.consecutive = 0;
    const bool ok = entry.restart == nullptr || entry.restart();
    if (!ok) {
      ++entry.stats.failed_restarts;
      all_ok = false;
      continue;
    }
    ++entry.stats.restarts;
    set_child_health(id, UnitHealth::kHealthy, "subtree restarted");
    if (entry.watchdog != nullptr) entry.watchdog->arm();
  }
  return all_ok;
}

std::string Supervisor::str() const {
  std::uint64_t restarts = 0;
  for (const Child& child : children_) restarts += child.stats.restarts;
  std::string out = "sup " + name_ + ": " + std::to_string(children_.size()) + " children, " +
                    std::to_string(restarts) + " restarts, " +
                    std::to_string(escalations_) + " escalations";
  if (gave_up_) out += ", GAVE UP (" + give_up_reason_ + ")";
  if (suspended_) out += ", suspended";
  return out;
}

Supervisor::Checkpoint Supervisor::capture_checkpoint() const {
  Checkpoint out;
  capture_into(out);
  return out;
}

void Supervisor::capture_into(Checkpoint& out) const {
  out.suspended = suspended_;
  out.gave_up = gave_up_;
  out.give_up_reason = give_up_reason_;
  out.escalations = escalations_;
  out.window = window_;
  out.children.clear();
  for (const Child& child : children_) {
    out.children.push_back(Checkpoint::ChildState{
        child.stats.failures, child.stats.restarts, child.stats.failed_restarts,
        child.stats.consecutive, child.last_failure_ps});
  }
  out.pending.clear();
  for (const PendingRestart& entry : pending_) {
    out.pending.push_back(Checkpoint::PendingRestart{entry.due_ps, entry.child});
  }
}

bool Supervisor::restore_checkpoint(const Checkpoint& checkpoint,
                                    support::DiagnosticSink& sink) {
  if (checkpoint.children.size() != children_.size()) {
    sink.error("supervisor " + name_,
               "snapshot has " + std::to_string(checkpoint.children.size()) +
                   " children, supervisor has " + std::to_string(children_.size()));
    return false;
  }
  for (const Checkpoint::PendingRestart& entry : checkpoint.pending) {
    if (entry.child >= children_.size()) {
      sink.error("supervisor " + name_,
                 "pending restart references child " + std::to_string(entry.child));
      return false;
    }
  }
  suspended_ = checkpoint.suspended;
  gave_up_ = checkpoint.gave_up;
  give_up_reason_ = checkpoint.give_up_reason;
  escalations_ = checkpoint.escalations;
  window_ = checkpoint.window;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    const Checkpoint::ChildState& state = checkpoint.children[i];
    children_[i].stats =
        ChildStats{state.failures, state.restarts, state.failed_restarts, state.consecutive};
    children_[i].last_failure_ps = state.last_failure_ps;
  }
  pending_.clear();
  for (const Checkpoint::PendingRestart& entry : checkpoint.pending) {
    pending_.push_back(PendingRestart{entry.due_ps, entry.child});
  }
  // The expectation count and the scheduled drain events are restored by the
  // kernel checkpoint; only the queue payload lives here.
  return true;
}

}  // namespace umlsoc::sim
