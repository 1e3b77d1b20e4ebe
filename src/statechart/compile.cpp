#include "statechart/compile.hpp"

#include <algorithm>
#include <bit>
#include <deque>
#include <stdexcept>
#include <unordered_set>

namespace umlsoc::statechart {

namespace {

constexpr std::uint32_t kNoConfig = 0xffffffffu;

/// AOT seeding caps: the breadth-first closure stops here and leaves the
/// remainder to lazy run-time extension (see seed_reachable_plans).
constexpr std::size_t kSeedMaxConfigs = 1024;
constexpr std::size_t kSeedMaxPlans = 16384;

std::uint64_t hash_words(const std::uint64_t* words, std::uint32_t count) {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis.
  for (std::uint32_t w = 0; w < count; ++w) {
    hash ^= words[w];
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

CompiledMachine::CompiledMachine(const StateMachine& machine)
    : tables_(machine), exec_(tables_) {
  event_names_.push_back("");  // Id 0 is the completion pseudo-event.
  event_ids_.emplace("", 0u);
  claimed_scratch_.assign(tables_.words, 0);
  config_id_ = intern_config(exec_.bits.data());
}

// --- Configuration interning --------------------------------------------------------

std::uint32_t CompiledMachine::intern_config(const std::uint64_t* bits) {
  if (config_slots_.empty()) config_slots_.assign(64, kNoConfig);
  const std::uint32_t words = tables_.words;
  const std::uint64_t hash = hash_words(bits, words);
  std::uint32_t mask = static_cast<std::uint32_t>(config_slots_.size() - 1);
  std::uint32_t slot = static_cast<std::uint32_t>(hash) & mask;
  while (config_slots_[slot] != kNoConfig) {
    const std::uint32_t id = config_slots_[slot];
    const std::uint64_t* stored = &config_bits_pool_[configs_[id].bits_offset];
    if (std::equal(stored, stored + words, bits)) return id;
    slot = (slot + 1) & mask;
  }

  // New configuration: copy the bitset and materialize the member lists
  // (states ascending, then finals ascending) used by plan building and
  // capture.
  ConfigRec rec;
  rec.bits_offset = static_cast<std::uint32_t>(config_bits_pool_.size());
  config_bits_pool_.insert(config_bits_pool_.end(), bits, bits + words);
  rec.members_offset = static_cast<std::uint32_t>(config_member_pool_.size());
  for (std::uint32_t w = 0; w < words; ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const std::uint32_t index = w * 64 + static_cast<std::uint32_t>(std::countr_zero(word));
      word &= word - 1;
      if (tables_.vertices[index].kind == VertexKind::kState) {
        config_member_pool_.push_back(index);
        ++rec.state_count;
      }
    }
  }
  for (std::uint32_t w = 0; w < words; ++w) {
    std::uint64_t word = bits[w];
    while (word != 0) {
      const std::uint32_t index = w * 64 + static_cast<std::uint32_t>(std::countr_zero(word));
      word &= word - 1;
      if (tables_.vertices[index].kind == VertexKind::kFinal) {
        config_member_pool_.push_back(index);
        ++rec.final_count;
      }
    }
  }
  const std::uint32_t id = static_cast<std::uint32_t>(configs_.size());
  configs_.push_back(rec);

  if ((configs_.size() + 1) * 4 > config_slots_.size() * 3) {
    std::vector<std::uint32_t> grown(config_slots_.size() * 2, kNoConfig);
    const std::uint32_t grown_mask = static_cast<std::uint32_t>(grown.size() - 1);
    for (std::uint32_t existing = 0; existing < configs_.size(); ++existing) {
      const std::uint64_t* stored = &config_bits_pool_[configs_[existing].bits_offset];
      std::uint32_t probe = static_cast<std::uint32_t>(hash_words(stored, words)) & grown_mask;
      while (grown[probe] != kNoConfig) probe = (probe + 1) & grown_mask;
      grown[probe] = existing;
    }
    config_slots_ = std::move(grown);
  } else {
    config_slots_[slot] = id;
  }
  return id;
}

std::vector<std::uint32_t> CompiledMachine::configuration_members(std::uint32_t config) const {
  const ConfigRec& rec = configs_[config];
  const auto begin = config_member_pool_.begin() + rec.members_offset;
  return std::vector<std::uint32_t>(begin, begin + rec.state_count + rec.final_count);
}

std::uint32_t CompiledMachine::intern_event(const std::string& name) {
  auto it = event_ids_.find(name);
  if (it != event_ids_.end()) return it->second;
  const std::uint32_t id = static_cast<std::uint32_t>(event_names_.size());
  event_names_.push_back(name);
  event_ids_.emplace(name, id);
  return id;
}

// --- Plan building ------------------------------------------------------------------

void CompiledMachine::build_fire_program(std::uint32_t config, std::uint32_t transition,
                                         Candidate& candidate) {
  const TransitionRow& row = tables_.transitions[transition];
  const std::uint64_t* config_bits = &config_bits_pool_[configs_[config].bits_offset];
  candidate.first_step = static_cast<std::uint32_t>(steps_.size());

  // The shared walk in record mode, against a scratch copy of the
  // configuration: history records, exits, final clears, effect, entry.
  std::vector<std::uint64_t> bits(config_bits, config_bits + tables_.words);
  semantics::Recording recording{&steps_, &leaf_pool_};
  semantics::Walk(tables_, bits, recording, walk_scratch_).fire(transition);
  if (recording.dynamic) {
    steps_.resize(recording.entry_begin);
    candidate.dynamic_entry = true;
    candidate.entry_target = row.target;
    candidate.entry_scope = row.domain;
  }
  candidate.step_count = static_cast<std::uint32_t>(steps_.size()) - candidate.first_step;
}

std::uint32_t CompiledMachine::build_plan(std::uint32_t config, std::uint32_t event_id) {
  const std::string& name = event_names_[event_id];
  const std::uint64_t* config_bits = &config_bits_pool_[configs_[config].bits_offset];

  const std::uint32_t first_candidate = static_cast<std::uint32_t>(candidates_.size());
  std::vector<std::uint32_t> order;
  tables_.for_each_candidate(
      config_bits, event_id != 0 ? &name : nullptr, order,
      [&](std::uint32_t state, std::uint32_t transition) {
        const TransitionRow& row = tables_.transitions[transition];
        Candidate candidate;
        candidate.transition = transition;
        candidate.internal = row.internal;
        candidate.has_guard = row.origin->guard().fn != nullptr;
        candidate.claim_offset = static_cast<std::uint32_t>(claim_pool_.size());
        claim_pool_.insert(claim_pool_.end(), tables_.words, 0);
        tables_.claim(config_bits, state, transition, &claim_pool_[candidate.claim_offset]);
        if (!row.internal) build_fire_program(config, transition, candidate);
        candidates_.push_back(candidate);
      });

  const bool defer = event_id != 0 && tables_.defers(config_bits, name);
  const std::uint32_t plan_index = static_cast<std::uint32_t>(plans_.size());
  plans_.push_back(Plan{config, event_id, first_candidate,
                        static_cast<std::uint32_t>(candidates_.size()) - first_candidate, defer});
  plan_ids_.emplace((static_cast<std::uint64_t>(config) << 32) | event_id, plan_index);
  return plan_index;
}

std::uint32_t CompiledMachine::plan_for(std::uint32_t config, std::uint32_t event_id) {
  const std::uint64_t key = (static_cast<std::uint64_t>(config) << 32) | event_id;
  auto it = plan_ids_.find(key);
  if (it != plan_ids_.end()) return it->second;
  return build_plan(config, event_id);
}

// --- AOT seeding --------------------------------------------------------------------

void CompiledMachine::build_start_program() {
  std::vector<std::uint64_t> bits(tables_.words, 0);
  semantics::Recording recording{&steps_, &leaf_pool_};
  start_first_step_ = static_cast<std::uint32_t>(steps_.size());
  semantics::Walk(tables_, bits, recording, walk_scratch_).default_enter(0);
  if (recording.dynamic) {
    steps_.resize(start_first_step_);
    start_dynamic_ = true;
  }
  start_step_count_ = static_cast<std::uint32_t>(steps_.size()) - start_first_step_;
}

namespace {

void apply_steps_to_bits(const std::vector<CompiledMachine::Step>& steps, std::uint32_t first,
                         std::uint32_t count, std::vector<std::uint64_t>& bits) {
  using Op = CompiledMachine::Op;
  for (std::uint32_t i = first; i < first + count; ++i) {
    const CompiledMachine::Step& step = steps[i];
    switch (step.op) {
      case Op::kExitState:
      case Op::kClearFinal:
        semantics::clear_bit(bits.data(), step.a);
        break;
      case Op::kEnterState:
      case Op::kEnterFinal:
        semantics::set_bit(bits.data(), step.a);
        break;
      case Op::kTerminate:
        std::fill(bits.begin(), bits.end(), 0);
        break;
      case Op::kRecordShallow:
      case Op::kRecordDeep:
      case Op::kEffect:
        break;
    }
  }
}

}  // namespace

void CompiledMachine::seed_reachable_plans() {
  if (start_dynamic_) return;  // History on the default path: lazy only.

  // Intern every trigger up front; the seed alphabet is then every known
  // event id (0 is completion).
  for (const TransitionRow& row : tables_.transitions) {
    if (!row.completion) (void)intern_event(row.origin->trigger());
  }
  const std::uint32_t alphabet_size = static_cast<std::uint32_t>(event_names_.size());

  const std::uint32_t words = tables_.words;
  std::vector<std::uint64_t> start_bits(words, 0);
  apply_steps_to_bits(steps_, start_first_step_, start_step_count_, start_bits);
  const std::uint32_t start_config = intern_config(start_bits.data());

  std::deque<std::uint32_t> worklist{start_config};
  std::unordered_set<std::uint32_t> seen{start_config};
  std::vector<std::uint64_t> claimed(words);
  std::vector<std::uint64_t> successor(words);

  while (!worklist.empty()) {
    if (plans_.size() >= kSeedMaxPlans || configs_.size() >= kSeedMaxConfigs) break;
    const std::uint32_t config = worklist.front();
    worklist.pop_front();
    for (std::uint32_t event_id = 0; event_id < alphabet_size; ++event_id) {
      if (plans_.size() >= kSeedMaxPlans) break;
      const std::uint32_t plan_index = plan_for(config, event_id);
      const Plan plan = plans_[plan_index];
      // Guards-open greedy selection (the maximal conflict-free set the
      // runtime would pick when every guard passes).
      std::fill(claimed.begin(), claimed.end(), 0);
      std::vector<std::uint32_t> chosen;
      bool dynamic_any = false;
      for (std::uint32_t i = 0; i < plan.candidate_count; ++i) {
        const Candidate& candidate = candidates_[plan.first_candidate + i];
        const std::uint64_t* claim = &claim_pool_[candidate.claim_offset];
        bool conflict = false;
        for (std::uint32_t w = 0; w < words && !conflict; ++w) {
          if (claim[w] & claimed[w]) conflict = true;
        }
        if (conflict) continue;
        for (std::uint32_t w = 0; w < words; ++w) claimed[w] |= claim[w];
        chosen.push_back(plan.first_candidate + i);
        if (candidate.dynamic_entry) dynamic_any = true;
      }
      if (chosen.empty() || dynamic_any) continue;
      const std::uint64_t* config_bits = &config_bits_pool_[configs_[config].bits_offset];
      std::copy(config_bits, config_bits + words, successor.begin());
      for (const std::uint32_t index : chosen) {
        const Candidate& candidate = candidates_[index];
        if (!candidate.internal) {
          apply_steps_to_bits(steps_, candidate.first_step, candidate.step_count, successor);
        }
      }
      const std::uint32_t next = intern_config(successor.data());
      if (seen.insert(next).second && configs_.size() < kSeedMaxConfigs) {
        worklist.push_back(next);
      }
    }
  }
}

std::unique_ptr<CompiledMachine> compile(const StateMachine& machine,
                                         support::DiagnosticSink& sink) {
  (void)sink;  // Every machine compiles; nothing to report.
  std::unique_ptr<CompiledMachine> compiled(new CompiledMachine(machine));
  compiled->build_start_program();
  compiled->seed_reachable_plans();
  return compiled;
}

// --- Runtime: lifecycle -------------------------------------------------------------

std::uint32_t CompiledMachine::current_config() {
  if (config_stale_) {
    config_id_ = intern_config(exec_.bits.data());
    config_stale_ = false;
  }
  return config_id_;
}

void CompiledMachine::start() {
  if (exec_.started) return;
  exec_.started = true;
  ActionContext context{*this, nullptr};
  if (start_dynamic_) {
    semantics::Live live{exec_, context, listener_};
    semantics::Walk(tables_, live, walk_scratch_).default_enter(0);
  } else {
    execute_steps(start_first_step_, start_step_count_, context);
  }
  config_stale_ = true;
  run_completions();
  run_to_quiescence();
}

void CompiledMachine::post(Event event) { exec_.queue.push_back(std::move(event)); }

bool CompiledMachine::dispatch(Event event) {
  return exec_.dispatch(std::move(event), [this](const Event& e) { return rtc_step(e); });
}

void CompiledMachine::post_error(Event event) { exec_.post_error(std::move(event)); }

bool CompiledMachine::dispatch_error(Event event) {
  return exec_.dispatch_error(std::move(event), [this](const Event& e) { return rtc_step(e); });
}

bool CompiledMachine::can_react(const Event& event) {
  if (!exec_.started || exec_.terminated) return false;
  if (!exec_.queue.empty()) return true;  // Queued work runs regardless of `event`.
  // The plan is built lazily if this (configuration, event) pair was never
  // dispatched — exactly the work dispatch() would do — then cached, so
  // repeated queries are a hash probe. Guards are deliberately ignored:
  // a guarded candidate means "might react", which is the conservative
  // answer this query is allowed to give.
  const std::uint32_t plan_index = plan_for(current_config(), intern_event(event.name));
  const Plan& plan = plans_[plan_index];
  return plan.candidate_count != 0 || plan.defer_if_unfired;
}

void CompiledMachine::run_to_quiescence() {
  exec_.run_to_quiescence([this](const Event& e) { return rtc_step(e); });
}

// --- Runtime: plan execution --------------------------------------------------------

std::size_t CompiledMachine::select_and_fire(std::uint32_t plan_index, ActionContext& context) {
  const Plan plan = plans_[plan_index];
  selected_scratch_.clear();
  std::fill(claimed_scratch_.begin(), claimed_scratch_.end(), 0);
  for (std::uint32_t i = 0; i < plan.candidate_count; ++i) {
    const std::uint32_t index = plan.first_candidate + i;
    const Candidate& candidate = candidates_[index];
    if (candidate.has_guard) {
      const Guard& guard = tables_.transitions[candidate.transition].origin->guard();
      if (guard.fn != nullptr && !guard.fn(context)) continue;
    }
    const std::uint64_t* claim = &claim_pool_[candidate.claim_offset];
    bool conflict = false;
    for (std::uint32_t w = 0; w < tables_.words && !conflict; ++w) {
      if (claim[w] & claimed_scratch_[w]) conflict = true;
    }
    if (conflict) continue;
    for (std::uint32_t w = 0; w < tables_.words; ++w) claimed_scratch_[w] |= claim[w];
    selected_scratch_.push_back(index);
  }
  if (selected_scratch_.empty()) return 0;
  config_stale_ = true;

  std::size_t fired = 0;
  bool fire_live = false;
  for (std::size_t i = 0; i < selected_scratch_.size(); ++i) {
    const Candidate candidate = candidates_[selected_scratch_[i]];
    // An earlier firing in the same step may have exited this source.
    const std::uint32_t source = tables_.transitions[candidate.transition].source;
    if (!semantics::test_bit(exec_.bits.data(), source)) continue;
    ++fired;
    // A choice/junction firing picks its exit set from the resolved target,
    // which may reach beyond its claim; the programs of the candidates
    // after it were recorded against the step's starting configuration,
    // so from then on the step fires live.
    fire_live = fire_live ||
                (candidate.dynamic_entry &&
                 semantics::is_branch(tables_.vertices[candidate.entry_target].kind));
    if (fire_live) {
      semantics::Live live{exec_, context, listener_};
      if (semantics::Walk(tables_, live, walk_scratch_).fire(candidate.transition)) {
        ++exec_.transitions_fired;
      }
      continue;
    }
    execute_candidate(candidate, context);
    ++exec_.transitions_fired;
  }
  return fired;
}

std::size_t CompiledMachine::rtc_step(const Event& event) {
  const std::uint32_t event_id = intern_event(event.name);
  const std::uint32_t plan_index = plan_for(current_config(), event_id);
  ActionContext context{*this, &event};

  // Mirror the interpreter's control flow: deferral applies only when the
  // selection (not the firing) is empty.
  const std::size_t fired = select_and_fire(plan_index, context);
  if (selected_scratch_.empty()) {
    if (plans_[plan_index].defer_if_unfired) exec_.deferred.push_back(event);
    return 0;
  }
  run_completions();
  return fired;
}

void CompiledMachine::run_completions() {
  ActionContext context{*this, nullptr};
  for (int microsteps = 0;; ++microsteps) {
    if (microsteps > kMaxMicrosteps) {
      throw std::runtime_error("state machine '" + tables_.machine->name() +
                               "': completion livelock (more than " +
                               std::to_string(kMaxMicrosteps) + " microsteps)");
    }
    const std::uint32_t plan_index = plan_for(current_config(), 0);
    (void)select_and_fire(plan_index, context);
    if (selected_scratch_.empty()) return;
  }
}

void CompiledMachine::execute_candidate(const Candidate& candidate, ActionContext& context) {
  if (candidate.internal) {
    const Behavior& effect = tables_.transitions[candidate.transition].origin->effect();
    if (effect.fn != nullptr) effect.fn(context);
    return;
  }
  execute_steps(candidate.first_step, candidate.step_count, context);
  if (candidate.dynamic_entry) {
    semantics::Live live{exec_, context, listener_};
    semantics::Walk(tables_, live, walk_scratch_).enter(candidate.entry_target,
                                                        candidate.entry_scope);
  }
}

void CompiledMachine::execute_steps(std::uint32_t first, std::uint32_t count,
                                    ActionContext& context) {
  std::uint64_t* bits = exec_.bits.data();
  for (std::uint32_t i = first; i < first + count; ++i) {
    const Step step = steps_[i];
    switch (step.op) {
      case Op::kRecordShallow:
        exec_.shallow[step.a] = static_cast<std::int32_t>(step.b);
        break;
      case Op::kRecordDeep: {
        exec_.deep_set[step.a] = 1;
        const std::uint32_t count_leaves = leaf_pool_[step.b];
        exec_.deep[step.a].assign(leaf_pool_.begin() + step.b + 1,
                                  leaf_pool_.begin() + step.b + 1 + count_leaves);
        break;
      }
      case Op::kExitState: {
        const State* state = tables_.vertices[step.a].state;
        const Behavior& exit = state->exit_behavior();
        if (!exit.empty() && exit.fn != nullptr) exit.fn(context);
        semantics::clear_bit(bits, step.a);
        if (listener_ != nullptr) listener_(*state, false);
        break;
      }
      case Op::kClearFinal:
        semantics::clear_bit(bits, step.a);
        break;
      case Op::kEffect: {
        const Behavior& effect = tables_.transitions[step.a].origin->effect();
        if (effect.fn != nullptr) effect.fn(context);
        break;
      }
      case Op::kEnterState: {
        if (semantics::test_bit(bits, step.a)) break;
        semantics::set_bit(bits, step.a);
        const State* state = tables_.vertices[step.a].state;
        const Behavior& entry = state->entry();
        if (!entry.empty() && entry.fn != nullptr) entry.fn(context);
        const Behavior& activity = state->do_activity();
        if (!activity.empty() && activity.fn != nullptr) activity.fn(context);
        if (listener_ != nullptr) listener_(*state, true);
        break;
      }
      case Op::kEnterFinal:
        semantics::set_bit(bits, step.a);
        break;
      case Op::kTerminate:
        // UML terminate: the machine ceases immediately; no exit actions run.
        exec_.terminated = true;
        exec_.queue.clear();
        std::fill(exec_.bits.begin(), exec_.bits.end(), 0);
        break;
    }
  }
}

// --- Introspection ------------------------------------------------------------------

bool CompiledMachine::is_in(std::string_view state_name) const {
  return tables_.is_in(exec_.bits.data(), state_name);
}

std::vector<std::string> CompiledMachine::active_leaf_names() const {
  return tables_.active_leaf_names(exec_.bits.data());
}

bool CompiledMachine::is_in_final_state() const {
  return tables_.region_in_final(exec_.bits.data(), 0);
}

std::size_t CompiledMachine::table_bytes() const {
  return steps_.size() * sizeof(Step) + candidates_.size() * sizeof(Candidate) +
         plans_.size() * sizeof(Plan) + tables_.transitions.size() * sizeof(TransitionRow) +
         claim_pool_.size() * sizeof(std::uint64_t) +
         leaf_pool_.size() * sizeof(std::uint32_t) +
         config_bits_pool_.size() * sizeof(std::uint64_t) +
         config_member_pool_.size() * sizeof(std::uint32_t) +
         config_slots_.size() * sizeof(std::uint32_t) + configs_.size() * sizeof(ConfigRec) +
         plan_ids_.size() * (sizeof(std::uint64_t) + sizeof(std::uint32_t));
}

// --- Checkpoint / restore -----------------------------------------------------------

InstanceSnapshot CompiledMachine::capture() const {
  InstanceSnapshot snapshot;
  capture_into(snapshot);
  return snapshot;
}

void CompiledMachine::capture_into(InstanceSnapshot& snapshot) const {
  exec_.capture_into(snapshot, tables_);
}

bool CompiledMachine::restore(const InstanceSnapshot& snapshot, support::DiagnosticSink& sink) {
  if (!exec_.restore(snapshot, tables_, sink)) return false;
  config_id_ = intern_config(exec_.bits.data());
  config_stale_ = false;
  return true;
}

}  // namespace umlsoc::statechart
