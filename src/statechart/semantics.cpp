#include "statechart/semantics.hpp"

#include <algorithm>

namespace umlsoc::statechart::semantics {

namespace {

/// Numbers `region` and everything inside it in pre-order — the order of
/// StateMachine::all_regions() and all_vertices() — recording containment.
void number_region(const Region& region, std::int32_t owner, MachineTables& tables) {
  const auto index = static_cast<std::uint32_t>(tables.regions.size());
  tables.regions.emplace_back();
  tables.regions[index].region = &region;
  tables.regions[index].owner = owner;
  tables.regions[index].first = static_cast<std::uint32_t>(tables.vertices.size());
  for (const auto& vertex : region.vertices()) {
    const auto v = static_cast<std::uint32_t>(tables.vertices.size());
    VertexInfo info;
    info.kind = vertex->vertex_kind();
    info.parent_state = owner;
    info.container = index;
    info.depth = owner < 0 ? 0 : static_cast<std::uint16_t>(tables.vertices[owner].depth + 1);
    info.vertex = vertex.get();
    info.state = dynamic_cast<const State*>(vertex.get());
    tables.vertices.push_back(std::move(info));
    tables.vertex_index.emplace(vertex.get(), v);
    if (tables.vertices[v].kind == VertexKind::kState) {
      tables.regions[index].child_states.push_back(v);
    } else if (tables.vertices[v].kind == VertexKind::kFinal) {
      tables.regions[index].finals.push_back(v);
    }
    if (const State* state = tables.vertices[v].state) {
      for (const auto& subregion : state->regions()) {
        tables.vertices[v].regions.push_back(static_cast<std::uint32_t>(tables.regions.size()));
        number_region(*subregion, static_cast<std::int32_t>(v), tables);
      }
    }
  }
  tables.regions[index].end = static_cast<std::uint32_t>(tables.vertices.size());
}

/// Calls fn(index) for each set bit of `bits` within [first, end) whose
/// vertex is a state (`states`) or a final state (`!states`).
template <class Fn>
void for_each_active(const MachineTables& tables, const std::uint64_t* bits, std::uint32_t first,
                     std::uint32_t end, bool states, Fn&& fn) {
  if (first >= end) return;
  const std::uint32_t last_word = (end - 1) >> 6;
  for (std::uint32_t w = first >> 6; w <= last_word; ++w) {
    std::uint64_t word = bits[w] & (states ? tables.state_mask[w] : ~tables.state_mask[w]);
    if (w == first >> 6) word &= ~std::uint64_t{0} << (first & 63);
    if (w == last_word && (end & 63) != 0) word &= (std::uint64_t{1} << (end & 63)) - 1;
    for (; word != 0; word &= word - 1) {
      fn(w * 64 + static_cast<std::uint32_t>(std::countr_zero(word)));
    }
  }
}

/// True when some state nested inside `state` (at any depth) is active.
bool has_active_descendant(const MachineTables& tables, const std::uint64_t* bits,
                           std::uint32_t state) {
  const std::vector<std::uint32_t>& regions = tables.vertices[state].regions;
  if (regions.empty()) return false;
  bool found = false;
  for_each_active(tables, bits, tables.regions[regions.front()].first,
                  tables.regions[regions.back()].end, true, [&](std::uint32_t) { found = true; });
  return found;
}

}  // namespace

// --- MachineTables ----------------------------------------------------------------

MachineTables::MachineTables(const StateMachine& machine) : machine(&machine) {
  number_region(machine.top(), -1, *this);
  words = std::max<std::uint32_t>(1, static_cast<std::uint32_t>((vertices.size() + 63) / 64));
  state_mask.assign(words, 0);
  for (std::uint32_t v = 0; v < vertices.size(); ++v) {
    if (vertices[v].kind == VertexKind::kState) set_bit(state_mask.data(), v);
  }

  std::unordered_map<const Transition*, std::uint32_t> transition_index;
  for (const Transition* transition : machine.all_transitions()) {
    TransitionRow row;
    row.origin = transition;
    row.source = vertex_index.at(&transition->source());
    row.target = vertex_index.at(&transition->target());
    row.internal = transition->is_internal();
    row.completion = transition->is_completion();
    row.domain = domain(row.source, row.target);
    transition_index.emplace(transition, static_cast<std::uint32_t>(transitions.size()));
    transitions.push_back(row);
  }
  for (VertexInfo& info : vertices) {
    for (const Transition* transition : info.vertex->outgoing()) {
      info.outgoing.push_back(transition_index.at(transition));
    }
  }
  for (RegionInfo& info : regions) {
    const Pseudostate* initial = info.region->initial();
    if (initial != nullptr && !initial->outgoing().empty()) {
      info.initial = static_cast<std::int32_t>(transition_index.at(initial->outgoing().front()));
    }
  }
}

std::uint32_t MachineTables::domain(std::uint32_t source, std::uint32_t target) const {
  std::uint32_t current = vertices[source].container;
  for (;;) {
    if (within(target, current)) return current;
    const std::int32_t owner = regions[current].owner;
    if (owner < 0) return 0;  // The top region (index 0) contains everything.
    current = vertices[owner].container;
  }
}

void MachineTables::active_innermost_first(const std::uint64_t* bits, std::uint32_t region,
                                           std::vector<std::uint32_t>& out) const {
  out.clear();
  for_each_active(*this, bits, regions[region].first, regions[region].end, true,
                  [&](std::uint32_t state) { out.push_back(state); });
  std::sort(out.begin(), out.end(), [this](std::uint32_t a, std::uint32_t b) {
    if (vertices[a].depth != vertices[b].depth) return vertices[a].depth > vertices[b].depth;
    return a < b;
  });
}

void MachineTables::claim(const std::uint64_t* bits, std::uint32_t state,
                          std::uint32_t transition, std::uint64_t* out) const {
  std::fill(out, out + words, 0);
  const TransitionRow& row = transitions[transition];
  if (!row.internal) {
    for_each_active(*this, bits, regions[row.domain].first, regions[row.domain].end, true,
                    [&](std::uint32_t member) { set_bit(out, member); });
  }
  set_bit(out, state);
}

bool MachineTables::region_in_final(const std::uint64_t* bits, std::uint32_t region) const {
  for (const std::uint32_t final_index : regions[region].finals) {
    if (test_bit(bits, final_index)) return true;
  }
  return false;
}

bool MachineTables::state_completed(const std::uint64_t* bits, std::uint32_t state) const {
  for (const std::uint32_t region : vertices[state].regions) {
    if (!region_in_final(bits, region)) return false;
  }
  return true;
}

bool MachineTables::defers(const std::uint64_t* bits, std::string_view event) const {
  bool deferred = false;
  for_each_active(*this, bits, 0, static_cast<std::uint32_t>(vertices.size()), true,
                  [&](std::uint32_t state) {
                    if (!deferred && vertices[state].state->defers(event)) deferred = true;
                  });
  return deferred;
}

bool MachineTables::is_in(const std::uint64_t* bits, std::string_view state_name) const {
  bool found = false;
  for_each_active(*this, bits, 0, static_cast<std::uint32_t>(vertices.size()), true,
                  [&](std::uint32_t state) {
                    if (vertices[state].vertex->name() == state_name) found = true;
                  });
  return found;
}

std::vector<std::string> MachineTables::active_leaf_names(const std::uint64_t* bits) const {
  std::vector<std::string> names;
  for_each_active(*this, bits, 0, static_cast<std::uint32_t>(vertices.size()), true,
                  [&](std::uint32_t state) {
                    if (!has_active_descendant(*this, bits, state)) {
                      names.push_back(vertices[state].vertex->name());
                    }
                  });
  std::sort(names.begin(), names.end());
  return names;
}

// --- ExecState ---------------------------------------------------------------------

namespace {

InstanceSnapshot::EventRecord record_event(const Event& event) {
  return InstanceSnapshot::EventRecord{event.name, event.data, event.tag};
}

Event make_event(const InstanceSnapshot::EventRecord& record) {
  return Event{record.name, record.data, record.tag};
}

}  // namespace

ExecState::ExecState(const MachineTables& tables)
    : bits(tables.words, 0),
      shallow(tables.regions.size(), -1),
      deep_set(tables.regions.size(), 0),
      deep(tables.regions.size()) {}

std::int64_t ExecState::variable(const std::string& name) const {
  auto it = variables.find(name);
  return it == variables.end() ? 0 : it->second;
}

void ExecState::capture_into(InstanceSnapshot& snapshot, const MachineTables& tables) const {
  snapshot.started = started;
  snapshot.terminated = terminated;
  snapshot.active_states.clear();
  snapshot.active_finals.clear();
  snapshot.shallow_history.clear();
  snapshot.deep_history.clear();
  snapshot.queue.clear();
  snapshot.deferred.clear();

  tables.for_each_set(bits.data(), [&](std::uint32_t index) {
    if (tables.vertices[index].kind == VertexKind::kState) {
      snapshot.active_states.push_back(index);
    } else {
      snapshot.active_finals.push_back(index);
    }
  });
  for (std::uint32_t region = 0; region < shallow.size(); ++region) {
    if (shallow[region] >= 0) {
      snapshot.shallow_history.emplace_back(region, static_cast<std::uint32_t>(shallow[region]));
    }
  }
  for (std::uint32_t region = 0; region < deep_set.size(); ++region) {
    if (deep_set[region]) snapshot.deep_history.emplace_back(region, deep[region]);
  }

  snapshot.variables.assign(variables.begin(), variables.end());
  std::sort(snapshot.variables.begin(), snapshot.variables.end());

  for (const Event& event : queue) snapshot.queue.push_back(record_event(event));
  for (const Event& event : deferred) snapshot.deferred.push_back(record_event(event));

  snapshot.events_processed = events_processed;
  snapshot.transitions_fired = transitions_fired;
  snapshot.errors_raised = errors_raised;
  snapshot.errors_unhandled = errors_unhandled;
}

bool ExecState::restore(const InstanceSnapshot& snapshot, const MachineTables& tables,
                        support::DiagnosticSink& sink) {
  // Built only on the error paths; successful restores are a hot path.
  auto subject = [&tables] { return "statechart " + tables.machine->name(); };
  auto is_kind = [&tables](std::uint32_t index, VertexKind kind) {
    return index < tables.vertices.size() && tables.vertices[index].kind == kind;
  };

  // Validate everything before touching execution state.
  for (const std::uint32_t index : snapshot.active_states) {
    if (!is_kind(index, VertexKind::kState)) {
      sink.error(subject(), "snapshot active-state index " + std::to_string(index) +
                                " does not name a state in this machine");
      return false;
    }
  }
  for (const std::uint32_t index : snapshot.active_finals) {
    if (!is_kind(index, VertexKind::kFinal)) {
      sink.error(subject(), "snapshot final-state index " + std::to_string(index) +
                                " does not name a final state in this machine");
      return false;
    }
  }
  for (const auto& [region, state] : snapshot.shallow_history) {
    if (region >= tables.regions.size() || !is_kind(state, VertexKind::kState)) {
      sink.error(subject(), "snapshot shallow-history entry (" + std::to_string(region) + ", " +
                                std::to_string(state) + ") is out of range");
      return false;
    }
  }
  for (const auto& [region, leaves] : snapshot.deep_history) {
    if (region >= tables.regions.size()) {
      sink.error(subject(), "snapshot deep-history region index " + std::to_string(region) +
                                " is out of range");
      return false;
    }
    for (const std::uint32_t leaf : leaves) {
      if (!is_kind(leaf, VertexKind::kState)) {
        sink.error(subject(), "snapshot deep-history leaf index " + std::to_string(leaf) +
                                  " does not name a state in this machine");
        return false;
      }
    }
  }
  if (snapshot.terminated && !snapshot.active_states.empty()) {
    sink.error(subject(), "snapshot is terminated but lists active states");
    return false;
  }

  // Apply.
  started = snapshot.started;
  terminated = snapshot.terminated;
  std::fill(bits.begin(), bits.end(), 0);
  for (const std::uint32_t index : snapshot.active_states) set_bit(bits.data(), index);
  for (const std::uint32_t index : snapshot.active_finals) set_bit(bits.data(), index);
  std::fill(shallow.begin(), shallow.end(), -1);
  for (const auto& [region, state] : snapshot.shallow_history) {
    shallow[region] = static_cast<std::int32_t>(state);
  }
  std::fill(deep_set.begin(), deep_set.end(), 0);
  for (auto& slot : deep) slot.clear();
  for (const auto& [region, leaves] : snapshot.deep_history) {
    deep_set[region] = 1;
    deep[region] = leaves;
  }
  variables.clear();
  variables.insert(snapshot.variables.begin(), snapshot.variables.end());
  queue.clear();
  for (const auto& record : snapshot.queue) queue.push_back(make_event(record));
  deferred.clear();
  for (const auto& record : snapshot.deferred) deferred.push_back(make_event(record));
  events_processed = snapshot.events_processed;
  transitions_fired = snapshot.transitions_fired;
  errors_raised = snapshot.errors_raised;
  errors_unhandled = snapshot.errors_unhandled;
  return true;
}

// --- Walk ----------------------------------------------------------------------------

Walk::Walk(const MachineTables& tables, std::vector<std::uint64_t>& bits, Recording& recording,
           WalkScratch& scratch)
    : tables_(tables), bits_(bits), recording_(&recording), scratch_(scratch) {
  scratch_.pending.clear();
  scratch_.head = 0;
  recording.entry_begin = recording.steps->size();
}

Walk::Walk(const MachineTables& tables, Live& live, WalkScratch& scratch)
    : tables_(tables), bits_(live.state.bits), live_(&live), scratch_(scratch) {
  scratch_.pending.clear();
  scratch_.head = 0;
}

void Walk::note(std::string_view what, const std::string& name) {
  if (!tracing()) return;
  std::string entry(what);
  entry += name;
  live_->trace->push_back(std::move(entry));
}

std::int64_t Walk::resolve(std::uint32_t transition) {
  scratch_.segments.clear();
  std::uint32_t current = transition;
  for (int hops = 0; hops < 64; ++hops) {
    scratch_.segments.push_back(current);
    const std::uint32_t target = tables_.transitions[current].target;
    if (!is_branch(tables_.vertices[target].kind)) return target;
    if (recording_ != nullptr) {
      recording_->dynamic = true;  // Guards decide the branch at run time.
      return -1;
    }
    // Choice/junction: first open guard wins; "else" is the fallback. All
    // guards see the state before any segment effect runs.
    std::int64_t chosen = -1;
    std::int64_t else_branch = -1;
    for (const std::uint32_t branch : tables_.vertices[target].outgoing) {
      const Guard& guard = tables_.transitions[branch].origin->guard();
      if (guard.is_else()) {
        if (else_branch < 0) else_branch = branch;
        continue;
      }
      if (guard.fn == nullptr || guard.fn(live_->context)) {
        chosen = branch;
        break;
      }
    }
    if (chosen < 0) chosen = else_branch;
    if (chosen < 0) return -1;
    current = static_cast<std::uint32_t>(chosen);
  }
  return -1;  // Pseudostate cycle.
}

bool Walk::fire(std::uint32_t transition) {
  const TransitionRow& row = tables_.transitions[transition];
  if (tracing()) note("fire:", row.origin->str());
  if (row.internal) {
    effect(transition);
    return true;
  }
  const std::int64_t resolved = resolve(transition);
  if (resolved < 0) {
    if (tracing()) note("error:unresolved-choice:", row.origin->str());
    return false;
  }
  const auto target = static_cast<std::uint32_t>(resolved);
  const std::uint32_t domain = tables_.domain(row.source, target);

  // Exit set: the active part of the domain, innermost first. History is
  // recorded first, while the children are still in the configuration.
  tables_.active_innermost_first(bits_.data(), domain, scratch_.exits);
  for (const std::uint32_t exiting : scratch_.exits) {
    if (!tables_.vertices[exiting].regions.empty()) record_history(exiting);
  }
  for (const std::uint32_t exiting : scratch_.exits) exit_state(exiting);

  // Clear final flags inside the domain: the region is being re-entered.
  for_each_active(tables_, bits_.data(), tables_.regions[domain].first,
                  tables_.regions[domain].end, false, [&](std::uint32_t final_index) {
                    clear_bit(bits_.data(), final_index);
                    if (recording_ != nullptr) emit(Op::kClearFinal, final_index);
                  });

  for (const std::uint32_t segment : scratch_.segments) effect(segment);
  if (recording_ != nullptr) recording_->entry_begin = recording_->steps->size();
  enter(target, domain);
  return true;
}

void Walk::record_history(std::uint32_t exiting) {
  for (const std::uint32_t region : tables_.vertices[exiting].regions) {
    const RegionInfo& info = tables_.regions[region];
    // Shallow: the active direct child (the last one in declaration order).
    std::int32_t direct_child = -1;
    for (const std::uint32_t child : info.child_states) {
      if (test_bit(bits_.data(), child)) direct_child = static_cast<std::int32_t>(child);
    }
    if (direct_child >= 0) {
      if (recording_ != nullptr) {
        emit(Op::kRecordShallow, region, static_cast<std::uint32_t>(direct_child));
      } else {
        live_->state.shallow[region] = direct_child;
      }
    }
    // Deep: the active leaves inside the region, in document order.
    std::vector<std::uint32_t>& leaves = scratch_.leaves;
    leaves.clear();
    for_each_active(tables_, bits_.data(), info.first, info.end, true, [&](std::uint32_t state) {
      if (!has_active_descendant(tables_, bits_.data(), state)) leaves.push_back(state);
    });
    if (leaves.empty()) continue;
    if (recording_ != nullptr) {
      std::vector<std::uint32_t>& pool = *recording_->leaf_pool;
      const auto offset = static_cast<std::uint32_t>(pool.size());
      pool.push_back(static_cast<std::uint32_t>(leaves.size()));
      pool.insert(pool.end(), leaves.begin(), leaves.end());
      emit(Op::kRecordDeep, region, offset);
    } else {
      live_->state.deep_set[region] = 1;
      live_->state.deep[region].assign(leaves.begin(), leaves.end());
    }
  }
}

void Walk::exit_state(std::uint32_t state) {
  if (recording_ != nullptr) {
    clear_bit(bits_.data(), state);
    emit(Op::kExitState, state);
    return;
  }
  const State& model_state = *tables_.vertices[state].state;
  const Behavior& exit = model_state.exit_behavior();
  if (!exit.empty()) {
    note("exitAction:", model_state.name());
    if (exit.fn != nullptr) exit.fn(live_->context);
  }
  note("exit:", model_state.name());
  clear_bit(bits_.data(), state);
  if (live_->listener != nullptr) live_->listener(model_state, false);
}

void Walk::effect(std::uint32_t transition) {
  const Behavior& behavior = tables_.transitions[transition].origin->effect();
  if (recording_ != nullptr) {
    if (!behavior.empty()) emit(Op::kEffect, transition);
  } else if (behavior.fn != nullptr) {
    behavior.fn(live_->context);
  }
}

void Walk::enter_ancestors(std::uint32_t vertex, std::uint32_t scope) {
  const VertexInfo& info = tables_.vertices[vertex];
  if (info.container == scope || info.parent_state < 0) return;
  const auto parent = static_cast<std::uint32_t>(info.parent_state);
  enter_ancestors(parent, scope);
  enter_state(parent);
}

void Walk::enter_state(std::uint32_t state) {
  if (test_bit(bits_.data(), state)) return;
  set_bit(bits_.data(), state);
  const bool composite = !tables_.vertices[state].regions.empty();
  if (recording_ != nullptr) {
    emit(Op::kEnterState, state);
    if (composite) scratch_.pending.push_back(state);
    return;
  }
  const State& model_state = *tables_.vertices[state].state;
  note("enter:", model_state.name());
  if (!model_state.entry().empty()) {
    note("entryAction:", model_state.name());
    if (model_state.entry().fn != nullptr) model_state.entry().fn(live_->context);
  }
  const Behavior& activity = model_state.do_activity();
  if (!activity.empty() && activity.fn != nullptr) activity.fn(live_->context);
  if (composite) scratch_.pending.push_back(state);
  if (live_->listener != nullptr) live_->listener(model_state, true);
}

void Walk::enter_history(std::uint32_t vertex) {
  const VertexInfo& info = tables_.vertices[vertex];
  const std::uint32_t region = info.container;
  ExecState& state = live_->state;
  if (info.kind == VertexKind::kShallowHistory && state.shallow[region] >= 0) {
    note("history:restore-shallow:", tables_.regions[region].region->name());
    enter(static_cast<std::uint32_t>(state.shallow[region]), region);
  } else if (info.kind == VertexKind::kDeepHistory && state.deep_set[region]) {
    note("history:restore-deep:", tables_.regions[region].region->name());
    // The slot is only written by exit-phase records, never by entry, so
    // iterating it while entering is safe.
    for (const std::uint32_t leaf : state.deep[region]) enter(leaf, region);
  } else if (!info.outgoing.empty()) {
    // No memory yet: the history vertex's own transition is the default.
    const std::uint32_t fallback = info.outgoing.front();
    effect(fallback);
    enter(tables_.transitions[fallback].target, region);
  } else {
    default_enter(region);
  }
}

void Walk::terminate() {
  // UML terminate: the machine ceases immediately; no exit actions run.
  std::fill(bits_.begin(), bits_.end(), 0);
  if (recording_ != nullptr) {
    emit(Op::kTerminate, 0);
    return;
  }
  live_->state.terminated = true;
  live_->state.queue.clear();
  note("terminate", {});
}

void Walk::enter(std::uint32_t vertex, std::uint32_t scope) {
  if (stopped()) return;
  ++depth_;
  enter_ancestors(vertex, scope);

  const VertexInfo& info = tables_.vertices[vertex];
  switch (info.kind) {
    case VertexKind::kState:
      enter_state(vertex);
      break;
    case VertexKind::kFinal:
      set_bit(bits_.data(), vertex);
      if (recording_ != nullptr) emit(Op::kEnterFinal, vertex);
      note("final:", tables_.regions[info.container].region->name());
      break;
    case VertexKind::kShallowHistory:
    case VertexKind::kDeepHistory:
      // The restored configuration depends on run-time history memory.
      if (recording_ != nullptr) {
        recording_->dynamic = true;
      } else {
        enter_history(vertex);
      }
      break;
    case VertexKind::kTerminate:
      terminate();
      break;
    case VertexKind::kInitial:
    case VertexKind::kChoice:
    case VertexKind::kJunction:
      // Resolved before entry; reaching one here means a broken model.
      note("error:entered-pseudostate:", info.vertex->name());
      break;
  }

  --depth_;
  if (depth_ != 0) return;
  // Sweep (outermost call only, so deep-history restoration of sibling
  // leaves finishes before defaults run): default-enter the regions of
  // entered composites that are still empty. Default entries sweep their
  // own composites as they go, so this drains `pending` front to back.
  while (scratch_.head < scratch_.pending.size() && !stopped()) {
    const std::uint32_t composite = scratch_.pending[scratch_.head++];
    for (const std::uint32_t region : tables_.vertices[composite].regions) {
      const RegionInfo& info = tables_.regions[region];
      bool active = tables_.region_in_final(bits_.data(), region);
      for (const std::uint32_t child : info.child_states) {
        if (test_bit(bits_.data(), child)) active = true;
      }
      if (!active) default_enter(region);
    }
  }
  scratch_.pending.clear();
  scratch_.head = 0;
}

void Walk::default_enter(std::uint32_t region) {
  const RegionInfo& info = tables_.regions[region];
  if (info.initial < 0) {
    note("warn:no-initial:", info.region->name());
    return;
  }
  const std::int64_t target = resolve(static_cast<std::uint32_t>(info.initial));
  if (target < 0) {
    note("error:unresolved-initial:", info.region->name());
    return;
  }
  for (const std::uint32_t segment : scratch_.segments) effect(segment);
  enter(static_cast<std::uint32_t>(target), region);
}

}  // namespace umlsoc::statechart::semantics
