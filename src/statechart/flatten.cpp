#include "statechart/flatten.hpp"

#include <algorithm>

#include "statechart/interpreter.hpp"
#include "statechart/semantics.hpp"

namespace umlsoc::statechart {

namespace {

constexpr std::size_t kNoLeaf = static_cast<std::size_t>(-1);

class Flattener {
 public:
  Flattener(const StateMachine& machine, support::DiagnosticSink& sink)
      : machine_(machine),
        sink_(sink),
        tables_(machine),
        leaf_of_(tables_.vertices.size(), kNoLeaf),
        successor_of_(tables_.vertices.size(), kNoLeaf) {}

  std::optional<FlatStateMachine> run() {
    if (!check_constraints(machine_.top())) return std::nullopt;

    collect_leaves();
    if (flat_.states.empty()) {
      sink_.error(machine_.name(), "flatten: machine has no leaf states");
      return std::nullopt;
    }

    const std::int32_t initial = tables_.regions[0].initial;
    if (initial < 0) {
      sink_.error(machine_.name(), "flatten: top region has no initial transition");
      return std::nullopt;
    }
    flat_.initial_state = successor_leaf(tables_.transitions[initial].target);
    if (failed_) return std::nullopt;

    build_rows();
    if (failed_) return std::nullopt;
    return std::move(flat_);
  }

 private:
  bool check_constraints(const Region& region) {
    bool ok = true;
    for (const auto& vertex : region.vertices()) {
      switch (vertex->vertex_kind()) {
        case VertexKind::kShallowHistory:
        case VertexKind::kDeepHistory:
        case VertexKind::kChoice:
        case VertexKind::kJunction:
        case VertexKind::kTerminate:
          sink_.error(vertex->qualified_name(),
                      "flatten: " + std::string(to_string(vertex->vertex_kind())) +
                          " pseudostates are not flattenable");
          ok = false;
          break;
        case VertexKind::kState: {
          const auto& state = static_cast<const State&>(*vertex);
          if (state.is_orthogonal()) {
            sink_.error(state.qualified_name(), "flatten: orthogonal states are not flattenable");
            ok = false;
          }
          for (const Transition* transition : state.outgoing()) {
            if (transition->is_completion()) {
              sink_.error(state.qualified_name(),
                          "flatten: completion transitions are not flattenable");
              ok = false;
            }
          }
          for (const auto& subregion : state.regions()) {
            if (!check_constraints(*subregion)) ok = false;
          }
          break;
        }
        case VertexKind::kInitial:
        case VertexKind::kFinal:
          break;
      }
    }
    return ok;
  }

  /// Simple states and final states, in document order.
  void collect_leaves() {
    for (std::uint32_t v = 0; v < tables_.vertices.size(); ++v) {
      const semantics::VertexInfo& info = tables_.vertices[v];
      const bool simple_state = info.state != nullptr && info.state->is_simple();
      if (!simple_state && info.kind != VertexKind::kFinal) continue;
      leaf_of_[v] = flat_.states.size();
      flat_.states.push_back(info.state);  // Null for finals.
      flat_.state_names.push_back(info.vertex->qualified_name());
      leaves_.push_back(v);
    }
  }

  /// Leaf index reached by entering `vertex`: the last vertex the shared
  /// entry walk enters (the machine is non-orthogonal, so default entry
  /// descends one chain). Memoized per target vertex.
  std::size_t successor_leaf(std::uint32_t vertex) {
    if (successor_of_[vertex] != kNoLeaf) return successor_of_[vertex];
    std::vector<std::uint64_t> bits(tables_.words, 0);
    steps_.clear();
    semantics::Recording recording{&steps_, &leaf_pool_};
    semantics::Walk(tables_, bits, recording, scratch_)
        .enter(vertex, tables_.vertices[vertex].container);
    std::int64_t entered = -1;
    for (auto it = steps_.rbegin(); it != steps_.rend() && entered < 0; ++it) {
      if (it->op == semantics::Op::kEnterState || it->op == semantics::Op::kEnterFinal) {
        entered = it->a;
      }
    }
    if (entered < 0) {
      sink_.error(tables_.vertices[vertex].vertex->qualified_name(),
                  "flatten: cannot default-enter this vertex");
      failed_ = true;
      return kNoLeaf;
    }
    if (leaf_of_[entered] == kNoLeaf) {
      sink_.error(tables_.vertices[entered].vertex->qualified_name(),
                  "flatten: composite state without initial");
      failed_ = true;
      return kNoLeaf;
    }
    return successor_of_[vertex] = leaf_of_[entered];
  }

  void build_rows() {
    for (const std::uint32_t leaf : leaves_) {
      if (tables_.vertices[leaf].state == nullptr) continue;  // Finals have no rows.
      const std::size_t from = leaf_of_[leaf];
      // Innermost-first along the ancestor chain: inner rows come first in
      // the per-key vector, preserving UML priority.
      for (std::int64_t source = leaf; source >= 0;
           source = tables_.vertices[source].parent_state) {
        for (const std::uint32_t transition : tables_.vertices[source].outgoing) {
          const semantics::TransitionRow& row = tables_.transitions[transition];
          const std::size_t to = row.internal ? from : successor_leaf(row.target);
          if (to == kNoLeaf) return;
          flat_.transitions.push_back(FlatTransition{from, row.origin->trigger(), to, row.origin});
        }
      }
    }
    build_groups();
  }

  /// Builds the sorted (from, trigger) dispatch index. A stable sort keeps
  /// rows of one key in their build order, which is innermost-first.
  void build_groups() {
    flat_.row_order.resize(flat_.transitions.size());
    for (std::size_t i = 0; i < flat_.row_order.size(); ++i) flat_.row_order[i] = i;
    std::stable_sort(flat_.row_order.begin(), flat_.row_order.end(),
                     [this](std::size_t a, std::size_t b) {
                       const FlatTransition& lhs = flat_.transitions[a];
                       const FlatTransition& rhs = flat_.transitions[b];
                       if (lhs.from != rhs.from) return lhs.from < rhs.from;
                       return lhs.trigger < rhs.trigger;
                     });
    for (std::size_t i = 0; i < flat_.row_order.size(); ++i) {
      const FlatTransition& row = flat_.transitions[flat_.row_order[i]];
      if (flat_.groups.empty() || flat_.groups.back().from != row.from ||
          flat_.groups.back().trigger != row.trigger) {
        flat_.groups.push_back(FlatRowGroup{row.from, row.trigger, i, 0});
      }
      ++flat_.groups.back().row_count;
    }
  }

  const StateMachine& machine_;
  support::DiagnosticSink& sink_;
  const semantics::MachineTables tables_;
  FlatStateMachine flat_;
  std::vector<std::uint32_t> leaves_;     ///< Vertex indices of the leaves.
  std::vector<std::size_t> leaf_of_;      ///< Vertex index -> leaf index.
  std::vector<std::size_t> successor_of_; ///< Memo of successor_leaf().
  std::vector<semantics::Step> steps_;
  std::vector<std::uint32_t> leaf_pool_;
  semantics::WalkScratch scratch_;
  bool failed_ = false;
};

}  // namespace

std::optional<FlatStateMachine> flatten(const StateMachine& machine,
                                        support::DiagnosticSink& sink) {
  return Flattener(machine, sink).run();
}

const FlatRowGroup* FlatStateMachine::find_group(std::size_t from,
                                                 std::string_view trigger) const {
  const auto it = std::lower_bound(
      groups.begin(), groups.end(), std::make_pair(from, trigger),
      [](const FlatRowGroup& group, const std::pair<std::size_t, std::string_view>& key) {
        if (group.from != key.first) return group.from < key.first;
        return std::string_view(group.trigger) < key.second;
      });
  if (it == groups.end() || it->from != from || it->trigger != trigger) return nullptr;
  return &*it;
}

bool FlatExecutor::dispatch(const Event& event) {
  const FlatRowGroup* group = flat_->find_group(current_, event.name);
  if (group == nullptr) return false;
  for (std::size_t i = 0; i < group->row_count; ++i) {
    const std::size_t row_index = flat_->row_order[group->first_row + i];
    const FlatTransition& row = flat_->transitions[row_index];
    const Guard& guard = row.origin->guard();
    if (guard.fn != nullptr) {
      if (guard_host_ == nullptr) {
        // Without a host the guard cannot be evaluated; treat as open.
      } else {
        ActionContext context{*guard_host_, &event};
        if (!guard.fn(context)) continue;
      }
    }
    current_ = row.to;
    ++fired_;
    return true;
  }
  return false;
}

}  // namespace umlsoc::statechart
