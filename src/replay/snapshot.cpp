#include "replay/snapshot.hpp"

#include <array>
#include <chrono>
#include <map>
#include <memory>

#include "replay/binary.hpp"

namespace umlsoc::replay {

namespace {

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

/// Checks that the image's named sections of one kind and the targets' names
/// match one-to-one. `order` receives, per target, the image index holding
/// its section.
template <typename Section, typename Target>
bool match_sections(std::string_view element,
                    const std::vector<SnapshotImage::Named<Section>>& sections,
                    const std::vector<Target>& targets, std::vector<std::size_t>& order,
                    support::DiagnosticSink& sink) {
  bool ok = true;
  std::map<std::string, std::size_t> by_name;
  for (std::size_t i = 0; i < sections.size(); ++i) {
    if (!by_name.emplace(sections[i].name, i).second) {
      sink.error("snapshot", "duplicate <" + std::string(element) + "> section '" +
                                 sections[i].name + "'");
      ok = false;
    }
  }
  order.assign(targets.size(), 0);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    const auto it = by_name.find(targets[i].name);
    if (it == by_name.end()) {
      sink.error("snapshot",
                 "no <" + std::string(element) + "> section named '" + targets[i].name + "'");
      ok = false;
      continue;
    }
    order[i] = it->second;
  }
  for (const auto& [name, index] : by_name) {
    bool registered = false;
    for (const Target& target : targets) registered = registered || target.name == name;
    if (!registered) {
      sink.error("snapshot", "<" + std::string(element) + "> section '" + name +
                                 "' has no registered target");
      ok = false;
    }
  }
  return ok;
}

/// Checks one bank section against its bank's fields: every stored key binds
/// exactly one field and every field gets a value.
bool match_bank_keys(const ValueBank& bank, const SnapshotImage::BankValues& values,
                     support::DiagnosticSink& sink) {
  bool ok = true;
  std::vector<bool> bound(bank.fields.size(), false);
  for (const auto& [key, value] : values) {
    std::size_t field = 0;
    while (field < bank.fields.size() && bank.fields[field].key != key) ++field;
    if (field == bank.fields.size()) {
      sink.error("snapshot", "<bank> section '" + bank.name + "' has unknown key '" + key + "'");
      ok = false;
    } else if (bound[field]) {
      sink.error("snapshot", "<bank> section '" + bank.name + "' has duplicate key '" + key + "'");
      ok = false;
    } else {
      bound[field] = true;
    }
  }
  for (std::size_t field = 0; field < bank.fields.size(); ++field) {
    if (!bound[field]) {
      sink.error("snapshot", "<bank> section '" + bank.name + "' has no value for key '" +
                                 std::string(bank.fields[field].key) + "'");
      ok = false;
    }
  }
  return ok;
}

/// Checks that a fault-plan section holds every site exactly once, so a
/// restore leaves no site at its constructed RNG state.
bool match_fault_sites(const SnapshotImage::FaultPlanState& plan, support::DiagnosticSink& sink) {
  bool ok = true;
  std::array<int, sim::kFaultSiteCount> listed{};
  for (const auto& [site, state] : plan.sites) {
    if (++listed[static_cast<std::size_t>(site)] == 2) {
      sink.error("snapshot", "<fault-plan> section lists site '" +
                                 std::string(sim::to_string(site)) + "' twice");
      ok = false;
    }
  }
  for (std::size_t i = 0; i < listed.size(); ++i) {
    if (listed[i] == 0) {
      sink.error("snapshot", "<fault-plan> section has no state for site '" +
                                 std::string(sim::to_string(static_cast<sim::FaultSite>(i))) +
                                 "'");
      ok = false;
    }
  }
  return ok;
}

/// True when the section table lists every named kind exactly once.
constexpr bool lists_every_named_kind() {
  std::array<int, static_cast<std::size_t>(kLastSectionKind) + 1> listed{};
  for_each_named_section(
      [&listed](SectionKind kind, auto&&...) { ++listed[static_cast<std::size_t>(kind)]; });
  for (auto kind = static_cast<std::size_t>(SectionKind::kMachine); kind < listed.size(); ++kind) {
    if (listed[kind] != 1) return false;
  }
  return true;
}
static_assert(lists_every_named_kind(), "a named SectionKind is missing from the section table");

/// True when `label` is the expectation a watchdog named `name` holds while
/// armed ("watchdog <name> armed"), compared without building the string.
bool is_watchdog_label(std::string_view label, std::string_view name) {
  constexpr std::string_view kHead = "watchdog ";
  constexpr std::string_view kTail = " armed";
  return label.size() == kHead.size() + name.size() + kTail.size() &&
         label.starts_with(kHead) && label.ends_with(kTail) &&
         label.substr(kHead.size(), name.size()) == name;
}

}  // namespace

// --- capture -----------------------------------------------------------------

std::string_view to_string(SectionKind kind) {
  switch (kind) {
    case SectionKind::kKernel: return "kernel";
    case SectionKind::kFaultPlan: return "fault-plan";
    case SectionKind::kRecorder: return "recorder";
    case SectionKind::kMachine: return "machine";
    case SectionKind::kBus: return "bus";
    case SectionKind::kWatchdog: return "watchdog";
    case SectionKind::kSupervisor: return "supervisor";
    case SectionKind::kBreaker: return "breaker";
    case SectionKind::kHealth: return "health";
    case SectionKind::kBank: return "bank";
  }
  return "?";
}

bool capture_kernel(const SnapshotTargets& targets, sim::Kernel::Checkpoint& checkpoint,
                    support::DiagnosticSink& sink) {
  if (targets.kernel == nullptr) {
    sink.error("snapshot", "no kernel target registered");
    return false;
  }
  if (!targets.kernel->capture_checkpoint(checkpoint, sink)) return false;

  bool ok = true;
  for (const auto& target : targets.buses) {
    if (target.component->pending_transactions() != 0) {
      sink.error("snapshot", "bus '" + target.name + "' has " +
                                 std::to_string(target.component->pending_transactions()) +
                                 " pending transactions; checkpoint between quiescent points");
      ok = false;
    }
  }
  // Outstanding expectations are restorable only when a registered target
  // owns them: a watchdog's armed flag travels in the watchdog section, a
  // supervisor's pending-restart queue in the supervisor section. Anything
  // else — an in-flight bus-port transaction, a custom expectation — holds
  // callbacks this format cannot serialize.
  for (const auto& expectation : checkpoint.expectations) {
    if (expectation.outstanding == 0) continue;
    bool owned = false;
    for (const auto& target : targets.watchdogs) {
      owned = owned || is_watchdog_label(expectation.label, target.component->name());
    }
    for (const auto& target : targets.supervisors) {
      owned = owned || expectation.label == target.component->restart_expectation_label();
    }
    if (!owned) {
      sink.error("snapshot",
                 "expectation '" + expectation.label + "' has " +
                     std::to_string(expectation.outstanding) +
                     " outstanding instances not owned by a registered watchdog or supervisor");
      ok = false;
    }
  }
  return ok;
}

bool capture_image(const SnapshotTargets& targets, SnapshotImage& image,
                   support::DiagnosticSink& sink) {
  SnapshotImage out;
  if (!capture_kernel(targets, out.kernel, sink)) return false;

  out.kernel_timed_labels.reserve(out.kernel.timed.size());
  for (const auto& timed : out.kernel.timed) {
    out.kernel_timed_labels.push_back(targets.kernel->process_label(timed.process));
  }
  if (targets.fault_plan != nullptr) out.fault_plan.emplace().capture(*targets.fault_plan);
  if (targets.recorder != nullptr) {
    out.recorder = SnapshotImage::RecorderState{targets.recorder->total_events(),
                                                targets.recorder->log()};
  }
  for_each_named_section([&](SectionKind, auto targets_of, auto image_of, auto capture, auto) {
    for (const auto& target : targets.*targets_of) {
      capture(target, (out.*image_of).emplace_back(target.name).state);
    }
  });
  image = std::move(out);
  return true;
}

// --- apply -------------------------------------------------------------------

bool apply_image(const SnapshotTargets& targets, const SnapshotImage& image,
                 support::DiagnosticSink& sink) {
  if (targets.kernel == nullptr) {
    sink.error("snapshot", "no kernel target registered");
    return false;
  }

  bool ok = true;
  if (image.fault_plan.has_value() != (targets.fault_plan != nullptr)) {
    sink.error("snapshot", image.fault_plan
                               ? "snapshot has a <fault-plan> section but no plan is registered"
                               : "no <fault-plan> section for the registered plan");
    ok = false;
  } else if (image.fault_plan && image.fault_plan->seed != targets.fault_plan->seed()) {
    sink.error("snapshot", "fault-plan seed mismatch: snapshot " +
                               std::to_string(image.fault_plan->seed) + ", registered plan " +
                               std::to_string(targets.fault_plan->seed()));
    ok = false;
  }
  if (image.fault_plan) ok = match_fault_sites(*image.fault_plan, sink) && ok;
  if (image.recorder.has_value() != (targets.recorder != nullptr)) {
    sink.error("snapshot", image.recorder
                               ? "snapshot has a <recorder> section but no recorder is registered"
                               : "no <recorder> section for the registered recorder");
    ok = false;
  }

  // Per named kind (indexed by SectionKind), the image index of each
  // target's section.
  std::array<std::vector<std::size_t>, static_cast<std::size_t>(kLastSectionKind) + 1> order;
  for_each_named_section([&](SectionKind kind, auto targets_of, auto image_of, auto&&...) {
    ok = match_sections(to_string(kind), image.*image_of, targets.*targets_of,
                        order[static_cast<std::size_t>(kind)], sink) &&
         ok;
  });
  if (!ok) return false;
  const std::vector<std::size_t>& bank_order = order[static_cast<std::size_t>(SectionKind::kBank)];
  for (std::size_t i = 0; i < targets.banks.size(); ++i) {
    ok = match_bank_keys(targets.banks[i], image.banks[bank_order[i]].state, sink) && ok;
  }
  if (!ok) return false;

  // Apply. The kernel goes first (it validates process addressing and wipes
  // construction-time scheduling); watchdogs after it (their expectation
  // counts arrive with the kernel's registry).
  if (!targets.kernel->restore_checkpoint(image.kernel, sink)) return false;
  if (image.fault_plan) {
    for (const auto& [site, state] : image.fault_plan->sites) {
      targets.fault_plan->restore_site_state(site, state);
    }
  }
  for_each_named_section([&](SectionKind kind, auto targets_of, auto image_of, auto,
                             auto restore) {
    const auto& list = targets.*targets_of;
    for (std::size_t i = 0; ok && i < list.size(); ++i) {
      ok = restore(list[i], (image.*image_of)[order[static_cast<std::size_t>(kind)][i]].state,
                   sink);
    }
  });
  if (!ok) return false;
  if (targets.recorder != nullptr) {
    targets.recorder->restore_log(image.recorder->events, image.recorder->total);
  }
  return true;
}

// --- save / restore ----------------------------------------------------------

bool save_snapshot(const SnapshotTargets& targets, std::string& out,
                   support::DiagnosticSink& sink) {
  const auto started = std::chrono::steady_clock::now();
  SnapshotImage image;
  if (!capture_image(targets, image, sink)) return false;
  out = image_to_binary(image);
  const std::size_t sections = image.section_count();
  targets.kernel->note_snapshot_encode(out.size(), sections, sections, elapsed_ns(started));
  return true;
}

bool restore_snapshot(const SnapshotTargets& targets, std::string_view input,
                      support::DiagnosticSink& sink) {
  if (targets.kernel == nullptr) {
    sink.error("snapshot", "no kernel target registered");
    return false;
  }
  const auto started = std::chrono::steady_clock::now();
  SnapshotImage image;
  if (!image_from_binary(input, image, sink)) return false;
  if (!apply_image(targets, image, sink)) return false;
  targets.kernel->note_snapshot_restore(elapsed_ns(started));
  return true;
}

// --- warm-restart factories --------------------------------------------------

std::function<bool()> restart_from_snapshot(statechart::Engine& instance,
                                            support::DiagnosticSink& sink) {
  auto snapshot = std::make_shared<statechart::InstanceSnapshot>(instance.capture());
  return [&instance, &sink, snapshot] { return instance.restore(*snapshot, sink); };
}

}  // namespace umlsoc::replay
