#include "replay/snapshot.hpp"

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
/// exactly one field and every field gets a value. Appends the restore's
/// writes to `writes`, so applying them cannot fail.
bool match_bank_keys(const ValueBank& bank, const SnapshotImage::BankValues& values,
                     std::vector<std::pair<std::uint64_t*, std::uint64_t>>& writes,
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
      writes.emplace_back(bank.fields[field].value, value);
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

bool capture_kernel(const SnapshotTargets& targets, sim::Kernel::Checkpoint& checkpoint,
                    support::DiagnosticSink& sink) {
  if (targets.kernel == nullptr) {
    sink.error("snapshot", "no kernel target registered");
    return false;
  }
  if (!targets.kernel->capture_checkpoint(checkpoint, sink)) return false;

  bool ok = true;
  for (const BusTarget& target : targets.buses) {
    if (target.bus->pending_transactions() != 0) {
      sink.error("snapshot", "bus '" + target.name + "' has " +
                                 std::to_string(target.bus->pending_transactions()) +
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
    for (const WatchdogTarget& target : targets.watchdogs) {
      owned = owned || is_watchdog_label(expectation.label, target.watchdog->name());
    }
    for (const SupervisorTarget& target : targets.supervisors) {
      owned = owned || expectation.label == target.supervisor->restart_expectation_label();
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
  if (targets.fault_plan != nullptr) {
    SnapshotImage::FaultPlanState plan;
    plan.seed = targets.fault_plan->seed();
    for (std::size_t i = 0; i < sim::kFaultSiteCount; ++i) {
      const auto site = static_cast<sim::FaultSite>(i);
      plan.sites.emplace_back(site, targets.fault_plan->site_state(site));
    }
    out.fault_plan = std::move(plan);
  }
  if (targets.recorder != nullptr) {
    out.recorder = SnapshotImage::RecorderState{targets.recorder->total_events(),
                                                targets.recorder->log()};
  }
  for (const MachineTarget& target : targets.machines) {
    out.machines.push_back({target.name, target.instance->capture()});
  }
  for (const BusTarget& target : targets.buses) {
    out.buses.push_back({target.name, target.bus->capture_checkpoint()});
  }
  for (const WatchdogTarget& target : targets.watchdogs) {
    out.watchdogs.push_back({target.name, target.watchdog->capture_checkpoint()});
  }
  for (const SupervisorTarget& target : targets.supervisors) {
    out.supervisors.push_back({target.name, target.supervisor->capture_checkpoint()});
  }
  for (const BreakerTarget& target : targets.breakers) {
    out.breakers.push_back({target.name, target.breaker->capture_checkpoint()});
  }
  for (const HealthTarget& target : targets.health) {
    out.health.push_back({target.name, target.registry->capture_checkpoint()});
  }
  for (const ValueBank& bank : targets.banks) {
    auto& values = out.banks.emplace_back(bank.name).state;
    for (const ValueBank::Field& field : bank.fields) values.emplace_back(field.key, *field.value);
  }
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
  if (image.recorder.has_value() != (targets.recorder != nullptr)) {
    sink.error("snapshot", image.recorder
                               ? "snapshot has a <recorder> section but no recorder is registered"
                               : "no <recorder> section for the registered recorder");
    ok = false;
  }

  std::vector<std::size_t> machine_order;
  std::vector<std::size_t> bus_order;
  std::vector<std::size_t> watchdog_order;
  std::vector<std::size_t> supervisor_order;
  std::vector<std::size_t> breaker_order;
  std::vector<std::size_t> health_order;
  std::vector<std::size_t> bank_order;
  std::vector<std::pair<std::uint64_t*, std::uint64_t>> bank_writes;
  ok = match_sections("machine", image.machines, targets.machines, machine_order, sink) && ok;
  ok = match_sections("bus", image.buses, targets.buses, bus_order, sink) && ok;
  ok = match_sections("watchdog", image.watchdogs, targets.watchdogs, watchdog_order, sink) &&
       ok;
  ok = match_sections("supervisor", image.supervisors, targets.supervisors, supervisor_order,
                      sink) &&
       ok;
  ok = match_sections("breaker", image.breakers, targets.breakers, breaker_order, sink) && ok;
  ok = match_sections("health", image.health, targets.health, health_order, sink) && ok;
  ok = match_sections("bank", image.banks, targets.banks, bank_order, sink) && ok;
  if (!ok) return false;
  for (std::size_t i = 0; i < targets.banks.size(); ++i) {
    ok = match_bank_keys(targets.banks[i], image.banks[bank_order[i]].state, bank_writes,
                         sink) &&
         ok;
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
  for (std::size_t i = 0; i < targets.machines.size(); ++i) {
    if (!targets.machines[i].instance->restore(image.machines[machine_order[i]].state, sink)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < targets.buses.size(); ++i) {
    targets.buses[i].bus->restore_checkpoint(image.buses[bus_order[i]].state);
  }
  for (std::size_t i = 0; i < targets.watchdogs.size(); ++i) {
    targets.watchdogs[i].watchdog->restore_checkpoint(
        image.watchdogs[watchdog_order[i]].state);
  }
  for (std::size_t i = 0; i < targets.supervisors.size(); ++i) {
    if (!targets.supervisors[i].supervisor->restore_checkpoint(
            image.supervisors[supervisor_order[i]].state, sink)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < targets.breakers.size(); ++i) {
    if (!targets.breakers[i].breaker->restore_checkpoint(image.breakers[breaker_order[i]].state,
                                                         sink)) {
      return false;
    }
  }
  for (std::size_t i = 0; i < targets.health.size(); ++i) {
    if (!targets.health[i].registry->restore_checkpoint(image.health[health_order[i]].state,
                                                        sink)) {
      return false;
    }
  }
  for (const auto& [field, value] : bank_writes) *field = value;
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
