#include "replay/snapshot.hpp"

#include <charconv>
#include <chrono>
#include <map>
#include <memory>

#include "xmi/xml.hpp"

namespace umlsoc::replay {

namespace {

constexpr std::string_view kRootName = "umlsoc-snapshot";

// --- checksums ---------------------------------------------------------------

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over the canonical serialization of the root's children. The xmi
/// writer is canonical (attribute insertion order preserved, fixed indent,
/// whitespace-only text dropped by the parser), so parse + re-serialize
/// reproduces the hashed bytes exactly and any corruption of the stored
/// content shows up as a mismatch.
std::uint64_t fnv1a(std::string_view data, std::uint64_t hash = kFnvOffset) {
  for (unsigned char c : data) {
    hash ^= c;
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t content_checksum(const xmi::XmlNode& root) {
  std::uint64_t hash = kFnvOffset;
  for (const auto& child : root.children()) hash = fnv1a(child->str(1), hash);
  return hash;
}

/// Structural hash of one section subtree, excluding the section's own
/// top-level "checksum" attribute (absent at save time, present at restore
/// time — both sides hash the same content). Separator bytes keep field
/// boundaries from aliasing.
void hash_node_into(const xmi::XmlNode& node, std::uint64_t& hash, bool skip_checksum_attr) {
  hash = fnv1a(node.name(), hash);
  for (const auto& [key, value] : node.attributes()) {
    if (skip_checksum_attr && key == "checksum") continue;
    hash = fnv1a("\x01", hash);
    hash = fnv1a(key, hash);
    hash = fnv1a("\x02", hash);
    hash = fnv1a(value, hash);
  }
  hash = fnv1a("\x03", hash);
  hash = fnv1a(node.text(), hash);
  for (const auto& child : node.children()) {
    hash = fnv1a("\x04", hash);
    hash_node_into(*child, hash, false);
  }
}

std::uint64_t section_checksum(const xmi::XmlNode& section) {
  std::uint64_t hash = kFnvOffset;
  hash_node_into(section, hash, true);
  return hash;
}

std::string to_hex(std::uint64_t value) {
  char buffer[17];
  for (int i = 15; i >= 0; --i) {
    buffer[i] = "0123456789abcdef"[value & 0xF];
    value >>= 4;
  }
  buffer[16] = '\0';
  return std::string(buffer);
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

/// "<machine name='link'>" — how diagnostics refer to one section.
std::string describe_section(const xmi::XmlNode& node) {
  const std::string* name = node.attribute("name");
  if (name == nullptr) return "<" + node.name() + ">";
  return "<" + node.name() + " name='" + *name + "'>";
}

// --- strict attribute readers ------------------------------------------------

std::string subject_of(const xmi::XmlNode& node) { return "snapshot <" + node.name() + ">"; }

template <typename T>
bool read_integer(const xmi::XmlNode& node, std::string_view key, T& out,
                  support::DiagnosticSink& sink, int base = 10) {
  const std::string* raw = node.attribute(key);
  if (raw == nullptr) {
    sink.error(subject_of(node), "missing attribute '" + std::string(key) + "'");
    return false;
  }
  const char* first = raw->data();
  const char* last = first + raw->size();
  T value{};
  const auto [ptr, ec] = std::from_chars(first, last, value, base);
  if (ec != std::errc() || ptr != last || raw->empty()) {
    sink.error(subject_of(node),
               "attribute '" + std::string(key) + "' is not a valid integer: '" + *raw + "'");
    return false;
  }
  out = value;
  return true;
}

bool read_bool(const xmi::XmlNode& node, std::string_view key, bool& out,
               support::DiagnosticSink& sink) {
  const std::string* raw = node.attribute(key);
  if (raw == nullptr) {
    sink.error(subject_of(node), "missing attribute '" + std::string(key) + "'");
    return false;
  }
  if (*raw == "0") {
    out = false;
  } else if (*raw == "1") {
    out = true;
  } else {
    sink.error(subject_of(node),
               "attribute '" + std::string(key) + "' must be 0 or 1, got '" + *raw + "'");
    return false;
  }
  return true;
}

bool read_string(const xmi::XmlNode& node, std::string_view key, std::string& out,
                 support::DiagnosticSink& sink) {
  const std::string* raw = node.attribute(key);
  if (raw == nullptr) {
    sink.error(subject_of(node), "missing attribute '" + std::string(key) + "'");
    return false;
  }
  out = *raw;
  return true;
}

std::string bool_str(bool value) { return value ? "1" : "0"; }

// --- section writers (image -> XML nodes) ------------------------------------

void write_kernel(xmi::XmlNode& root, const SnapshotImage& image) {
  const sim::Kernel::Checkpoint& checkpoint = image.kernel;
  xmi::XmlNode& node = root.add_child("kernel");
  node.set_attribute("now-ps", std::to_string(checkpoint.now_ps));
  node.set_attribute("sequence", std::to_string(checkpoint.sequence));
  node.set_attribute("delta-count", std::to_string(checkpoint.delta_count));
  node.set_attribute("events-processed", std::to_string(checkpoint.events_processed));
  node.set_attribute("process-count", std::to_string(checkpoint.process_count));
  for (std::size_t i = 0; i < checkpoint.timed.size(); ++i) {
    const auto& timed = checkpoint.timed[i];
    xmi::XmlNode& entry = node.add_child("timed");
    entry.set_attribute("at-ps", std::to_string(timed.at_ps));
    entry.set_attribute("seq", std::to_string(timed.sequence));
    entry.set_attribute("process", std::to_string(timed.process));
    if (i < image.kernel_timed_labels.size() && !image.kernel_timed_labels[i].empty()) {
      entry.set_attribute("label", image.kernel_timed_labels[i]);
    }
  }
  for (const auto& expectation : checkpoint.expectations) {
    xmi::XmlNode& entry = node.add_child("expectation");
    entry.set_attribute("label", expectation.label);
    entry.set_attribute("outstanding", std::to_string(expectation.outstanding));
  }
}

void write_fault_plan(xmi::XmlNode& root, const SnapshotImage::FaultPlanState& plan) {
  xmi::XmlNode& node = root.add_child("fault-plan");
  node.set_attribute("seed", std::to_string(plan.seed));
  for (const auto& [site, state] : plan.sites) {
    xmi::XmlNode& entry = node.add_child("site");
    entry.set_attribute("name", std::string(sim::to_string(site)));
    entry.set_attribute("rng-state", std::to_string(state.rng_state));
    entry.set_attribute("consults", std::to_string(state.counters.consults));
    entry.set_attribute("errors", std::to_string(state.counters.errors));
    entry.set_attribute("drops", std::to_string(state.counters.drops));
    entry.set_attribute("delays", std::to_string(state.counters.delays));
    entry.set_attribute("bit-flips", std::to_string(state.counters.bit_flips));
    entry.set_attribute("glitches", std::to_string(state.counters.glitches));
  }
}

void write_recorder(xmi::XmlNode& root, const SnapshotImage::RecorderState& recorder) {
  xmi::XmlNode& node = root.add_child("recorder");
  node.set_attribute("total", std::to_string(recorder.total));
  for (const sim::RecordedEvent& event : recorder.events) {
    xmi::XmlNode& entry = node.add_child("event");
    entry.set_attribute("at-ps", std::to_string(event.at_ps));
    entry.set_attribute("process", std::to_string(event.process));
  }
}

void write_event_records(xmi::XmlNode& node, const char* element,
                         const std::vector<statechart::InstanceSnapshot::EventRecord>& records) {
  for (const auto& record : records) {
    xmi::XmlNode& entry = node.add_child(element);
    entry.set_attribute("name", record.name);
    entry.set_attribute("data", std::to_string(record.data));
    if (!record.tag.empty()) entry.set_attribute("tag", record.tag);
  }
}

void write_machine(xmi::XmlNode& root, const std::string& name,
                   const statechart::InstanceSnapshot& snapshot) {
  xmi::XmlNode& node = root.add_child("machine");
  node.set_attribute("name", name);
  node.set_attribute("started", bool_str(snapshot.started));
  node.set_attribute("terminated", bool_str(snapshot.terminated));
  node.set_attribute("events-processed", std::to_string(snapshot.events_processed));
  node.set_attribute("transitions-fired", std::to_string(snapshot.transitions_fired));
  node.set_attribute("errors-raised", std::to_string(snapshot.errors_raised));
  node.set_attribute("errors-unhandled", std::to_string(snapshot.errors_unhandled));
  for (std::uint32_t index : snapshot.active_states) {
    node.add_child("active-state").set_attribute("index", std::to_string(index));
  }
  for (std::uint32_t index : snapshot.active_finals) {
    node.add_child("active-final").set_attribute("index", std::to_string(index));
  }
  for (const auto& [region, state] : snapshot.shallow_history) {
    xmi::XmlNode& entry = node.add_child("shallow-history");
    entry.set_attribute("region", std::to_string(region));
    entry.set_attribute("state", std::to_string(state));
  }
  for (const auto& [region, leaves] : snapshot.deep_history) {
    xmi::XmlNode& entry = node.add_child("deep-history");
    entry.set_attribute("region", std::to_string(region));
    for (std::uint32_t leaf : leaves) {
      entry.add_child("leaf").set_attribute("index", std::to_string(leaf));
    }
  }
  for (const auto& [var_name, value] : snapshot.variables) {
    xmi::XmlNode& entry = node.add_child("variable");
    entry.set_attribute("name", var_name);
    entry.set_attribute("value", std::to_string(value));
  }
  write_event_records(node, "queued", snapshot.queue);
  write_event_records(node, "deferred", snapshot.deferred);
}

void write_bus(xmi::XmlNode& root, const std::string& name,
               const sim::MemoryMappedBus::Checkpoint& checkpoint) {
  xmi::XmlNode& node = root.add_child("bus");
  node.set_attribute("name", name);
  node.set_attribute("reads", std::to_string(checkpoint.stats.reads));
  node.set_attribute("writes", std::to_string(checkpoint.stats.writes));
  node.set_attribute("errors", std::to_string(checkpoint.stats.errors));
  node.set_attribute("injected-errors", std::to_string(checkpoint.stats.injected_errors));
  node.set_attribute("injected-drops", std::to_string(checkpoint.stats.injected_drops));
  node.set_attribute("injected-delays", std::to_string(checkpoint.stats.injected_delays));
  node.set_attribute("injected-bit-flips", std::to_string(checkpoint.stats.injected_bit_flips));
  node.set_attribute("completions", std::to_string(checkpoint.stats.completions));
  node.set_attribute("dropped-completions",
                     std::to_string(checkpoint.stats.dropped_completions));
  node.set_attribute("last-completion-ps", std::to_string(checkpoint.last_completion_ps));
}

void write_watchdog(xmi::XmlNode& root, const std::string& name,
                    const sim::Watchdog::Checkpoint& checkpoint) {
  xmi::XmlNode& node = root.add_child("watchdog");
  node.set_attribute("name", name);
  node.set_attribute("armed", bool_str(checkpoint.armed));
  node.set_attribute("tripped", bool_str(checkpoint.tripped));
  node.set_attribute("check-pending", bool_str(checkpoint.check_pending));
  node.set_attribute("trip-at-ps", std::to_string(checkpoint.trip_at_ps));
  node.set_attribute("trips", std::to_string(checkpoint.trips));
  node.set_attribute("kicks", std::to_string(checkpoint.kicks));
}

void write_supervisor(xmi::XmlNode& root, const std::string& name,
                      const sim::Supervisor::Checkpoint& checkpoint) {
  xmi::XmlNode& node = root.add_child("supervisor");
  node.set_attribute("name", name);
  node.set_attribute("suspended", bool_str(checkpoint.suspended));
  node.set_attribute("gave-up", bool_str(checkpoint.gave_up));
  node.set_attribute("give-up-reason", checkpoint.give_up_reason);
  node.set_attribute("escalations", std::to_string(checkpoint.escalations));
  for (std::uint64_t at_ps : checkpoint.window) {
    node.add_child("window").set_attribute("at-ps", std::to_string(at_ps));
  }
  for (const auto& child : checkpoint.children) {
    xmi::XmlNode& entry = node.add_child("child");
    entry.set_attribute("failures", std::to_string(child.failures));
    entry.set_attribute("restarts", std::to_string(child.restarts));
    entry.set_attribute("failed-restarts", std::to_string(child.failed_restarts));
    entry.set_attribute("consecutive", std::to_string(child.consecutive));
    entry.set_attribute("last-failure-ps", std::to_string(child.last_failure_ps));
  }
  for (const auto& pending : checkpoint.pending) {
    xmi::XmlNode& entry = node.add_child("pending");
    entry.set_attribute("due-ps", std::to_string(pending.due_ps));
    entry.set_attribute("child", std::to_string(pending.child));
  }
}

void write_breaker(xmi::XmlNode& root, const std::string& name,
                   const sim::CircuitBreaker::Checkpoint& checkpoint) {
  xmi::XmlNode& node = root.add_child("breaker");
  node.set_attribute("name", name);
  node.set_attribute("state", std::to_string(checkpoint.state));
  node.set_attribute("outcomes", std::to_string(checkpoint.outcomes));
  node.set_attribute("cursor", std::to_string(checkpoint.cursor));
  node.set_attribute("samples", std::to_string(checkpoint.samples));
  node.set_attribute("failures-in-window", std::to_string(checkpoint.failures_in_window));
  node.set_attribute("open-duration-ps", std::to_string(checkpoint.open_duration_ps));
  node.set_attribute("reopen-at-ps", std::to_string(checkpoint.reopen_at_ps));
  node.set_attribute("timer-pending", bool_str(checkpoint.timer_pending));
  node.set_attribute("probe-in-flight", bool_str(checkpoint.probe_in_flight));
  node.set_attribute("issued", std::to_string(checkpoint.stats.issued));
  node.set_attribute("ok", std::to_string(checkpoint.stats.ok));
  node.set_attribute("failures", std::to_string(checkpoint.stats.failures));
  node.set_attribute("fast-failed", std::to_string(checkpoint.stats.fast_failed));
  node.set_attribute("opens", std::to_string(checkpoint.stats.opens));
  node.set_attribute("closes", std::to_string(checkpoint.stats.closes));
  node.set_attribute("probes", std::to_string(checkpoint.stats.probes));
  node.set_attribute("probe-failures", std::to_string(checkpoint.stats.probe_failures));
}

void write_health(xmi::XmlNode& root, const std::string& name,
                  const sim::HealthRegistry::Checkpoint& checkpoint) {
  xmi::XmlNode& node = root.add_child("health");
  node.set_attribute("name", name);
  node.set_attribute("transitions", std::to_string(checkpoint.transitions));
  for (std::uint8_t value : checkpoint.health) {
    node.add_child("unit").set_attribute("health", std::to_string(value));
  }
}

void write_bank(xmi::XmlNode& root, const std::string& name,
                const std::vector<std::pair<std::string, std::uint64_t>>& values) {
  xmi::XmlNode& node = root.add_child("bank");
  node.set_attribute("name", name);
  for (const auto& [key, value] : values) {
    xmi::XmlNode& entry = node.add_child("value");
    entry.set_attribute("key", key);
    entry.set_attribute("value", std::to_string(value));
  }
}

// --- section readers (decode only, no targets touched) -----------------------

bool read_kernel(const xmi::XmlNode& node, sim::Kernel::Checkpoint& out,
                 std::vector<std::string>& labels, support::DiagnosticSink& sink) {
  bool ok = read_integer(node, "now-ps", out.now_ps, sink);
  ok = read_integer(node, "sequence", out.sequence, sink) && ok;
  ok = read_integer(node, "delta-count", out.delta_count, sink) && ok;
  ok = read_integer(node, "events-processed", out.events_processed, sink) && ok;
  ok = read_integer(node, "process-count", out.process_count, sink) && ok;
  for (const auto& child : node.children()) {
    if (child->name() == "timed") {
      sim::Kernel::Checkpoint::PendingTimed timed;
      ok = read_integer(*child, "at-ps", timed.at_ps, sink) && ok;
      ok = read_integer(*child, "seq", timed.sequence, sink) && ok;
      ok = read_integer(*child, "process", timed.process, sink) && ok;
      out.timed.push_back(timed);
      labels.push_back(child->attribute_or("label", ""));
    } else if (child->name() == "expectation") {
      sim::Kernel::Checkpoint::ExpectationEntry entry;
      ok = read_string(*child, "label", entry.label, sink) && ok;
      ok = read_integer(*child, "outstanding", entry.outstanding, sink) && ok;
      out.expectations.push_back(std::move(entry));
    } else {
      sink.error(subject_of(node), "unknown element <" + child->name() + ">");
      ok = false;
    }
  }
  return ok;
}

bool read_fault_plan(const xmi::XmlNode& node, SnapshotImage::FaultPlanState& out,
                     support::DiagnosticSink& sink) {
  bool ok = read_integer(node, "seed", out.seed, sink);
  for (const xmi::XmlNode* entry : node.children_named("site")) {
    std::string name;
    if (!read_string(*entry, "name", name, sink)) {
      ok = false;
      continue;
    }
    bool known = false;
    sim::FaultSite site = sim::FaultSite::kBusRead;
    for (std::size_t i = 0; i < sim::kFaultSiteCount; ++i) {
      if (name == sim::to_string(static_cast<sim::FaultSite>(i))) {
        site = static_cast<sim::FaultSite>(i);
        known = true;
        break;
      }
    }
    if (!known) {
      sink.error(subject_of(node), "unknown fault site '" + name + "'");
      ok = false;
      continue;
    }
    sim::FaultPlan::SiteState state;
    ok = read_integer(*entry, "rng-state", state.rng_state, sink) && ok;
    ok = read_integer(*entry, "consults", state.counters.consults, sink) && ok;
    ok = read_integer(*entry, "errors", state.counters.errors, sink) && ok;
    ok = read_integer(*entry, "drops", state.counters.drops, sink) && ok;
    ok = read_integer(*entry, "delays", state.counters.delays, sink) && ok;
    ok = read_integer(*entry, "bit-flips", state.counters.bit_flips, sink) && ok;
    ok = read_integer(*entry, "glitches", state.counters.glitches, sink) && ok;
    out.sites.emplace_back(site, state);
  }
  return ok;
}

bool read_recorder(const xmi::XmlNode& node, SnapshotImage::RecorderState& out,
                   support::DiagnosticSink& sink) {
  bool ok = read_integer(node, "total", out.total, sink);
  for (const xmi::XmlNode* entry : node.children_named("event")) {
    sim::RecordedEvent event;
    ok = read_integer(*entry, "at-ps", event.at_ps, sink) && ok;
    ok = read_integer(*entry, "process", event.process, sink) && ok;
    out.events.push_back(event);
  }
  if (ok && out.events.size() > out.total) {
    sink.error(subject_of(node), "log holds " + std::to_string(out.events.size()) +
                                     " events but total says " + std::to_string(out.total));
    ok = false;
  }
  return ok;
}

bool read_event_records(const xmi::XmlNode& node, const char* element,
                        std::vector<statechart::InstanceSnapshot::EventRecord>& out,
                        support::DiagnosticSink& sink) {
  bool ok = true;
  for (const xmi::XmlNode* entry : node.children_named(element)) {
    statechart::InstanceSnapshot::EventRecord record;
    ok = read_string(*entry, "name", record.name, sink) && ok;
    ok = read_integer(*entry, "data", record.data, sink) && ok;
    record.tag = entry->attribute_or("tag", "");
    out.push_back(std::move(record));
  }
  return ok;
}

bool read_machine(const xmi::XmlNode& node, statechart::InstanceSnapshot& out,
                  support::DiagnosticSink& sink) {
  bool ok = read_bool(node, "started", out.started, sink);
  ok = read_bool(node, "terminated", out.terminated, sink) && ok;
  ok = read_integer(node, "events-processed", out.events_processed, sink) && ok;
  ok = read_integer(node, "transitions-fired", out.transitions_fired, sink) && ok;
  ok = read_integer(node, "errors-raised", out.errors_raised, sink) && ok;
  ok = read_integer(node, "errors-unhandled", out.errors_unhandled, sink) && ok;
  for (const xmi::XmlNode* entry : node.children_named("active-state")) {
    std::uint32_t index = 0;
    ok = read_integer(*entry, "index", index, sink) && ok;
    out.active_states.push_back(index);
  }
  for (const xmi::XmlNode* entry : node.children_named("active-final")) {
    std::uint32_t index = 0;
    ok = read_integer(*entry, "index", index, sink) && ok;
    out.active_finals.push_back(index);
  }
  for (const xmi::XmlNode* entry : node.children_named("shallow-history")) {
    std::uint32_t region = 0;
    std::uint32_t state = 0;
    ok = read_integer(*entry, "region", region, sink) && ok;
    ok = read_integer(*entry, "state", state, sink) && ok;
    out.shallow_history.emplace_back(region, state);
  }
  for (const xmi::XmlNode* entry : node.children_named("deep-history")) {
    std::uint32_t region = 0;
    ok = read_integer(*entry, "region", region, sink) && ok;
    std::vector<std::uint32_t> leaves;
    for (const xmi::XmlNode* leaf : entry->children_named("leaf")) {
      std::uint32_t index = 0;
      ok = read_integer(*leaf, "index", index, sink) && ok;
      leaves.push_back(index);
    }
    out.deep_history.emplace_back(region, std::move(leaves));
  }
  for (const xmi::XmlNode* entry : node.children_named("variable")) {
    std::string name;
    std::int64_t value = 0;
    ok = read_string(*entry, "name", name, sink) && ok;
    ok = read_integer(*entry, "value", value, sink) && ok;
    out.variables.emplace_back(std::move(name), value);
  }
  ok = read_event_records(node, "queued", out.queue, sink) && ok;
  ok = read_event_records(node, "deferred", out.deferred, sink) && ok;
  return ok;
}

bool read_bus(const xmi::XmlNode& node, sim::MemoryMappedBus::Checkpoint& out,
              support::DiagnosticSink& sink) {
  bool ok = read_integer(node, "reads", out.stats.reads, sink);
  ok = read_integer(node, "writes", out.stats.writes, sink) && ok;
  ok = read_integer(node, "errors", out.stats.errors, sink) && ok;
  ok = read_integer(node, "injected-errors", out.stats.injected_errors, sink) && ok;
  ok = read_integer(node, "injected-drops", out.stats.injected_drops, sink) && ok;
  ok = read_integer(node, "injected-delays", out.stats.injected_delays, sink) && ok;
  ok = read_integer(node, "injected-bit-flips", out.stats.injected_bit_flips, sink) && ok;
  ok = read_integer(node, "completions", out.stats.completions, sink) && ok;
  ok = read_integer(node, "dropped-completions", out.stats.dropped_completions, sink) && ok;
  ok = read_integer(node, "last-completion-ps", out.last_completion_ps, sink) && ok;
  return ok;
}

bool read_watchdog(const xmi::XmlNode& node, sim::Watchdog::Checkpoint& out,
                   support::DiagnosticSink& sink) {
  bool ok = read_bool(node, "armed", out.armed, sink);
  ok = read_bool(node, "tripped", out.tripped, sink) && ok;
  ok = read_bool(node, "check-pending", out.check_pending, sink) && ok;
  ok = read_integer(node, "trip-at-ps", out.trip_at_ps, sink) && ok;
  ok = read_integer(node, "trips", out.trips, sink) && ok;
  ok = read_integer(node, "kicks", out.kicks, sink) && ok;
  return ok;
}

bool read_supervisor(const xmi::XmlNode& node, sim::Supervisor::Checkpoint& out,
                     support::DiagnosticSink& sink) {
  bool ok = read_bool(node, "suspended", out.suspended, sink);
  ok = read_bool(node, "gave-up", out.gave_up, sink) && ok;
  ok = read_string(node, "give-up-reason", out.give_up_reason, sink) && ok;
  ok = read_integer(node, "escalations", out.escalations, sink) && ok;
  for (const xmi::XmlNode* entry : node.children_named("window")) {
    std::uint64_t at_ps = 0;
    ok = read_integer(*entry, "at-ps", at_ps, sink) && ok;
    out.window.push_back(at_ps);
  }
  for (const xmi::XmlNode* entry : node.children_named("child")) {
    sim::Supervisor::Checkpoint::ChildState child;
    ok = read_integer(*entry, "failures", child.failures, sink) && ok;
    ok = read_integer(*entry, "restarts", child.restarts, sink) && ok;
    ok = read_integer(*entry, "failed-restarts", child.failed_restarts, sink) && ok;
    ok = read_integer(*entry, "consecutive", child.consecutive, sink) && ok;
    ok = read_integer(*entry, "last-failure-ps", child.last_failure_ps, sink) && ok;
    out.children.push_back(child);
  }
  for (const xmi::XmlNode* entry : node.children_named("pending")) {
    sim::Supervisor::Checkpoint::PendingRestart pending;
    ok = read_integer(*entry, "due-ps", pending.due_ps, sink) && ok;
    ok = read_integer(*entry, "child", pending.child, sink) && ok;
    out.pending.push_back(pending);
  }
  return ok;
}

bool read_breaker(const xmi::XmlNode& node, sim::CircuitBreaker::Checkpoint& out,
                  support::DiagnosticSink& sink) {
  bool ok = read_integer(node, "state", out.state, sink);
  ok = read_integer(node, "outcomes", out.outcomes, sink) && ok;
  ok = read_integer(node, "cursor", out.cursor, sink) && ok;
  ok = read_integer(node, "samples", out.samples, sink) && ok;
  ok = read_integer(node, "failures-in-window", out.failures_in_window, sink) && ok;
  ok = read_integer(node, "open-duration-ps", out.open_duration_ps, sink) && ok;
  ok = read_integer(node, "reopen-at-ps", out.reopen_at_ps, sink) && ok;
  ok = read_bool(node, "timer-pending", out.timer_pending, sink) && ok;
  ok = read_bool(node, "probe-in-flight", out.probe_in_flight, sink) && ok;
  ok = read_integer(node, "issued", out.stats.issued, sink) && ok;
  ok = read_integer(node, "ok", out.stats.ok, sink) && ok;
  ok = read_integer(node, "failures", out.stats.failures, sink) && ok;
  ok = read_integer(node, "fast-failed", out.stats.fast_failed, sink) && ok;
  ok = read_integer(node, "opens", out.stats.opens, sink) && ok;
  ok = read_integer(node, "closes", out.stats.closes, sink) && ok;
  ok = read_integer(node, "probes", out.stats.probes, sink) && ok;
  ok = read_integer(node, "probe-failures", out.stats.probe_failures, sink) && ok;
  return ok;
}

bool read_health(const xmi::XmlNode& node, sim::HealthRegistry::Checkpoint& out,
                 support::DiagnosticSink& sink) {
  bool ok = read_integer(node, "transitions", out.transitions, sink);
  for (const xmi::XmlNode* entry : node.children_named("unit")) {
    std::uint8_t value = 0;
    ok = read_integer(*entry, "health", value, sink) && ok;
    out.health.push_back(value);
  }
  return ok;
}

bool read_bank(const xmi::XmlNode& node,
               std::vector<std::pair<std::string, std::uint64_t>>& out,
               support::DiagnosticSink& sink) {
  bool ok = true;
  for (const xmi::XmlNode* entry : node.children_named("value")) {
    std::string key;
    std::uint64_t value = 0;
    ok = read_string(*entry, "key", key, sink) && ok;
    ok = read_integer(*entry, "value", value, sink) && ok;
    out.emplace_back(std::move(key), value);
  }
  return ok;
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
    out.banks.push_back({bank.name, bank.capture()});
  }
  image = std::move(out);
  return true;
}

// --- XML encoding ------------------------------------------------------------

std::string image_to_xml(const SnapshotImage& image) {
  xmi::XmlNode root{std::string(kRootName)};
  write_kernel(root, image);
  if (image.fault_plan) write_fault_plan(root, *image.fault_plan);
  if (image.recorder) write_recorder(root, *image.recorder);
  for (const auto& entry : image.machines) write_machine(root, entry.name, entry.state);
  for (const auto& entry : image.buses) write_bus(root, entry.name, entry.state);
  for (const auto& entry : image.watchdogs) write_watchdog(root, entry.name, entry.state);
  for (const auto& entry : image.supervisors) write_supervisor(root, entry.name, entry.state);
  for (const auto& entry : image.breakers) write_breaker(root, entry.name, entry.state);
  for (const auto& entry : image.health) write_health(root, entry.name, entry.state);
  for (const auto& entry : image.banks) write_bank(root, entry.name, entry.state);

  // Per-section checksums first (they become part of the hashed document
  // content), then the document-level attributes.
  for (const auto& child : root.children()) {
    child->set_attribute("checksum", to_hex(section_checksum(*child)));
  }
  root.set_attribute("version", std::to_string(kSnapshotVersion));
  root.set_attribute("checksum", to_hex(content_checksum(root)));
  return root.str();
}

// --- XML decoding ------------------------------------------------------------

bool image_from_xml(std::string_view input, SnapshotImage& image,
                    support::DiagnosticSink& sink) {
  const std::unique_ptr<xmi::XmlNode> root = xmi::parse_xml(input, sink);
  if (root == nullptr) {
    sink.error("snapshot", "input is not a well-formed snapshot document");
    return false;
  }
  if (root->name() != kRootName) {
    sink.error("snapshot", "root element is <" + root->name() + ">, expected <" +
                               std::string(kRootName) + ">");
    return false;
  }
  int version = 0;
  if (!read_integer(*root, "version", version, sink)) return false;
  if (version != kSnapshotVersion) {
    sink.error("snapshot", "unsupported snapshot version " + std::to_string(version) +
                               " (this build reads version " +
                               std::to_string(kSnapshotVersion) + ")");
    return false;
  }
  std::uint64_t stored_checksum = 0;
  if (!read_integer(*root, "checksum", stored_checksum, sink, 16)) return false;
  const std::uint64_t computed = content_checksum(*root);
  if (computed != stored_checksum) {
    sink.error("snapshot", "checksum mismatch: stored " + to_hex(stored_checksum) +
                               ", computed " + to_hex(computed) +
                               " — the snapshot is corrupted");
    // Re-verify every section's own checksum so the report names the
    // damaged section(s) instead of just the document hash.
    std::size_t index = 0;
    for (const auto& child : root->children()) {
      std::uint64_t stored_section = 0;
      support::DiagnosticSink quiet;
      if (read_integer(*child, "checksum", stored_section, quiet, 16)) {
        const std::uint64_t section_computed = section_checksum(*child);
        if (section_computed != stored_section) {
          sink.error("snapshot", "section checksum mismatch in " + describe_section(*child) +
                                     " (section #" + std::to_string(index) + "): stored " +
                                     to_hex(stored_section) + ", computed " +
                                     to_hex(section_computed));
        }
      } else {
        sink.error("snapshot", "section " + describe_section(*child) + " (section #" +
                                   std::to_string(index) +
                                   ") has a missing or malformed checksum attribute");
      }
      ++index;
    }
    return false;
  }
  // Document hash intact: still hold every section to a present, correct
  // checksum so hand-assembled documents keep the per-section framing.
  {
    bool sections_ok = true;
    std::size_t index = 0;
    for (const auto& child : root->children()) {
      std::uint64_t stored_section = 0;
      if (!read_integer(*child, "checksum", stored_section, sink, 16)) {
        sections_ok = false;
      } else if (section_checksum(*child) != stored_section) {
        sink.error("snapshot", "section checksum mismatch in " + describe_section(*child) +
                                   " (section #" + std::to_string(index) + "): stored " +
                                   to_hex(stored_section) + ", computed " +
                                   to_hex(section_checksum(*child)));
        sections_ok = false;
      }
      ++index;
    }
    if (!sections_ok) return false;
  }

  SnapshotImage out;
  bool ok = true;
  bool kernel_seen = false;
  for (const auto& child : root->children()) {
    const std::string& element = child->name();
    if (element == "kernel") {
      if (kernel_seen) {
        sink.error("snapshot", "duplicate <kernel> section");
        ok = false;
        continue;
      }
      kernel_seen = true;
      ok = read_kernel(*child, out.kernel, out.kernel_timed_labels, sink) && ok;
    } else if (element == "fault-plan") {
      if (out.fault_plan) {
        sink.error("snapshot", "duplicate <fault-plan> section");
        ok = false;
        continue;
      }
      SnapshotImage::FaultPlanState plan;
      ok = read_fault_plan(*child, plan, sink) && ok;
      out.fault_plan = std::move(plan);
    } else if (element == "recorder") {
      if (out.recorder) {
        sink.error("snapshot", "duplicate <recorder> section");
        ok = false;
        continue;
      }
      SnapshotImage::RecorderState recorder;
      ok = read_recorder(*child, recorder, sink) && ok;
      out.recorder = std::move(recorder);
    } else if (element == "machine") {
      SnapshotImage::Named<statechart::InstanceSnapshot> entry;
      ok = read_string(*child, "name", entry.name, sink) && ok;
      ok = read_machine(*child, entry.state, sink) && ok;
      out.machines.push_back(std::move(entry));
    } else if (element == "bus") {
      SnapshotImage::Named<sim::MemoryMappedBus::Checkpoint> entry;
      ok = read_string(*child, "name", entry.name, sink) && ok;
      ok = read_bus(*child, entry.state, sink) && ok;
      out.buses.push_back(std::move(entry));
    } else if (element == "watchdog") {
      SnapshotImage::Named<sim::Watchdog::Checkpoint> entry;
      ok = read_string(*child, "name", entry.name, sink) && ok;
      ok = read_watchdog(*child, entry.state, sink) && ok;
      out.watchdogs.push_back(std::move(entry));
    } else if (element == "supervisor") {
      SnapshotImage::Named<sim::Supervisor::Checkpoint> entry;
      ok = read_string(*child, "name", entry.name, sink) && ok;
      ok = read_supervisor(*child, entry.state, sink) && ok;
      out.supervisors.push_back(std::move(entry));
    } else if (element == "breaker") {
      SnapshotImage::Named<sim::CircuitBreaker::Checkpoint> entry;
      ok = read_string(*child, "name", entry.name, sink) && ok;
      ok = read_breaker(*child, entry.state, sink) && ok;
      out.breakers.push_back(std::move(entry));
    } else if (element == "health") {
      SnapshotImage::Named<sim::HealthRegistry::Checkpoint> entry;
      ok = read_string(*child, "name", entry.name, sink) && ok;
      ok = read_health(*child, entry.state, sink) && ok;
      out.health.push_back(std::move(entry));
    } else if (element == "bank") {
      SnapshotImage::Named<std::vector<std::pair<std::string, std::uint64_t>>> entry;
      ok = read_string(*child, "name", entry.name, sink) && ok;
      ok = read_bank(*child, entry.state, sink) && ok;
      out.banks.push_back(std::move(entry));
    } else {
      sink.error("snapshot", "unknown section <" + element + ">");
      ok = false;
    }
  }
  if (!kernel_seen) {
    sink.error("snapshot", "missing <kernel> section");
    ok = false;
  }
  if (!ok) return false;
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
  for (std::size_t i = 0; i < targets.banks.size(); ++i) {
    if (!targets.banks[i].restore(image.banks[bank_order[i]].state, sink)) return false;
  }
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
  out = image_to_xml(image);
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
  if (!image_from_xml(input, image, sink)) return false;
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

std::function<bool()> restart_from_bank(ValueBank bank, support::DiagnosticSink& sink) {
  auto values = std::make_shared<std::vector<std::pair<std::string, std::uint64_t>>>(
      bank.capture());
  return [bank = std::move(bank), &sink, values] { return bank.restore(*values, sink); };
}

}  // namespace umlsoc::replay
