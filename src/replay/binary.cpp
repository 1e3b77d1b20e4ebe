#include "replay/binary.hpp"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <span>

namespace umlsoc::replay {

namespace {

constexpr std::uint32_t kFlagDelta = 1u;

constexpr std::uint8_t kEntryPayload = 0;
constexpr std::uint8_t kEntryReference = 1;
constexpr std::uint8_t kEntryRecorderAppend = 2;

/// Fixed byte cost of one recorder log entry (u64 at_ps + u32 process).
constexpr std::size_t kRecorderEntryBytes = 12;
/// Recorder payload tail: u64 total + u32 count.
constexpr std::size_t kRecorderTailBytes = 12;

std::string to_hex(std::uint64_t value) {
  char buffer[17];
  for (int i = 15; i >= 0; --i) {
    buffer[i] = "0123456789abcdef"[value & 0xF];
    value >>= 4;
  }
  buffer[16] = '\0';
  return std::string(buffer);
}

// --- primitive codecs (little-endian, memcpy) --------------------------------

/// Appends little-endian fields to a caller-owned buffer, so encoders can
/// reuse one buffer's capacity across checkpoints.
class ByteWriter {
 public:
  explicit ByteWriter(std::string& buffer) : buffer_(buffer) {}

  void u8(std::uint8_t value) { buffer_.push_back(static_cast<char>(value)); }
  void u16(std::uint16_t value) { raw(&value, sizeof value); }
  void u32(std::uint32_t value) { raw(&value, sizeof value); }
  void u64(std::uint64_t value) { raw(&value, sizeof value); }
  void i64(std::int64_t value) { u64(std::bit_cast<std::uint64_t>(value)); }
  void boolean(bool value) { u8(value ? 1 : 0); }
  /// u32 length + bytes.
  void str(std::string_view value) {
    u32(static_cast<std::uint32_t>(value.size()));
    bytes(value);
  }
  void bytes(std::string_view value) { buffer_.append(value); }
  /// Grows the buffer by `size` bytes and returns where they start, for
  /// fixed-width runs filled with put().
  char* extend(std::size_t size) {
    const std::size_t at = buffer_.size();
    buffer_.resize(at + size);
    return buffer_.data() + at;
  }

  /// Stores `value` little-endian at `out` (no bounds check).
  template <typename T>
  static void put(char* out, T value) {
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, &value, sizeof value);
    } else {
      for (std::size_t i = 0; i < sizeof value; ++i) {
        out[i] = static_cast<char>(static_cast<std::uint64_t>(value) >> (8 * i));
      }
    }
  }

 private:
  void raw(const void* data, std::size_t size) {
    if constexpr (std::endian::native == std::endian::little) {
      buffer_.append(static_cast<const char*>(data), size);
    } else {
      const auto* first = static_cast<const unsigned char*>(data);
      for (std::size_t i = size; i-- > 0;) buffer_.push_back(static_cast<char>(first[i]));
    }
  }

  std::string& buffer_;
};

/// Bounds-checked reader. The first overrun latches `failed()`; subsequent
/// reads return zero so decoders can run to completion and report once.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t u8() {
    std::uint8_t value = 0;
    raw(&value, 1);
    return value;
  }
  std::uint16_t u16() {
    std::uint16_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::uint32_t u32() {
    std::uint32_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::uint64_t u64() {
    std::uint64_t value = 0;
    raw(&value, sizeof value);
    return value;
  }
  std::int64_t i64() { return std::bit_cast<std::int64_t>(u64()); }
  bool boolean() { return u8() != 0; }
  std::string str() {
    const std::uint32_t length = u32();
    return std::string(bytes(length));
  }
  std::string_view bytes(std::size_t size) {
    if (failed_ || data_.size() - position_ < size) {
      failed_ = true;
      return {};
    }
    const std::string_view view = data_.substr(position_, size);
    position_ += size;
    return view;
  }

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t position() const { return position_; }
  [[nodiscard]] std::size_t remaining() const { return failed_ ? 0 : data_.size() - position_; }
  [[nodiscard]] bool exhausted() const { return !failed_ && position_ == data_.size(); }

 private:
  void raw(void* out, std::size_t size) {
    const std::string_view view = bytes(size);
    if (view.size() != size) return;
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, view.data(), size);
    } else {
      auto* first = static_cast<unsigned char*>(out);
      for (std::size_t i = 0; i < size; ++i) {
        first[i] = static_cast<unsigned char>(view[size - 1 - i]);
      }
    }
  }

  std::string_view data_;
  std::size_t position_ = 0;
  bool failed_ = false;
};

// --- section payload codecs ---------------------------------------------------
// One codec per section kind, each appending to a caller-supplied writer.
// image_to_binary feeds them a decoded SnapshotImage; IncrementalEncoder
// feeds them live component state. Both therefore produce the same bytes.

/// `label_of(i)` names the process of checkpoint.timed[i].
template <typename LabelOf>
void encode_kernel(ByteWriter& out, const sim::Kernel::Checkpoint& checkpoint,
                   LabelOf label_of) {
  out.u64(checkpoint.now_ps);
  out.u64(checkpoint.sequence);
  out.u64(checkpoint.delta_count);
  out.u64(checkpoint.events_processed);
  out.u64(checkpoint.process_count);
  out.u32(static_cast<std::uint32_t>(checkpoint.timed.size()));
  for (std::size_t i = 0; i < checkpoint.timed.size(); ++i) {
    out.u64(checkpoint.timed[i].at_ps);
    out.u64(checkpoint.timed[i].sequence);
    out.u32(checkpoint.timed[i].process);
    out.str(label_of(i));
  }
  out.u32(static_cast<std::uint32_t>(checkpoint.expectations.size()));
  for (const auto& expectation : checkpoint.expectations) {
    out.str(expectation.label);
    out.u64(expectation.outstanding);
  }
}

bool decode_kernel(ByteReader& in, sim::Kernel::Checkpoint& out,
                   std::vector<std::string>& labels) {
  out.now_ps = in.u64();
  out.sequence = in.u64();
  out.delta_count = in.u64();
  out.events_processed = in.u64();
  out.process_count = in.u64();
  const std::uint32_t timed_count = in.u32();
  for (std::uint32_t i = 0; i < timed_count && !in.failed(); ++i) {
    sim::Kernel::Checkpoint::PendingTimed timed;
    timed.at_ps = in.u64();
    timed.sequence = in.u64();
    timed.process = in.u32();
    out.timed.push_back(timed);
    labels.push_back(in.str());
  }
  const std::uint32_t expectation_count = in.u32();
  for (std::uint32_t i = 0; i < expectation_count && !in.failed(); ++i) {
    sim::Kernel::Checkpoint::ExpectationEntry entry;
    entry.label = in.str();
    entry.outstanding = in.u64();
    out.expectations.push_back(std::move(entry));
  }
  return !in.failed();
}

void encode_fault_site(ByteWriter& out, sim::FaultSite site,
                       const sim::FaultPlan::SiteState& state) {
  out.u8(static_cast<std::uint8_t>(site));
  out.u64(state.rng_state);
  out.u64(state.counters.consults);
  out.u64(state.counters.errors);
  out.u64(state.counters.drops);
  out.u64(state.counters.delays);
  out.u64(state.counters.bit_flips);
  out.u64(state.counters.glitches);
}

void encode_fault_plan(ByteWriter& out, const SnapshotImage::FaultPlanState& plan) {
  out.u64(plan.seed);
  out.u32(static_cast<std::uint32_t>(plan.sites.size()));
  for (const auto& [site, state] : plan.sites) encode_fault_site(out, site, state);
}

/// Live edition: every site, in site order (as capture_image records them).
void encode_fault_plan(ByteWriter& out, const sim::FaultPlan& plan) {
  out.u64(plan.seed());
  out.u32(static_cast<std::uint32_t>(sim::kFaultSiteCount));
  for (std::size_t i = 0; i < sim::kFaultSiteCount; ++i) {
    const auto site = static_cast<sim::FaultSite>(i);
    encode_fault_site(out, site, plan.site_state(site));
  }
}

bool decode_fault_plan(ByteReader& in, SnapshotImage::FaultPlanState& out) {
  out.seed = in.u64();
  const std::uint32_t site_count = in.u32();
  for (std::uint32_t i = 0; i < site_count && !in.failed(); ++i) {
    const std::uint8_t raw = in.u8();
    if (raw >= sim::kFaultSiteCount) return false;
    sim::FaultPlan::SiteState state;
    state.rng_state = in.u64();
    state.counters.consults = in.u64();
    state.counters.errors = in.u64();
    state.counters.drops = in.u64();
    state.counters.delays = in.u64();
    state.counters.bit_flips = in.u64();
    state.counters.glitches = in.u64();
    out.sites.emplace_back(static_cast<sim::FaultSite>(raw), state);
  }
  return !in.failed();
}

/// The 12-byte recorder tail: u64 running total + u32 entry count.
void put_recorder_tail(char* out, std::uint64_t total, std::size_t count) {
  ByteWriter::put(out, total);
  ByteWriter::put(out + 8, static_cast<std::uint32_t>(count));
}

/// The running total stored in the tail of a recorder or append payload
/// of at least kRecorderTailBytes.
std::uint64_t recorder_tail_total(std::string_view payload) {
  ByteReader in(payload.substr(payload.size() - kRecorderTailBytes));
  return in.u64();
}

/// Appends entries [from, size) of `log` as 12-byte records (u64 at_ps +
/// u32 process), in one resize.
void encode_recorder_entries(ByteWriter& out, const sim::EventRecorder::LogView& log,
                             std::size_t from) {
  const std::size_t split = std::min(from, log.older.size());
  const std::span<const sim::RecordedEvent> runs[] = {log.older.subspan(split),
                                                      log.newer.subspan(from - split)};
  char* cursor = out.extend((log.size() - from) * kRecorderEntryBytes);
  for (const std::span<const sim::RecordedEvent> run : runs) {
    for (const sim::RecordedEvent& event : run) {
      ByteWriter::put(cursor, event.at_ps);
      ByteWriter::put(cursor + 8, event.process);
      cursor += kRecorderEntryBytes;
    }
  }
}

void encode_recorder(ByteWriter& out, std::uint64_t total, const sim::EventRecorder::LogView& log) {
  encode_recorder_entries(out, log, 0);
  put_recorder_tail(out.extend(kRecorderTailBytes), total, log.size());
}

/// True when recorder payload `current` is `previous`'s entries plus whole
/// new entries and the running total grew by exactly that many — the splice
/// invariant the decoder checks. A ring overwrite or a rewritten log breaks
/// it.
bool extends_recorder(std::string_view previous, std::string_view current) {
  if (current.size() <= previous.size() || previous.size() < kRecorderTailBytes) return false;
  const std::size_t kept = previous.size() - kRecorderTailBytes;
  if (current.compare(0, kept, previous, 0, kept) != 0) return false;
  const std::uint64_t previous_total = recorder_tail_total(previous);
  const std::uint64_t current_total = recorder_tail_total(current);
  return current_total >= previous_total &&
         current_total - previous_total ==
             (current.size() - previous.size()) / kRecorderEntryBytes;
}

/// Entries, then the tail. The entry bytes fix the count; a tail that
/// disagrees with them, or a payload that is not whole entries plus a tail,
/// is malformed.
bool decode_recorder(ByteReader& in, SnapshotImage::RecorderState& out) {
  const std::size_t size = in.remaining();
  if (size < kRecorderTailBytes || (size - kRecorderTailBytes) % kRecorderEntryBytes != 0) {
    return false;
  }
  const std::size_t count = (size - kRecorderTailBytes) / kRecorderEntryBytes;
  out.events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    sim::RecordedEvent event;
    event.at_ps = in.u64();
    event.process = in.u32();
    out.events.push_back(event);
  }
  out.total = in.u64();
  const std::uint32_t stored_count = in.u32();
  return !in.failed() && stored_count == count && out.events.size() <= out.total;
}

void encode_event_records(ByteWriter& out,
                          const std::vector<statechart::InstanceSnapshot::EventRecord>& records) {
  out.u32(static_cast<std::uint32_t>(records.size()));
  for (const auto& record : records) {
    out.str(record.name);
    out.i64(record.data);
    out.str(record.tag);
  }
}

bool decode_event_records(ByteReader& in,
                          std::vector<statechart::InstanceSnapshot::EventRecord>& out) {
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count && !in.failed(); ++i) {
    statechart::InstanceSnapshot::EventRecord record;
    record.name = in.str();
    record.data = in.i64();
    record.tag = in.str();
    out.push_back(std::move(record));
  }
  return !in.failed();
}

void encode_machine(ByteWriter& out, const statechart::InstanceSnapshot& snapshot) {
  out.boolean(snapshot.started);
  out.boolean(snapshot.terminated);
  out.u64(snapshot.events_processed);
  out.u64(snapshot.transitions_fired);
  out.u64(snapshot.errors_raised);
  out.u64(snapshot.errors_unhandled);
  out.u32(static_cast<std::uint32_t>(snapshot.active_states.size()));
  for (std::uint32_t index : snapshot.active_states) out.u32(index);
  out.u32(static_cast<std::uint32_t>(snapshot.active_finals.size()));
  for (std::uint32_t index : snapshot.active_finals) out.u32(index);
  out.u32(static_cast<std::uint32_t>(snapshot.shallow_history.size()));
  for (const auto& [region, state] : snapshot.shallow_history) {
    out.u32(region);
    out.u32(state);
  }
  out.u32(static_cast<std::uint32_t>(snapshot.deep_history.size()));
  for (const auto& [region, leaves] : snapshot.deep_history) {
    out.u32(region);
    out.u32(static_cast<std::uint32_t>(leaves.size()));
    for (std::uint32_t leaf : leaves) out.u32(leaf);
  }
  out.u32(static_cast<std::uint32_t>(snapshot.variables.size()));
  for (const auto& [name, value] : snapshot.variables) {
    out.str(name);
    out.i64(value);
  }
  encode_event_records(out, snapshot.queue);
  encode_event_records(out, snapshot.deferred);
}

bool decode_machine(ByteReader& in, statechart::InstanceSnapshot& out) {
  out.started = in.boolean();
  out.terminated = in.boolean();
  out.events_processed = in.u64();
  out.transitions_fired = in.u64();
  out.errors_raised = in.u64();
  out.errors_unhandled = in.u64();
  const std::uint32_t state_count = in.u32();
  for (std::uint32_t i = 0; i < state_count && !in.failed(); ++i) {
    out.active_states.push_back(in.u32());
  }
  const std::uint32_t final_count = in.u32();
  for (std::uint32_t i = 0; i < final_count && !in.failed(); ++i) {
    out.active_finals.push_back(in.u32());
  }
  const std::uint32_t shallow_count = in.u32();
  for (std::uint32_t i = 0; i < shallow_count && !in.failed(); ++i) {
    const std::uint32_t region = in.u32();
    out.shallow_history.emplace_back(region, in.u32());
  }
  const std::uint32_t deep_count = in.u32();
  for (std::uint32_t i = 0; i < deep_count && !in.failed(); ++i) {
    const std::uint32_t region = in.u32();
    std::vector<std::uint32_t> leaves;
    const std::uint32_t leaf_count = in.u32();
    for (std::uint32_t j = 0; j < leaf_count && !in.failed(); ++j) leaves.push_back(in.u32());
    out.deep_history.emplace_back(region, std::move(leaves));
  }
  const std::uint32_t variable_count = in.u32();
  for (std::uint32_t i = 0; i < variable_count && !in.failed(); ++i) {
    std::string name = in.str();
    out.variables.emplace_back(std::move(name), in.i64());
  }
  if (!decode_event_records(in, out.queue)) return false;
  if (!decode_event_records(in, out.deferred)) return false;
  return !in.failed();
}

void encode_bus(ByteWriter& out, const sim::MemoryMappedBus::Checkpoint& checkpoint) {
  out.u64(checkpoint.stats.reads);
  out.u64(checkpoint.stats.writes);
  out.u64(checkpoint.stats.errors);
  out.u64(checkpoint.stats.injected_errors);
  out.u64(checkpoint.stats.injected_drops);
  out.u64(checkpoint.stats.injected_delays);
  out.u64(checkpoint.stats.injected_bit_flips);
  out.u64(checkpoint.stats.completions);
  out.u64(checkpoint.stats.dropped_completions);
  out.u64(checkpoint.last_completion_ps);
}

bool decode_bus(ByteReader& in, sim::MemoryMappedBus::Checkpoint& out) {
  out.stats.reads = in.u64();
  out.stats.writes = in.u64();
  out.stats.errors = in.u64();
  out.stats.injected_errors = in.u64();
  out.stats.injected_drops = in.u64();
  out.stats.injected_delays = in.u64();
  out.stats.injected_bit_flips = in.u64();
  out.stats.completions = in.u64();
  out.stats.dropped_completions = in.u64();
  out.last_completion_ps = in.u64();
  return !in.failed();
}

void encode_watchdog(ByteWriter& out, const sim::Watchdog::Checkpoint& checkpoint) {
  out.boolean(checkpoint.armed);
  out.boolean(checkpoint.tripped);
  out.boolean(checkpoint.check_pending);
  out.u64(checkpoint.trip_at_ps);
  out.u64(checkpoint.trips);
  out.u64(checkpoint.kicks);
}

bool decode_watchdog(ByteReader& in, sim::Watchdog::Checkpoint& out) {
  out.armed = in.boolean();
  out.tripped = in.boolean();
  out.check_pending = in.boolean();
  out.trip_at_ps = in.u64();
  out.trips = in.u64();
  out.kicks = in.u64();
  return !in.failed();
}

void encode_supervisor(ByteWriter& out, const sim::Supervisor::Checkpoint& checkpoint) {
  out.boolean(checkpoint.suspended);
  out.boolean(checkpoint.gave_up);
  out.str(checkpoint.give_up_reason);
  out.u64(checkpoint.escalations);
  out.u32(static_cast<std::uint32_t>(checkpoint.window.size()));
  for (std::uint64_t at_ps : checkpoint.window) out.u64(at_ps);
  out.u32(static_cast<std::uint32_t>(checkpoint.children.size()));
  for (const auto& child : checkpoint.children) {
    out.u64(child.failures);
    out.u64(child.restarts);
    out.u64(child.failed_restarts);
    out.u32(child.consecutive);
    out.u64(child.last_failure_ps);
  }
  out.u32(static_cast<std::uint32_t>(checkpoint.pending.size()));
  for (const auto& pending : checkpoint.pending) {
    out.u64(pending.due_ps);
    out.u32(pending.child);
  }
}

bool decode_supervisor(ByteReader& in, sim::Supervisor::Checkpoint& out) {
  out.suspended = in.boolean();
  out.gave_up = in.boolean();
  out.give_up_reason = in.str();
  out.escalations = in.u64();
  const std::uint32_t window_count = in.u32();
  for (std::uint32_t i = 0; i < window_count && !in.failed(); ++i) out.window.push_back(in.u64());
  const std::uint32_t child_count = in.u32();
  for (std::uint32_t i = 0; i < child_count && !in.failed(); ++i) {
    sim::Supervisor::Checkpoint::ChildState child;
    child.failures = in.u64();
    child.restarts = in.u64();
    child.failed_restarts = in.u64();
    child.consecutive = in.u32();
    child.last_failure_ps = in.u64();
    out.children.push_back(child);
  }
  const std::uint32_t pending_count = in.u32();
  for (std::uint32_t i = 0; i < pending_count && !in.failed(); ++i) {
    sim::Supervisor::Checkpoint::PendingRestart pending;
    pending.due_ps = in.u64();
    pending.child = in.u32();
    out.pending.push_back(pending);
  }
  return !in.failed();
}

void encode_breaker(ByteWriter& out, const sim::CircuitBreaker::Checkpoint& checkpoint) {
  out.u8(checkpoint.state);
  out.u64(checkpoint.outcomes);
  out.u32(checkpoint.cursor);
  out.u32(checkpoint.samples);
  out.u32(checkpoint.failures_in_window);
  out.u64(checkpoint.open_duration_ps);
  out.u64(checkpoint.reopen_at_ps);
  out.boolean(checkpoint.timer_pending);
  out.boolean(checkpoint.probe_in_flight);
  out.u64(checkpoint.stats.issued);
  out.u64(checkpoint.stats.ok);
  out.u64(checkpoint.stats.failures);
  out.u64(checkpoint.stats.fast_failed);
  out.u64(checkpoint.stats.opens);
  out.u64(checkpoint.stats.closes);
  out.u64(checkpoint.stats.probes);
  out.u64(checkpoint.stats.probe_failures);
}

bool decode_breaker(ByteReader& in, sim::CircuitBreaker::Checkpoint& out) {
  out.state = in.u8();
  out.outcomes = in.u64();
  out.cursor = in.u32();
  out.samples = in.u32();
  out.failures_in_window = in.u32();
  out.open_duration_ps = in.u64();
  out.reopen_at_ps = in.u64();
  out.timer_pending = in.boolean();
  out.probe_in_flight = in.boolean();
  out.stats.issued = in.u64();
  out.stats.ok = in.u64();
  out.stats.failures = in.u64();
  out.stats.fast_failed = in.u64();
  out.stats.opens = in.u64();
  out.stats.closes = in.u64();
  out.stats.probes = in.u64();
  out.stats.probe_failures = in.u64();
  return !in.failed();
}

void encode_health(ByteWriter& out, const sim::HealthRegistry::Checkpoint& checkpoint) {
  out.u64(checkpoint.transitions);
  out.u32(static_cast<std::uint32_t>(checkpoint.health.size()));
  for (std::uint8_t value : checkpoint.health) out.u8(value);
}

bool decode_health(ByteReader& in, sim::HealthRegistry::Checkpoint& out) {
  out.transitions = in.u64();
  const std::uint32_t unit_count = in.u32();
  for (std::uint32_t i = 0; i < unit_count && !in.failed(); ++i) out.health.push_back(in.u8());
  return !in.failed();
}

void encode_bank(ByteWriter& out, const SnapshotImage::BankValues& values) {
  out.u32(static_cast<std::uint32_t>(values.size()));
  for (const auto& [key, value] : values) {
    out.str(key);
    out.u64(value);
  }
}

/// A live bank encodes exactly like its captured image: keys in field order.
void encode_bank(ByteWriter& out, const ValueBank& bank) {
  out.u32(static_cast<std::uint32_t>(bank.fields.size()));
  for (const ValueBank::Field& field : bank.fields) {
    out.str(field.key);
    out.u64(*field.value);
  }
}

bool decode_bank(ByteReader& in, SnapshotImage::BankValues& out) {
  const std::uint32_t count = in.u32();
  for (std::uint32_t i = 0; i < count && !in.failed(); ++i) {
    std::string key = in.str();
    out.emplace_back(std::move(key), in.u64());
  }
  return !in.failed();
}

// --- image <-> flat section list ---------------------------------------------

struct FlatSection {
  SectionKind kind;
  std::string name;
  std::string payload;
};

template <typename Encode>
void add_section(std::vector<FlatSection>& sections, SectionKind kind, std::string_view name,
                 Encode encode) {
  FlatSection& section = sections.emplace_back(FlatSection{kind, std::string(name), {}});
  ByteWriter out(section.payload);
  encode(out);
}

/// The image's sections in file order — the same order in which
/// IncrementalEncoder::encode streams live targets.
std::vector<FlatSection> flatten_image(const SnapshotImage& image) {
  std::vector<FlatSection> sections;
  sections.reserve(image.section_count());
  add_section(sections, SectionKind::kKernel, "", [&](ByteWriter& out) {
    encode_kernel(out, image.kernel, [&](std::size_t i) -> std::string_view {
      if (i < image.kernel_timed_labels.size()) return image.kernel_timed_labels[i];
      return {};
    });
  });
  if (image.fault_plan) {
    add_section(sections, SectionKind::kFaultPlan, "",
                [&](ByteWriter& out) { encode_fault_plan(out, *image.fault_plan); });
  }
  if (image.recorder) {
    add_section(sections, SectionKind::kRecorder, "", [&](ByteWriter& out) {
      encode_recorder(out, image.recorder->total, {image.recorder->events, {}});
    });
  }
  for (const auto& entry : image.machines) {
    add_section(sections, SectionKind::kMachine, entry.name,
                [&](ByteWriter& out) { encode_machine(out, entry.state); });
  }
  for (const auto& entry : image.buses) {
    add_section(sections, SectionKind::kBus, entry.name,
                [&](ByteWriter& out) { encode_bus(out, entry.state); });
  }
  for (const auto& entry : image.watchdogs) {
    add_section(sections, SectionKind::kWatchdog, entry.name,
                [&](ByteWriter& out) { encode_watchdog(out, entry.state); });
  }
  for (const auto& entry : image.supervisors) {
    add_section(sections, SectionKind::kSupervisor, entry.name,
                [&](ByteWriter& out) { encode_supervisor(out, entry.state); });
  }
  for (const auto& entry : image.breakers) {
    add_section(sections, SectionKind::kBreaker, entry.name,
                [&](ByteWriter& out) { encode_breaker(out, entry.state); });
  }
  for (const auto& entry : image.health) {
    add_section(sections, SectionKind::kHealth, entry.name,
                [&](ByteWriter& out) { encode_health(out, entry.state); });
  }
  for (const auto& entry : image.banks) {
    add_section(sections, SectionKind::kBank, entry.name,
                [&](ByteWriter& out) { encode_bank(out, entry.state); });
  }
  return sections;
}

std::string describe(SectionKind kind, std::string_view name) {
  std::string out = "<" + std::string(to_string(kind));
  if (!name.empty()) out += " name='" + std::string(name) + "'";
  return out + ">";
}

bool assemble_image(const std::vector<FlatSection>& sections, SnapshotImage& image,
                    support::DiagnosticSink& sink) {
  SnapshotImage out;
  bool kernel_seen = false;
  for (const FlatSection& section : sections) {
    // Duplicate named sections of one kind are structural corruption.
    for (const FlatSection* other = sections.data(); other != &section; ++other) {
      if (other->kind == section.kind && other->name == section.name) {
        sink.error("binary-snapshot",
                   "duplicate " + describe(section.kind, section.name) + " section");
        return false;
      }
    }
    ByteReader in(section.payload);
    bool ok = false;
    switch (section.kind) {
      case SectionKind::kKernel:
        kernel_seen = true;
        ok = decode_kernel(in, out.kernel, out.kernel_timed_labels);
        break;
      case SectionKind::kFaultPlan: {
        SnapshotImage::FaultPlanState plan;
        ok = decode_fault_plan(in, plan);
        if (ok) out.fault_plan = std::move(plan);
        break;
      }
      case SectionKind::kRecorder: {
        SnapshotImage::RecorderState recorder;
        ok = decode_recorder(in, recorder);
        if (ok) out.recorder = std::move(recorder);
        break;
      }
      case SectionKind::kMachine: {
        SnapshotImage::Named<statechart::InstanceSnapshot> entry{section.name, {}};
        ok = decode_machine(in, entry.state);
        if (ok) out.machines.push_back(std::move(entry));
        break;
      }
      case SectionKind::kBus: {
        SnapshotImage::Named<sim::MemoryMappedBus::Checkpoint> entry{section.name, {}};
        ok = decode_bus(in, entry.state);
        if (ok) out.buses.push_back(std::move(entry));
        break;
      }
      case SectionKind::kWatchdog: {
        SnapshotImage::Named<sim::Watchdog::Checkpoint> entry{section.name, {}};
        ok = decode_watchdog(in, entry.state);
        if (ok) out.watchdogs.push_back(std::move(entry));
        break;
      }
      case SectionKind::kSupervisor: {
        SnapshotImage::Named<sim::Supervisor::Checkpoint> entry{section.name, {}};
        ok = decode_supervisor(in, entry.state);
        if (ok) out.supervisors.push_back(std::move(entry));
        break;
      }
      case SectionKind::kBreaker: {
        SnapshotImage::Named<sim::CircuitBreaker::Checkpoint> entry{section.name, {}};
        ok = decode_breaker(in, entry.state);
        if (ok) out.breakers.push_back(std::move(entry));
        break;
      }
      case SectionKind::kHealth: {
        SnapshotImage::Named<sim::HealthRegistry::Checkpoint> entry{section.name, {}};
        ok = decode_health(in, entry.state);
        if (ok) out.health.push_back(std::move(entry));
        break;
      }
      case SectionKind::kBank: {
        SnapshotImage::Named<SnapshotImage::BankValues> entry{section.name, {}};
        ok = decode_bank(in, entry.state);
        if (ok) out.banks.push_back(std::move(entry));
        break;
      }
    }
    if (!ok || !in.exhausted()) {
      sink.error("binary-snapshot",
                 "malformed payload in " + describe(section.kind, section.name) +
                     (ok ? " (trailing bytes)" : ""));
      return false;
    }
  }
  if (!kernel_seen) {
    sink.error("binary-snapshot", "missing kernel section");
    return false;
  }
  image = std::move(out);
  return true;
}

// --- file framing ------------------------------------------------------------

struct FrameEntry {
  SectionKind kind = SectionKind::kKernel;
  std::string name;
  std::uint8_t entry_flags = kEntryPayload;
  /// Stored frame payload. For reference frames this is the 8-byte expected
  /// FNV of the *resolved* payload from the base, so a drifted base is
  /// caught at resolve time while the frame checksum still guards the
  /// reference frame's own bytes.
  std::string payload;
};

/// One frame to write; views into buffers the caller keeps alive.
struct FrameRef {
  SectionKind kind = SectionKind::kKernel;
  std::string_view name;
  std::uint8_t entry_flags = kEntryPayload;
  std::string_view payload;
  std::uint64_t payload_hash = 0;  ///< fnv1a(payload), which the caller supplies.
};

/// Magic, version, flags, seq, base_seq, section count, header checksum.
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8 + 4 + 8;
/// Kind, name length, entry flags, payload length, frame checksum.
constexpr std::size_t kFrameFixedBytes = 1 + 2 + 1 + 4 + 8;

/// Writes a complete file into `out` (cleared, then reserved once): frames
/// `frame_at(0) .. frame_at(count - 1)` between header and trailer. No
/// payload byte is hashed here: each frame checksum continues the frame's
/// `payload_hash` over the metadata just written.
template <typename FrameAt>
void encode_file(std::string& out, std::uint32_t flags, std::uint64_t seq,
                 std::uint64_t base_seq, std::size_t count, FrameAt frame_at) {
  std::size_t size = kHeaderBytes + kBinaryTrailer.size();
  for (std::size_t i = 0; i < count; ++i) {
    const FrameRef frame = frame_at(i);
    size += kFrameFixedBytes + frame.name.size() + frame.payload.size();
  }
  out.clear();
  out.reserve(size);
  ByteWriter writer(out);
  writer.bytes(kBinaryMagic);
  writer.u32(static_cast<std::uint32_t>(kSnapshotVersion));
  writer.u32(flags);
  writer.u64(seq);
  writer.u64(base_seq);
  writer.u32(static_cast<std::uint32_t>(count));
  writer.u64(fnv1a(out));
  for (std::size_t i = 0; i < count; ++i) {
    const FrameRef frame = frame_at(i);
    // The frame checksum covers the payload AND the frame metadata, so a
    // bit-flip anywhere in the frame — kind, name, flags, lengths, payload
    // — fails this section's validation, not some later decode step. The
    // payload comes first so its hash can be kept across files; the
    // metadata is hashed where it was just written.
    const std::size_t meta_start = out.size();
    writer.u8(static_cast<std::uint8_t>(frame.kind));
    writer.u16(static_cast<std::uint16_t>(frame.name.size()));
    writer.bytes(frame.name);
    writer.u8(frame.entry_flags);
    writer.u32(static_cast<std::uint32_t>(frame.payload.size()));
    writer.u64(fnv1a(std::string_view(out).substr(meta_start), frame.payload_hash));
    writer.bytes(frame.payload);
  }
  writer.bytes(kBinaryTrailer);
}

bool parse_header(ByteReader& in, std::string_view data, BinarySnapshotInfo& info,
                  support::DiagnosticSink& sink) {
  if (in.bytes(kBinaryMagic.size()) != kBinaryMagic) {
    sink.error("binary-snapshot", "bad magic: not a binary snapshot file");
    return false;
  }
  info.version = static_cast<int>(in.u32());
  const std::uint32_t flags = in.u32();
  info.delta = (flags & kFlagDelta) != 0;
  info.seq = in.u64();
  info.base_seq = in.u64();
  info.section_count = in.u32();
  const std::size_t hashed = in.position();
  const std::uint64_t stored = in.u64();
  if (in.failed()) {
    sink.error("binary-snapshot", "truncated header (" + std::to_string(data.size()) +
                                      " bytes)");
    return false;
  }
  if (info.version != kSnapshotVersion) {
    sink.error("binary-snapshot",
               "unsupported snapshot version " + std::to_string(info.version) +
                   " (this build reads version " + std::to_string(kSnapshotVersion) + ")");
    return false;
  }
  const std::uint64_t computed = fnv1a(data.substr(0, hashed));
  if (stored != computed) {
    sink.error("binary-snapshot", "header checksum mismatch: stored " + to_hex(stored) +
                                      ", computed " + to_hex(computed));
    return false;
  }
  return true;
}

/// Full framing parse: header, every section frame (bounds + frame
/// checksums covering metadata and payload), trailer, exact length.
bool parse_file(std::string_view data, BinarySnapshotInfo& info,
                std::vector<FrameEntry>& entries, support::DiagnosticSink& sink) {
  ByteReader in(data);
  if (!parse_header(in, data, info, sink)) return false;
  for (std::uint32_t i = 0; i < info.section_count; ++i) {
    const std::size_t offset = in.position();
    FrameEntry entry;
    const std::uint8_t kind = in.u8();
    const std::uint16_t name_length = in.u16();
    entry.name = std::string(in.bytes(name_length));
    entry.entry_flags = in.u8();
    const std::uint32_t payload_length = in.u32();
    const std::size_t meta_end = in.position();
    const std::uint64_t stored = in.u64();
    entry.payload = std::string(in.bytes(payload_length));
    if (in.failed()) {
      sink.error("binary-snapshot", "truncated in section #" + std::to_string(i) +
                                        " at offset " + std::to_string(offset) + " (" +
                                        std::to_string(data.size()) + " bytes total)");
      return false;
    }
    if (kind < static_cast<std::uint8_t>(SectionKind::kKernel) ||
        kind > static_cast<std::uint8_t>(SectionKind::kBank)) {
      sink.error("binary-snapshot", "unknown section kind " + std::to_string(kind) +
                                        " at offset " + std::to_string(offset));
      return false;
    }
    entry.kind = static_cast<SectionKind>(kind);
    if (entry.entry_flags > kEntryRecorderAppend) {
      sink.error("binary-snapshot",
                 "unknown entry flags " + std::to_string(entry.entry_flags) + " in " +
                     describe(entry.kind, entry.name) + " at offset " +
                     std::to_string(offset));
      return false;
    }
    const std::uint64_t computed =
        fnv1a(data.substr(offset, meta_end - offset), fnv1a(entry.payload));
    if (computed != stored) {
      sink.error("binary-snapshot", "section checksum mismatch in " +
                                        describe(entry.kind, entry.name) + " at offset " +
                                        std::to_string(offset) + ": stored " +
                                        to_hex(stored) + ", computed " + to_hex(computed));
      return false;
    }
    if (entry.entry_flags == kEntryReference && payload_length != sizeof(std::uint64_t)) {
      sink.error("binary-snapshot", "malformed reference frame in " +
                                        describe(entry.kind, entry.name) + " at offset " +
                                        std::to_string(offset));
      return false;
    }
    entries.push_back(std::move(entry));
  }
  if (in.bytes(kBinaryTrailer.size()) != kBinaryTrailer) {
    sink.error("binary-snapshot", "missing end-of-file trailer (truncated at " +
                                      std::to_string(in.position()) + " of " +
                                      std::to_string(data.size()) + " bytes)");
    return false;
  }
  if (!in.exhausted()) {
    sink.error("binary-snapshot", std::to_string(in.remaining()) +
                                      " trailing bytes after the end-of-file trailer");
    return false;
  }
  return true;
}

/// Splices a recorder append frame (new entries, then the new total and
/// the appended count) onto the materialized base payload.
bool splice_recorder_append(const std::string& base, std::string_view append,
                            std::string& out, support::DiagnosticSink& sink) {
  if (base.size() < kRecorderTailBytes || append.size() < kRecorderTailBytes) {
    sink.error("binary-snapshot", "malformed recorder append frame");
    return false;
  }
  const std::string_view base_entries(base.data(), base.size() - kRecorderTailBytes);
  const std::string_view new_entries = append.substr(0, append.size() - kRecorderTailBytes);
  ByteReader base_tail(std::string_view(base).substr(base_entries.size()));
  const std::uint64_t base_total = base_tail.u64();
  const std::uint32_t base_count = base_tail.u32();
  ByteReader append_tail(append.substr(new_entries.size()));
  const std::uint64_t new_total = append_tail.u64();
  const std::uint32_t appended = append_tail.u32();
  if (base_entries.size() != static_cast<std::size_t>(base_count) * kRecorderEntryBytes ||
      new_entries.size() != static_cast<std::size_t>(appended) * kRecorderEntryBytes ||
      new_total < base_total || new_total - base_total != appended) {
    sink.error("binary-snapshot", "malformed recorder append frame");
    return false;
  }
  std::string merged;
  merged.reserve(base.size() + new_entries.size());
  ByteWriter writer(merged);
  writer.bytes(base_entries);
  writer.bytes(new_entries);
  writer.u64(new_total);
  writer.u32(base_count + appended);
  out = std::move(merged);
  return true;
}

/// Materializes a full section list from a parsed full-snapshot frame list.
bool resolve_full(const BinarySnapshotInfo& info, std::vector<FrameEntry>& entries,
                  std::vector<FlatSection>& sections, support::DiagnosticSink& sink) {
  if (info.delta) {
    sink.error("binary-snapshot",
               "checkpoint " + std::to_string(info.seq) +
                   " is a delta (base " + std::to_string(info.base_seq) +
                   "); it cannot be restored without its chain");
    return false;
  }
  sections.clear();
  sections.reserve(entries.size());
  for (FrameEntry& entry : entries) {
    if (entry.entry_flags != kEntryPayload) {
      sink.error("binary-snapshot", "full snapshot contains a non-payload frame in " +
                                        describe(entry.kind, entry.name));
      return false;
    }
    sections.push_back({entry.kind, std::move(entry.name), std::move(entry.payload)});
  }
  return true;
}

/// Applies one delta's frames onto the materialized section list.
bool apply_delta(std::vector<FlatSection>& sections, std::vector<FrameEntry>& entries,
                 support::DiagnosticSink& sink) {
  for (FrameEntry& entry : entries) {
    FlatSection* match = nullptr;
    for (FlatSection& section : sections) {
      if (section.kind == entry.kind && section.name == entry.name) {
        match = &section;
        break;
      }
    }
    switch (entry.entry_flags) {
      case kEntryPayload:
        if (match != nullptr) {
          match->payload = std::move(entry.payload);
        } else {
          sections.push_back({entry.kind, std::move(entry.name), std::move(entry.payload)});
        }
        break;
      case kEntryReference: {
        if (match == nullptr) {
          sink.error("binary-snapshot", "delta references " + describe(entry.kind, entry.name) +
                                            " which is absent from the base");
          return false;
        }
        ByteReader expected_in(entry.payload);
        const std::uint64_t expected = expected_in.u64();
        const std::uint64_t computed = fnv1a(match->payload);
        if (computed != expected) {
          sink.error("binary-snapshot",
                     "reference checksum mismatch in " + describe(entry.kind, entry.name) +
                         ": delta expects " + to_hex(expected) + ", base holds " +
                         to_hex(computed));
          return false;
        }
        break;
      }
      case kEntryRecorderAppend: {
        if (entry.kind != SectionKind::kRecorder || match == nullptr) {
          sink.error("binary-snapshot", "append frame on non-recorder section " +
                                            describe(entry.kind, entry.name));
          return false;
        }
        std::string merged;
        if (!splice_recorder_append(match->payload, entry.payload, merged, sink)) return false;
        match->payload = std::move(merged);
        break;
      }
      default:
        sink.error("binary-snapshot", "unknown entry flags in delta");
        return false;
    }
  }
  return true;
}

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

}  // namespace

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

bool read_binary_info(std::string_view data, BinarySnapshotInfo& info,
                      support::DiagnosticSink& sink) {
  ByteReader in(data);
  return parse_header(in, data, info, sink);
}

std::string image_to_binary(const SnapshotImage& image) {
  const std::vector<FlatSection> sections = flatten_image(image);
  std::vector<std::uint64_t> hashes;
  hashes.reserve(sections.size());
  for (const FlatSection& section : sections) hashes.push_back(fnv1a(section.payload));
  std::string out;
  encode_file(out, 0, 0, 0, sections.size(), [&](std::size_t i) {
    return FrameRef{sections[i].kind, sections[i].name, kEntryPayload, sections[i].payload,
                    hashes[i]};
  });
  return out;
}

bool image_from_binary(std::string_view data, SnapshotImage& image,
                       support::DiagnosticSink& sink) {
  BinarySnapshotInfo info;
  std::vector<FrameEntry> entries;
  if (!parse_file(data, info, entries, sink)) return false;
  std::vector<FlatSection> sections;
  if (!resolve_full(info, entries, sections, sink)) return false;
  return assemble_image(sections, image, sink);
}

bool image_from_binary_chain(const std::vector<std::string_view>& chain, SnapshotImage& image,
                             support::DiagnosticSink& sink) {
  if (chain.empty()) {
    sink.error("binary-snapshot", "empty checkpoint chain");
    return false;
  }
  BinarySnapshotInfo info;
  std::vector<FrameEntry> entries;
  if (!parse_file(chain.front(), info, entries, sink)) return false;
  std::vector<FlatSection> sections;
  if (!resolve_full(info, entries, sections, sink)) return false;
  std::uint64_t previous_seq = info.seq;
  for (std::size_t i = 1; i < chain.size(); ++i) {
    BinarySnapshotInfo delta_info;
    std::vector<FrameEntry> delta_entries;
    if (!parse_file(chain[i], delta_info, delta_entries, sink)) return false;
    if (!delta_info.delta) {
      sink.error("binary-snapshot", "chain element #" + std::to_string(i) +
                                        " is a full snapshot, expected a delta");
      return false;
    }
    if (delta_info.base_seq != previous_seq) {
      sink.error("binary-snapshot", "chain break: delta " + std::to_string(delta_info.seq) +
                                        " expects base " + std::to_string(delta_info.base_seq) +
                                        ", chain holds " + std::to_string(previous_seq));
      return false;
    }
    if (!apply_delta(sections, delta_entries, sink)) return false;
    previous_seq = delta_info.seq;
  }
  return assemble_image(sections, image, sink);
}

// --- incremental encoding ----------------------------------------------------

namespace {

/// Calls visit(kind, name, encode) for every section the targets serialize,
/// in file order (flatten_image's order). encode(ByteWriter&) appends the
/// section's payload from live state, using `kernel` (already captured)
/// and `machine` (scratch). The recorder's encode writes nothing:
/// IncrementalEncoder streams that section itself.
template <typename Visit>
void visit_live_sections(const SnapshotTargets& targets, const sim::Kernel::Checkpoint& kernel,
                         statechart::InstanceSnapshot& machine, Visit visit) {
  visit(SectionKind::kKernel, std::string_view(), [&](ByteWriter& out) {
    encode_kernel(out, kernel, [&](std::size_t i) -> std::string_view {
      return targets.kernel->process_label(kernel.timed[i].process);
    });
  });
  if (targets.fault_plan != nullptr) {
    visit(SectionKind::kFaultPlan, std::string_view(),
          [&](ByteWriter& out) { encode_fault_plan(out, *targets.fault_plan); });
  }
  if (targets.recorder != nullptr) {
    visit(SectionKind::kRecorder, std::string_view(), [](ByteWriter&) {});
  }
  for (const MachineTarget& target : targets.machines) {
    visit(SectionKind::kMachine, target.name, [&](ByteWriter& out) {
      target.instance->capture_into(machine);
      encode_machine(out, machine);
    });
  }
  for (const BusTarget& target : targets.buses) {
    visit(SectionKind::kBus, target.name,
          [&](ByteWriter& out) { encode_bus(out, target.bus->capture_checkpoint()); });
  }
  for (const WatchdogTarget& target : targets.watchdogs) {
    visit(SectionKind::kWatchdog, target.name, [&](ByteWriter& out) {
      encode_watchdog(out, target.watchdog->capture_checkpoint());
    });
  }
  for (const SupervisorTarget& target : targets.supervisors) {
    visit(SectionKind::kSupervisor, target.name, [&](ByteWriter& out) {
      encode_supervisor(out, target.supervisor->capture_checkpoint());
    });
  }
  for (const BreakerTarget& target : targets.breakers) {
    visit(SectionKind::kBreaker, target.name, [&](ByteWriter& out) {
      encode_breaker(out, target.breaker->capture_checkpoint());
    });
  }
  for (const HealthTarget& target : targets.health) {
    visit(SectionKind::kHealth, target.name, [&](ByteWriter& out) {
      encode_health(out, target.registry->capture_checkpoint());
    });
  }
  for (const ValueBank& bank : targets.banks) {
    visit(SectionKind::kBank, bank.name,
          [&](ByteWriter& out) { encode_bank(out, bank); });
  }
}

}  // namespace

bool IncrementalEncoder::reshape(const SnapshotTargets& targets) {
  const std::size_t previous = sections_.size();
  std::size_t count = 0;
  bool reshaped = false;
  visit_live_sections(targets, kernel_, machine_,
                      [&](SectionKind kind, std::string_view name, const auto&) {
                        if (count == sections_.size()) sections_.emplace_back();
                        Section& section = sections_[count];
                        if (count++ >= previous || section.kind != kind ||
                            section.name != name) {
                          reshaped = true;
                          section.kind = kind;
                          section.name = name;
                        }
                      });
  if (count != previous) {
    reshaped = true;
    sections_.resize(count);
  }
  // The recorder's payload may now sit in another slot (or none).
  if (reshaped) recorder_ = nullptr;
  return reshaped;
}

std::size_t IncrementalEncoder::settle(Section& section, bool delta, bool changed) {
  if (!changed && delta) {
    // Reference frame: the payload is the expected hash of the base's
    // payload, so drift is caught when the chain is resolved.
    ByteWriter::put(section.reference, section.hash);
    section.entry_flags = kEntryReference;
    return 0;
  }
  section.entry_flags = kEntryPayload;
  return 1;
}

std::size_t IncrementalEncoder::settle_encoded(Section& section, bool delta) {
  const bool changed = section.next != section.payload;
  if (changed) {
    section.payload.swap(section.next);
    section.hash = fnv1a(section.payload);
  }
  return settle(section, delta, changed);
}

void IncrementalEncoder::stage_append(std::uint64_t total, std::string_view entries) {
  append_.clear();
  ByteWriter writer(append_);
  writer.bytes(entries);
  const std::uint64_t entries_hash = fnv1a(entries);
  put_recorder_tail(writer.extend(kRecorderTailBytes), total,
                    entries.size() / kRecorderEntryBytes);
  append_hash_ = fnv1a(std::string_view(append_).substr(entries.size()), entries_hash);
}

std::size_t IncrementalEncoder::stream_recorder(Section& section,
                                                const sim::EventRecorder& recorder,
                                                bool delta) {
  const sim::EventRecorder::LogView log = recorder.retained();
  const std::uint64_t total = recorder.total_events();
  const std::size_t count = log.size();
  // Same log lineage, and size and total grew in step: nothing but appends
  // happened since `section.payload` was written (see EventRecorder::lineage).
  const bool appended_only = recorder_ == &recorder && recorder_lineage_ == recorder.lineage() &&
                             count >= recorder_count_ && total >= recorder_total_ &&
                             total - recorder_total_ == count - recorder_count_;
  recorder_ = nullptr;  // Re-armed below once `section.payload` is current.
  std::size_t dirty = 0;
  if (!appended_only) {
    // Rewritten log, ring overwrite, new recorder or lost chain: encode and
    // hash the whole log and classify it against the base byte-for-byte.
    section.next.clear();
    ByteWriter writer(section.next);
    encode_recorder(writer, total, log);
    const bool extended = delta && extends_recorder(section.payload, section.next);
    if (extended) {
      const std::size_t kept = section.payload.size() - kRecorderTailBytes;
      stage_append(total, std::string_view(section.next)
                              .substr(kept, section.next.size() - section.payload.size()));
    }
    const bool changed = section.next != section.payload;
    if (changed) section.payload.swap(section.next);
    const std::string_view payload = section.payload;
    const std::size_t entries = payload.size() - kRecorderTailBytes;
    recorder_entries_hash_ = fnv1a(payload.substr(0, entries));
    section.hash = fnv1a(payload.substr(entries), recorder_entries_hash_);
    dirty = settle(section, delta, changed);
    if (extended) section.entry_flags = kEntryRecorderAppend;
  } else if (count == recorder_count_) {
    dirty = settle(section, delta, /*changed=*/false);
  } else {
    // Only new entries: drop the tail, append them, extend the running hash
    // by them alone, write the new tail and ship just the new entries.
    const std::size_t kept = section.payload.size() - kRecorderTailBytes;
    section.payload.resize(kept);
    ByteWriter writer(section.payload);
    encode_recorder_entries(writer, log, recorder_count_);
    const std::size_t entries = section.payload.size();
    recorder_entries_hash_ =
        fnv1a(std::string_view(section.payload).substr(kept), recorder_entries_hash_);
    put_recorder_tail(writer.extend(kRecorderTailBytes), total, count);
    const std::string_view payload = section.payload;
    section.hash = fnv1a(payload.substr(entries), recorder_entries_hash_);
    section.entry_flags = kEntryPayload;
    if (delta) {
      stage_append(total, payload.substr(kept, entries - kept));
      section.entry_flags = kEntryRecorderAppend;
    }
    dirty = 1;
  }
  recorder_ = &recorder;
  recorder_lineage_ = recorder.lineage();
  recorder_count_ = count;
  recorder_total_ = total;
  return dirty;
}

bool IncrementalEncoder::encode(const SnapshotTargets& targets, bool force_full, Result& out,
                                support::DiagnosticSink& sink) {
  const auto started = std::chrono::steady_clock::now();
  if (!capture_kernel(targets, kernel_, sink)) return false;

  // Delta encoding only makes sense against an identically-shaped base.
  const bool reshaped = reshape(targets);
  const bool delta = have_base_ && !reshaped && !force_full;
  have_base_ = false;  // Until every section below holds this checkpoint.

  std::size_t next = 0;
  std::size_t dirty = 0;
  visit_live_sections(targets, kernel_, machine_,
                      [&](SectionKind kind, std::string_view, const auto& encode_payload) {
                        Section& section = sections_[next++];
                        if (kind == SectionKind::kRecorder) {
                          dirty += stream_recorder(section, *targets.recorder, delta);
                          return;
                        }
                        section.next.clear();
                        ByteWriter writer(section.next);
                        encode_payload(writer);
                        dirty += settle_encoded(section, delta);
                      });
  have_base_ = true;

  out.seq = next_seq_++;
  out.delta = delta;
  out.base_seq = delta ? last_seq_ : 0;
  out.sections_dirty = dirty;
  out.sections_total = sections_.size();
  encode_file(out.bytes, delta ? kFlagDelta : 0, out.seq, out.base_seq, sections_.size(),
              [&](std::size_t i) {
                const Section& section = sections_[i];
                FrameRef frame{section.kind, section.name, section.entry_flags, section.payload,
                               section.hash};
                if (section.entry_flags == kEntryReference) {
                  frame.payload = std::string_view(section.reference, sizeof section.reference);
                  frame.payload_hash = fnv1a(frame.payload);
                } else if (section.entry_flags == kEntryRecorderAppend) {
                  frame.payload = append_;
                  frame.payload_hash = append_hash_;
                }
                return frame;
              });
  last_seq_ = out.seq;
  targets.kernel->note_snapshot_encode(out.bytes.size(), out.sections_dirty, out.sections_total,
                                       elapsed_ns(started));
  return true;
}

}  // namespace umlsoc::replay
