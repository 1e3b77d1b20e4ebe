#include "replay/binary.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <type_traits>

#include "support/bytes.hpp"

namespace umlsoc::replay {

using support::ByteReader;
using support::ByteWriter;
using support::Walked;

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

// --- section payload codecs ---------------------------------------------------
// One field walk per section state, shared by both directions: `io` is a
// ByteWriter when encoding and a ByteReader when decoding, and each call
// writes or reads one field in place. image_to_binary walks a decoded
// SnapshotImage, IncrementalEncoder live state captured into scratch, and
// assemble_image walks a fresh image while reading; all three therefore agree
// on the bytes. The recorder section keeps its own codec below: the encoder
// streams and patches it in place.

/// `label_of(timed)` is the process label stored with each pending timed
/// event: the string to write when encoding, the one to fill when decoding.
template <typename IO, typename LabelOf>
void kernel_fields(IO& io, Walked<IO, sim::Kernel::Checkpoint>& kernel, LabelOf label_of) {
  io.u64(kernel.now_ps);
  io.u64(kernel.sequence);
  io.u64(kernel.delta_count);
  io.u64(kernel.events_processed);
  io.u64(kernel.process_count);
  io.list(kernel.timed, [&](IO& io, auto& timed) {
    io.u64(timed.at_ps);
    io.u64(timed.sequence);
    io.u32(timed.process);
    io.str(label_of(timed));
  });
  io.list(kernel.expectations, [](IO& io, auto& expectation) {
    io.str(expectation.label);
    io.u64(expectation.outstanding);
  });
}

template <typename IO>
void fields(IO& io, Walked<IO, SnapshotImage::FaultPlanState>& plan) {
  io.u64(plan.seed);
  io.list(plan.sites, [](IO& io, auto& entry) {
    auto& [site, state] = entry;
    io.enumerated(site, sim::kFaultSiteCount);
    io.u64(state.rng_state);
    io.u64(state.counters.consults);
    io.u64(state.counters.errors);
    io.u64(state.counters.drops);
    io.u64(state.counters.delays);
    io.u64(state.counters.bit_flips);
    io.u64(state.counters.glitches);
  });
}

/// The header (both flags, all four counters), then the configuration walk
/// the verifier's state encoding shares.
template <typename IO>
void fields(IO& io, Walked<IO, statechart::InstanceSnapshot>& snapshot) {
  io.boolean(snapshot.started);
  io.boolean(snapshot.terminated);
  io.u64(snapshot.events_processed);
  io.u64(snapshot.transitions_fired);
  io.u64(snapshot.errors_raised);
  io.u64(snapshot.errors_unhandled);
  statechart::configuration_fields(io, snapshot);
}

template <typename IO>
void fields(IO& io, Walked<IO, sim::MemoryMappedBus::Checkpoint>& checkpoint) {
  io.u64(checkpoint.stats.reads);
  io.u64(checkpoint.stats.writes);
  io.u64(checkpoint.stats.errors);
  io.u64(checkpoint.stats.injected_errors);
  io.u64(checkpoint.stats.injected_drops);
  io.u64(checkpoint.stats.injected_delays);
  io.u64(checkpoint.stats.injected_bit_flips);
  io.u64(checkpoint.stats.completions);
  io.u64(checkpoint.stats.dropped_completions);
  io.u64(checkpoint.last_completion_ps);
}

template <typename IO>
void fields(IO& io, Walked<IO, sim::Watchdog::Checkpoint>& checkpoint) {
  io.boolean(checkpoint.armed);
  io.boolean(checkpoint.tripped);
  io.boolean(checkpoint.check_pending);
  io.u64(checkpoint.trip_at_ps);
  io.u64(checkpoint.trips);
  io.u64(checkpoint.kicks);
}

template <typename IO>
void fields(IO& io, Walked<IO, sim::Supervisor::Checkpoint>& checkpoint) {
  io.boolean(checkpoint.suspended);
  io.boolean(checkpoint.gave_up);
  io.str(checkpoint.give_up_reason);
  io.u64(checkpoint.escalations);
  io.list(checkpoint.window, [](IO& io, auto& at_ps) { io.u64(at_ps); });
  io.list(checkpoint.children, [](IO& io, auto& child) {
    io.u64(child.failures);
    io.u64(child.restarts);
    io.u64(child.failed_restarts);
    io.u32(child.consecutive);
    io.u64(child.last_failure_ps);
  });
  io.list(checkpoint.pending, [](IO& io, auto& pending) {
    io.u64(pending.due_ps);
    io.u32(pending.child);
  });
}

template <typename IO>
void fields(IO& io, Walked<IO, sim::CircuitBreaker::Checkpoint>& checkpoint) {
  io.u8(checkpoint.state);
  io.u64(checkpoint.outcomes);
  io.u32(checkpoint.cursor);
  io.u32(checkpoint.samples);
  io.u32(checkpoint.failures_in_window);
  io.u64(checkpoint.open_duration_ps);
  io.u64(checkpoint.reopen_at_ps);
  io.boolean(checkpoint.timer_pending);
  io.boolean(checkpoint.probe_in_flight);
  io.u64(checkpoint.stats.issued);
  io.u64(checkpoint.stats.ok);
  io.u64(checkpoint.stats.failures);
  io.u64(checkpoint.stats.fast_failed);
  io.u64(checkpoint.stats.opens);
  io.u64(checkpoint.stats.closes);
  io.u64(checkpoint.stats.probes);
  io.u64(checkpoint.stats.probe_failures);
}

template <typename IO>
void fields(IO& io, Walked<IO, sim::HealthRegistry::Checkpoint>& checkpoint) {
  io.u64(checkpoint.transitions);
  io.list(checkpoint.health, [](IO& io, auto& value) { io.u8(value); });
}

/// A bank: its entries' keys and values. `entries` is a stored BankValues,
/// or — encoding live — a bank's bound fields, written in place so no key
/// is copied.
template <typename IO, typename Entries>
void bank_fields(IO& io, Entries& entries) {
  io.list(entries, [](IO& io, auto& entry) {
    if constexpr (std::is_same_v<std::remove_cvref_t<decltype(entry)>, ValueBank::Field>) {
      io.str(entry.key);
      io.u64(*entry.value);
    } else {
      io.str(entry.first);
      io.u64(entry.second);
    }
  });
}

template <typename IO>
void fields(IO& io, Walked<IO, SnapshotImage::BankValues>& values) {
  bank_fields(io, values);
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
    std::size_t next = 0;
    kernel_fields(out, image.kernel, [&](const auto&) -> std::string_view {
      const std::size_t i = next++;
      if (i < image.kernel_timed_labels.size()) return image.kernel_timed_labels[i];
      return {};
    });
  });
  if (image.fault_plan) {
    add_section(sections, SectionKind::kFaultPlan, "",
                [&](ByteWriter& out) { fields(out, *image.fault_plan); });
  }
  if (image.recorder) {
    add_section(sections, SectionKind::kRecorder, "", [&](ByteWriter& out) {
      encode_recorder(out, image.recorder->total, {image.recorder->events, {}});
    });
  }
  for_each_named_section([&](SectionKind kind, auto, auto image_of, auto&&...) {
    for (const auto& entry : image.*image_of) {
      add_section(sections, kind, entry.name, [&](ByteWriter& out) { fields(out, entry.state); });
    }
  });
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
    bool ok = true;  // Besides the reader's own overrun latch.
    switch (section.kind) {
      case SectionKind::kKernel:
        kernel_seen = true;
        kernel_fields(in, out.kernel, [&](const auto&) -> std::string& {
          return out.kernel_timed_labels.emplace_back();
        });
        break;
      case SectionKind::kFaultPlan:
        fields(in, out.fault_plan.emplace());
        break;
      case SectionKind::kRecorder:
        ok = decode_recorder(in, out.recorder.emplace());
        break;
      default:
        for_each_named_section([&](SectionKind kind, auto, auto image_of, auto&&...) {
          if (kind == section.kind) fields(in, (out.*image_of).emplace_back(section.name).state);
        });
    }
    ok = ok && !in.failed();
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
        kind > static_cast<std::uint8_t>(kLastSectionKind)) {
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
/// section's payload from live state, capturing each component into its
/// kind's slot of `scratch` (whose kernel is already captured) so buffers
/// are reused across checkpoints; banks are written straight from their
/// bound fields. The recorder's encode writes nothing: IncrementalEncoder
/// streams that section itself.
template <typename Visit>
void visit_live_sections(const SnapshotTargets& targets, SnapshotImage& scratch, Visit visit) {
  visit(SectionKind::kKernel, std::string_view(), [&](ByteWriter& out) {
    kernel_fields(out, scratch.kernel, [&](const auto& timed) -> std::string_view {
      return targets.kernel->process_label(timed.process);
    });
  });
  if (targets.fault_plan != nullptr) {
    visit(SectionKind::kFaultPlan, std::string_view(), [&](ByteWriter& out) {
      if (!scratch.fault_plan) scratch.fault_plan.emplace();
      scratch.fault_plan->capture(*targets.fault_plan);
      fields(out, *scratch.fault_plan);
    });
  }
  if (targets.recorder != nullptr) {
    visit(SectionKind::kRecorder, std::string_view(), [](ByteWriter&) {});
  }
  for_each_named_section([&](SectionKind kind, auto targets_of, auto image_of, auto capture,
                             auto) {
    for (const auto& target : targets.*targets_of) {
      visit(kind, target.name, [&](ByteWriter& out) {
        if constexpr (std::is_same_v<std::remove_cvref_t<decltype(target)>, ValueBank>) {
          bank_fields(out, target.fields);
        } else {
          auto& slots = scratch.*image_of;
          if (slots.empty()) slots.emplace_back();
          capture(target, slots.front().state);
          fields(out, slots.front().state);
        }
      });
    }
  });
}

}  // namespace

bool IncrementalEncoder::reshape(const SnapshotTargets& targets) {
  const std::size_t previous = sections_.size();
  std::size_t count = 0;
  bool reshaped = false;
  visit_live_sections(targets, scratch_,
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
  if (!capture_kernel(targets, scratch_.kernel, sink)) return false;

  // Delta encoding only makes sense against an identically-shaped base.
  const bool reshaped = reshape(targets);
  const bool delta = have_base_ && !reshaped && !force_full;
  have_base_ = false;  // Until every section below holds this checkpoint.

  std::size_t next = 0;
  std::size_t dirty = 0;
  visit_live_sections(targets, scratch_,
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
