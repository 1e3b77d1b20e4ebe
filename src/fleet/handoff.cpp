#include "fleet/handoff.hpp"

#include <algorithm>
#include <type_traits>

#include "support/bytes.hpp"

namespace umlsoc::fleet {

namespace {

using support::ByteReader;
using support::ByteWriter;

constexpr std::uint32_t kFrameMagic = 0x55465031;  // "UFP1"
constexpr std::size_t kHeaderSize = 4 + 1 + 4;
constexpr std::uint32_t kMaxPayload = 16u << 20;  // Desync guard, not a real limit.
constexpr std::uint32_t kResultVersion = 1;

// Each payload layout is one two-way field walk (support/bytes.hpp) over the
// values it carries: write_payload() encodes them, read_payload() decodes
// them and accepts only a payload the walk consumes exactly. The pipe never
// leaves the host, but a fixed byte order keeps encoded results comparable
// as bytes (and the codec testable against pinned vectors).
template <typename Walk, typename... Values>
std::string write_payload(Walk walk, const Values&... values) {
  std::string out;
  ByteWriter writer(out);
  walk(writer, values...);
  return out;
}

template <typename Walk, typename... Values>
bool read_payload(std::string_view payload, Walk walk, Values&... values) {
  ByteReader reader(payload);
  walk(reader, values...);
  return reader.exhausted();
}

constexpr auto kHelloFields = [](auto& io, auto& pid) { io.u64(pid); };

constexpr auto kStartSeedFields = [](auto& io, auto& index, auto& attempt) {
  io.u64(index);
  io.u32(attempt);
};

constexpr auto kAssignFields = [](auto& io, auto& grants) {
  io.list(grants, [](auto& io, auto& grant) {
    io.u64(grant.index);
    io.u64(grant.seed);
    io.u32(grant.attempt);
    io.u32(grant.fault_template);
  });
};

// Counter blocks travel as their fields in visit order (support/counters.hpp),
// so the encode and decode sides can never drift from the structs.
template <typename IO, typename Block>
void block_fields(IO& io, Block& block) {
  std::remove_const_t<Block>::fields(
      [&io](support::CounterRule, auto& field) { io.u64(field); }, block);
}

/// The version word comes first; a payload with another version still walks
/// to its end, and decode_result refuses it.
constexpr auto kResultFields = [](auto& io, auto& version, auto& index, auto& outcome) {
  io.u32(version);
  io.u64(index);
  io.u64(outcome.seed);
  io.boolean(outcome.ok);
  io.str(outcome.failure);
  io.u64(outcome.sim_time_ps);
  io.u64(outcome.events_processed);
  block_fields(io, outcome.slo);
  block_fields(io, outcome.health);
  block_fields(io, outcome.kernel);
  io.u32(outcome.fault_template);
  io.u64(outcome.wall_ns);
  io.u32(outcome.attempts);
  io.u64(outcome.resumed_from_seq);
};

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  ByteWriter writer(out);
  writer.u32(kFrameMagic);
  writer.u8(static_cast<std::uint8_t>(type));
  writer.u32(static_cast<std::uint32_t>(payload.size()));
  writer.bytes(payload);
  return out;
}

void FrameReader::feed(const char* data, std::size_t size) {
  if (corrupt_) return;
  // Compact lazily: only when the consumed prefix dominates the buffer.
  if (consumed_ > 4096 && consumed_ * 2 > buffer_.size()) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

bool FrameReader::next(Frame& out) {
  if (corrupt_) return false;
  if (buffer_.size() - consumed_ < kHeaderSize) return false;
  ByteReader header(std::string_view(buffer_).substr(consumed_, kHeaderSize));
  const std::uint32_t magic = header.u32();
  const std::uint8_t type = header.u8();
  const std::uint32_t length = header.u32();
  if (magic != kFrameMagic || length > kMaxPayload ||
      type < static_cast<std::uint8_t>(FrameType::kHello) ||
      type > static_cast<std::uint8_t>(FrameType::kShutdown)) {
    corrupt_ = true;
    return false;
  }
  if (buffer_.size() - consumed_ < kHeaderSize + length) return false;
  out.type = static_cast<FrameType>(type);
  out.payload.assign(buffer_, consumed_ + kHeaderSize, length);
  consumed_ += kHeaderSize + length;
  return true;
}

std::string encode_hello(std::uint64_t pid) { return write_payload(kHelloFields, pid); }

bool decode_hello(std::string_view payload, std::uint64_t& pid) {
  return read_payload(payload, kHelloFields, pid);
}

std::string encode_start_seed(std::uint64_t index, std::uint32_t attempt) {
  return write_payload(kStartSeedFields, index, attempt);
}

bool decode_start_seed(std::string_view payload, std::uint64_t& index,
                       std::uint32_t& attempt) {
  return read_payload(payload, kStartSeedFields, index, attempt);
}

std::string encode_assign(const std::vector<Grant>& grants) {
  return write_payload(kAssignFields, grants);
}

bool decode_assign(std::string_view payload, std::vector<Grant>& grants) {
  return read_payload(payload, kAssignFields, grants);
}

std::string encode_result(std::uint64_t index, const RigOutcome& outcome) {
  return write_payload(kResultFields, kResultVersion, index, outcome);
}

bool decode_result(std::string_view payload, std::uint64_t& index, RigOutcome& outcome) {
  std::uint32_t version = 0;
  return read_payload(payload, kResultFields, version, index, outcome) &&
         version == kResultVersion;
}

// --- HandoffLedger ------------------------------------------------------------

HandoffLedger::HandoffLedger(std::uint64_t total, std::uint32_t quarantine_threshold)
    : seeds_(total), quarantine_threshold_(std::max<std::uint32_t>(1, quarantine_threshold)) {}

std::vector<std::uint64_t> HandoffLedger::claim(unsigned worker, std::uint64_t max) {
  std::vector<std::uint64_t> granted;
  while (granted.size() < max && !requeue_.empty()) {
    const std::uint64_t index = requeue_.front();
    requeue_.erase(requeue_.begin());
    SeedRecord& record = seeds_[index];
    record.state = SeedState::kAssigned;
    record.owner = worker;
    granted.push_back(index);
    ++redispatches_;
  }
  while (granted.size() < max && cursor_ < seeds_.size()) {
    const std::uint64_t index = cursor_++;
    SeedRecord& record = seeds_[index];
    record.state = SeedState::kAssigned;
    record.owner = worker;
    granted.push_back(index);
  }
  return granted;
}

bool HandoffLedger::start(unsigned worker, std::uint64_t index) {
  if (index >= seeds_.size()) return false;
  SeedRecord& record = seeds_[index];
  if (record.state != SeedState::kAssigned || record.owner != worker) return false;
  record.state = SeedState::kInFlight;
  return true;
}

bool HandoffLedger::accept(unsigned worker, std::uint64_t index) {
  if (index >= seeds_.size()) return false;
  SeedRecord& record = seeds_[index];
  if (record.state != SeedState::kAssigned && record.state != SeedState::kInFlight) {
    return false;  // Duplicate or never granted: drop.
  }
  if (record.owner != worker) return false;
  record.state = SeedState::kDone;
  ++record.attempt;
  ++done_;
  return true;
}

HandoffLedger::DeathReport HandoffLedger::on_worker_death(unsigned worker) {
  DeathReport report;
  for (std::uint64_t index = 0; index < seeds_.size(); ++index) {
    SeedRecord& record = seeds_[index];
    if (record.owner != worker) continue;
    if (record.state == SeedState::kInFlight) {
      // The seed the worker was executing when it died gets the blame.
      ++record.kills;
      ++record.attempt;
      if (record.kills >= quarantine_threshold_) {
        record.state = SeedState::kPoisoned;
        ++poisoned_;
        report.poisoned.push_back(index);
        continue;
      }
      record.state = SeedState::kPending;
      requeue_.push_back(index);
      report.requeued.push_back(index);
    } else if (record.state == SeedState::kAssigned) {
      // Granted but never started: re-dispatch without blame.
      record.state = SeedState::kPending;
      requeue_.push_back(index);
      report.requeued.push_back(index);
    }
  }
  return report;
}

}  // namespace umlsoc::fleet
