#include "fleet/handoff.hpp"

#include <algorithm>
#include <cstring>

namespace umlsoc::fleet {

namespace {

constexpr std::uint32_t kFrameMagic = 0x55465031;  // "UFP1"
constexpr std::size_t kHeaderSize = 4 + 1 + 4;
constexpr std::uint32_t kMaxPayload = 16u << 20;  // Desync guard, not a real limit.
constexpr std::uint32_t kResultVersion = 1;

// Little-endian scalar writer/reader. The pipe never leaves the host, but a
// fixed byte order keeps encoded results comparable as bytes (and the codec
// testable against pinned vectors).
void put_u32(std::string& out, std::uint32_t value) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

void put_string(std::string& out, const std::string& value) {
  put_u32(out, static_cast<std::uint32_t>(value.size()));
  out += value;
}

class Cursor {
 public:
  explicit Cursor(std::string_view data) : data_(data) {}

  bool u8(std::uint8_t& value) {
    if (offset_ + 1 > data_.size()) return fail();
    value = static_cast<std::uint8_t>(data_[offset_++]);
    return true;
  }
  bool u32(std::uint32_t& value) {
    if (offset_ + 4 > data_.size()) return fail();
    value = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      value |= static_cast<std::uint32_t>(static_cast<unsigned char>(data_[offset_++]))
               << shift;
    }
    return true;
  }
  bool u64(std::uint64_t& value) {
    if (offset_ + 8 > data_.size()) return fail();
    value = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      value |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[offset_++]))
               << shift;
    }
    return true;
  }
  bool str(std::string& value) {
    std::uint32_t size = 0;
    if (!u32(size)) return false;
    if (offset_ + size > data_.size()) return fail();
    value.assign(data_.data() + offset_, size);
    offset_ += size;
    return true;
  }
  [[nodiscard]] bool exhausted() const { return ok_ && offset_ == data_.size(); }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  bool fail() {
    ok_ = false;
    return false;
  }
  std::string_view data_;
  std::size_t offset_ = 0;
  bool ok_ = true;
};

// Counter blocks travel as their fields in visit order (support/counters.hpp),
// so the encode and decode sides can never drift from the structs.
template <typename Block>
void put_block(std::string& out, const Block& block) {
  Block::fields([&out](support::CounterRule, const std::uint64_t& field) { put_u64(out, field); },
                block);
}

template <typename Block>
bool get_block(Cursor& cursor, Block& block) {
  Block::fields([&cursor](support::CounterRule, std::uint64_t& field) { (void)cursor.u64(field); },
                block);
  return cursor.ok();
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  std::string out;
  out.reserve(kHeaderSize + payload.size());
  put_u32(out, kFrameMagic);
  out.push_back(static_cast<char>(type));
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  out.append(payload.data(), payload.size());
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
  Cursor cursor(std::string_view(buffer_).substr(consumed_));
  std::uint32_t magic = 0;
  std::uint8_t type = 0;
  std::uint32_t length = 0;
  if (!cursor.u32(magic) || !cursor.u8(type) || !cursor.u32(length)) return false;
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

std::string encode_hello(std::uint64_t pid) {
  std::string out;
  put_u64(out, pid);
  return out;
}

bool decode_hello(std::string_view payload, std::uint64_t& pid) {
  Cursor cursor(payload);
  return cursor.u64(pid) && cursor.exhausted();
}

std::string encode_start_seed(std::uint64_t index, std::uint32_t attempt) {
  std::string out;
  put_u64(out, index);
  put_u32(out, attempt);
  return out;
}

bool decode_start_seed(std::string_view payload, std::uint64_t& index,
                       std::uint32_t& attempt) {
  Cursor cursor(payload);
  return cursor.u64(index) && cursor.u32(attempt) && cursor.exhausted();
}

std::string encode_assign(const std::vector<Grant>& grants) {
  std::string out;
  put_u32(out, static_cast<std::uint32_t>(grants.size()));
  for (const Grant& grant : grants) {
    put_u64(out, grant.index);
    put_u64(out, grant.seed);
    put_u32(out, grant.attempt);
    put_u32(out, grant.fault_template);
  }
  return out;
}

bool decode_assign(std::string_view payload, std::vector<Grant>& grants) {
  Cursor cursor(payload);
  std::uint32_t count = 0;
  if (!cursor.u32(count)) return false;
  grants.clear();
  grants.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Grant grant;
    if (!cursor.u64(grant.index) || !cursor.u64(grant.seed) ||
        !cursor.u32(grant.attempt) || !cursor.u32(grant.fault_template)) {
      return false;
    }
    grants.push_back(grant);
  }
  return cursor.exhausted();
}

std::string encode_result(std::uint64_t index, const RigOutcome& outcome) {
  std::string out;
  put_u32(out, kResultVersion);
  put_u64(out, index);
  put_u64(out, outcome.seed);
  out.push_back(outcome.ok ? 1 : 0);
  put_string(out, outcome.failure);
  put_u64(out, outcome.sim_time_ps);
  put_u64(out, outcome.events_processed);
  put_block(out, outcome.slo);
  put_block(out, outcome.health);
  put_block(out, outcome.kernel);
  put_u32(out, outcome.fault_template);
  put_u64(out, outcome.wall_ns);
  put_u32(out, outcome.attempts);
  put_u64(out, outcome.resumed_from_seq);
  return out;
}

bool decode_result(std::string_view payload, std::uint64_t& index, RigOutcome& outcome) {
  Cursor cursor(payload);
  std::uint32_t version = 0;
  if (!cursor.u32(version) || version != kResultVersion) return false;
  if (!cursor.u64(index)) return false;
  outcome = RigOutcome{};
  std::uint8_t ok = 0;
  if (!cursor.u64(outcome.seed) || !cursor.u8(ok) || !cursor.str(outcome.failure) ||
      !cursor.u64(outcome.sim_time_ps) || !cursor.u64(outcome.events_processed)) {
    return false;
  }
  outcome.ok = ok != 0;
  if (!get_block(cursor, outcome.slo) || !get_block(cursor, outcome.health) ||
      !get_block(cursor, outcome.kernel) || !cursor.u32(outcome.fault_template) ||
      !cursor.u64(outcome.wall_ns) || !cursor.u32(outcome.attempts) ||
      !cursor.u64(outcome.resumed_from_seq)) {
    return false;
  }
  return cursor.exhausted();
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
