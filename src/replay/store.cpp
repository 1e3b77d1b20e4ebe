#include "replay/store.hpp"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <limits>
#include <system_error>

#include "support/bytes.hpp"

namespace umlsoc::replay {

namespace {

constexpr std::string_view kExtension = ".useg";
constexpr std::size_t kHeaderBytes = CheckpointStore::kRecordHeaderBytes;
/// Header bytes the header checksum covers: seq, length, flags, padding.
constexpr std::size_t kChecksummedBytes = 16;
constexpr std::uint8_t kTombstone = 1;
constexpr std::uint8_t kUncommitted = 2;

struct RecordHeader {
  std::uint64_t seq = 0;
  std::uint32_t length = 0;
  std::uint8_t flags = 0;
};

/// Writes a kHeaderBytes record header to `out`.
void encode_header(char* out, const RecordHeader& header) {
  support::ByteWriter::put(out, header.seq);
  support::ByteWriter::put(out + 8, header.length);
  out[12] = static_cast<char>(header.flags);
  out[13] = out[14] = out[15] = 0;
  support::ByteWriter::put(out + kChecksummedBytes,
                           fnv1a(std::string_view(out, kChecksummedBytes)));
}

/// Parses the record header at the start of `data`; false when it is cut
/// short or fails its checksum.
bool decode_header(std::string_view data, RecordHeader& out) {
  support::ByteReader in(data);
  out.seq = in.u64();
  out.length = in.u32();
  out.flags = in.u8();
  in.bytes(3);  // Zero padding.
  const std::uint64_t checksum = in.u64();
  return !in.failed() && checksum == fnv1a(data.substr(0, kChecksummedBytes));
}

/// Writes `head` then `body` at `offset` with one vectored pwrite (more
/// only if the kernel takes fewer bytes).
bool write_at(int fd, std::string_view head, std::string_view body, std::uint64_t offset) {
  while (!head.empty() || !body.empty()) {
    iovec parts[2] = {{const_cast<char*>(head.data()), head.size()},
                      {const_cast<char*>(body.data()), body.size()}};
    const ssize_t put = ::pwritev(fd, parts, 2, static_cast<off_t>(offset));
    if (put < 0 && errno == EINTR) continue;
    if (put <= 0) return false;
    const std::size_t written = static_cast<std::size_t>(put);
    const std::size_t from_head = std::min(written, head.size());
    head.remove_prefix(from_head);
    body.remove_prefix(written - from_head);
    offset += written;
  }
  return true;
}

bool read_all(const std::filesystem::path& path, std::string& out) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return false;
  const off_t size = ::lseek(fd, 0, SEEK_END);
  bool ok = size >= 0;
  out.resize(ok ? static_cast<std::size_t>(size) : 0);
  std::size_t done = 0;
  while (ok && done < out.size()) {
    const ssize_t got =
        ::pread(fd, out.data() + done, out.size() - done, static_cast<off_t>(done));
    if (got < 0 && errno == EINTR) continue;
    if (got < 0) ok = false;
    if (got <= 0) break;
    done += static_cast<std::size_t>(got);
  }
  out.resize(done);
  ::close(fd);
  return ok;
}

/// Parses `<stem><digits>.useg` (at least 8 digits).
bool parse_segment_name(std::string_view name, std::string_view stem, std::uint64_t& seq) {
  if (name.size() < stem.size() + 8 + kExtension.size()) return false;
  if (!name.starts_with(stem) || !name.ends_with(kExtension)) return false;
  const char* first = name.data() + stem.size();
  const char* last = name.data() + name.size() - kExtension.size();
  const auto [ptr, ec] = std::from_chars(first, last, seq);
  return ec == std::errc() && ptr == last;
}

std::string error_text() { return std::error_code(errno, std::system_category()).message(); }

std::uint64_t elapsed_ns(std::chrono::steady_clock::time_point since) {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now() - since)
                                        .count());
}

}  // namespace

CheckpointStore::CheckpointStore(CheckpointStoreConfig config) : config_(std::move(config)) {
  if (config_.full_interval == 0) config_.full_interval = 1;
  if (config_.keep_fulls == 0) config_.keep_fulls = 1;
  std::error_code ec;
  std::filesystem::create_directories(config_.directory, ec);
  index_directory();
}

CheckpointStore::~CheckpointStore() { close_segment(); }

void CheckpointStore::index_directory() {
  const std::string stem = config_.prefix + "-";
  std::error_code ec;
  std::string bytes;
  for (const auto& dirent :
       std::filesystem::directory_iterator(config_.directory, ec)) {
    Segment segment;
    if (!dirent.is_regular_file(ec) ||
        !parse_segment_name(dirent.path().filename().string(), stem, segment.first_seq)) {
      continue;
    }
    // Records follow each other until the first header that fails its
    // checksum or was never committed: everything after it is a torn tail
    // or bytes an uncommitted record's successor would have overwritten. A
    // record cut short is kept (the ladder quarantines it) and ends the walk.
    const std::string_view data = read_all(dirent.path(), bytes) ? bytes : std::string_view();
    std::uint64_t offset = 0;
    RecordHeader header;
    while (offset + kHeaderBytes <= data.size() &&
           decode_header(data.substr(static_cast<std::size_t>(offset)), header) &&
           (header.flags & kUncommitted) == 0) {
      segment.records.push_back(
          {header.seq, offset, header.length, (header.flags & kTombstone) != 0});
      offset += kHeaderBytes + header.length;
    }
    segments_.push_back(std::move(segment));
  }
  std::sort(segments_.begin(), segments_.end(),
            [](const Segment& a, const Segment& b) { return a.first_seq < b.first_seq; });
}

void CheckpointStore::bind_health(sim::HealthRegistry& registry) {
  health_ = &registry;
  health_unit_ = registry.register_unit("checkpoint-store " + config_.prefix);
}

std::filesystem::path CheckpointStore::segment_path(std::uint64_t first_seq) const {
  std::string digits = std::to_string(first_seq);
  if (digits.size() < 8) digits.insert(0, 8 - digits.size(), '0');
  return config_.directory / (config_.prefix + "-" + digits + std::string(kExtension));
}

bool CheckpointStore::open_segment(std::uint64_t first_seq, support::DiagnosticSink& sink) {
  close_segment();
  // A segment of that name left by an earlier store is replaced, never
  // appended to.
  std::erase_if(segments_,
                [first_seq](const Segment& segment) { return segment.first_seq == first_seq; });
  const std::filesystem::path path = segment_path(first_seq);
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    sink.error("checkpoint-store", "cannot open " + path.string() + ": " + error_text());
    return false;
  }
  segments_.push_back({first_seq, {}});
  tail_ = 0;
  return true;
}

void CheckpointStore::close_segment() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

void CheckpointStore::resume_numbering() {
  std::uint64_t newest = 0;
  for (const Segment& segment : segments_) {
    newest = std::max(newest, segment.first_seq);
    for (const Record& record : segment.records) newest = std::max(newest, record.seq);
  }
  encoder_.resume_after(newest);
}

std::uint64_t CheckpointStore::newest_on_disk() const {
  const std::vector<RungLocation> all = rungs();
  return all.empty() ? 0 : all.front().seq;
}

std::vector<CheckpointStore::RungLocation> CheckpointStore::rungs() const {
  std::vector<RungLocation> out;
  // Later segments first, so that of two rungs with one seq the ladder's
  // choice, the later segment's, comes first.
  for (auto segment = segments_.rbegin(); segment != segments_.rend(); ++segment) {
    for (const Record& record : segment->records) {
      if (record.tombstone) continue;
      out.push_back({record.seq, segment_path(segment->first_seq),
                     record.offset + kHeaderBytes, record.length});
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const RungLocation& a, const RungLocation& b) {
    return a.seq > b.seq;
  });
  return out;
}

bool CheckpointStore::checkpoint(const SnapshotTargets& targets, WriteResult& out,
                                 support::DiagnosticSink& sink) {
  const bool force_full = count_ % config_.full_interval == 0;
  ++count_;

  IncrementalEncoder::Result& encoded = encoded_;
  if (!encoder_.encode(targets, force_full, encoded, sink)) return false;

  WriteResult result;
  result.seq = encoded.seq;
  result.delta = encoded.delta;

  // Write faults mangle the encoder's output buffer in place; the next
  // encode overwrites it anyway.
  std::string& bytes = encoded.bytes;
  if (fault_plan_ != nullptr) {
    const sim::FaultDecision decision = fault_plan_->consult(sim::FaultSite::kCheckpoint);
    switch (decision.kind) {
      case sim::FaultKind::kError:
        // Torn write: only the first half of the bytes lands, and the
        // header says so, so the next record stays framed.
        bytes.resize(bytes.size() / 2);
        result.torn = true;
        break;
      case sim::FaultKind::kDropResponse:
        // Crash before the commit: the record is written but never
        // committed, so no reader sees it and the next append overwrites it.
        result.lost = true;
        break;
      case sim::FaultKind::kBitFlip: {
        // One bit, spread deterministically across the file by the mask.
        const int bit = std::countr_zero(decision.flip_mask | 1);
        const std::size_t position = bytes.empty() ? 0 : bit * (bytes.size() - 1) / 63;
        if (!bytes.empty()) bytes[position] ^= static_cast<char>(1u << (bit & 7));
        result.flipped = true;
        break;
      }
      case sim::FaultKind::kNone:
      case sim::FaultKind::kExtraLatency:  // No wall-clock meaning for a file write.
      case sim::FaultKind::kGlitch:
        break;
    }
    if (result.torn || result.lost || result.flipped) ++stats_.write_faults;
  }

  // A full starts a new segment; a delta goes after its predecessor in the
  // open one. A write that fails leaves no committed record, so the encoder
  // must not chain the next delta to it: the next checkpoint is a full.
  if (!encoded.delta && !open_segment(encoded.seq, sink)) {
    encoder_.reset();
    return false;
  }
  const RecordHeader header{encoded.seq, static_cast<std::uint32_t>(bytes.size()),
                            result.lost ? kUncommitted : std::uint8_t{0}};
  char head[kHeaderBytes];
  encode_header(head, header);
  if (!write_at(fd_, std::string_view(head, kHeaderBytes), bytes, tail_)) {
    sink.error("checkpoint-store", "cannot write checkpoint " + std::to_string(encoded.seq) +
                                       " to " +
                                       segment_path(segments_.back().first_seq).string() +
                                       ": " + error_text());
    // Whatever part of the record landed is cut off again.
    (void)::ftruncate(fd_, static_cast<off_t>(tail_));
    encoder_.reset();
    return false;
  }
  if (!result.lost) {
    segments_.back().records.push_back({encoded.seq, tail_, header.length, false});
    tail_ += kHeaderBytes + bytes.size();
  }
  result.bytes = bytes.size();

  ++stats_.checkpoints;
  stats_.bytes_written += bytes.size();
  if (encoded.delta) {
    ++stats_.deltas;
  } else {
    ++stats_.fulls;
    // A lost full must not count as a retained base: its deltas would chain
    // to a record nobody can read.
    if (!result.lost) {
      fulls_.push_back(encoded.seq);
      prune(sink);
    }
  }
  out = result;
  return true;
}

void CheckpointStore::prune(support::DiagnosticSink& sink) {
  if (fulls_.size() <= config_.keep_fulls) return;
  fulls_.erase(fulls_.begin(), fulls_.end() - config_.keep_fulls);
  const std::uint64_t keep_from = fulls_.front();
  // Segments hold whole chains, so every segment that starts below the
  // oldest retained base holds nothing a surviving delta chains to.
  std::erase_if(segments_, [&](const Segment& segment) {
    if (segment.first_seq >= keep_from) return false;
    const std::filesystem::path path = segment_path(segment.first_seq);
    if (::unlink(path.c_str()) == 0) {
      stats_.pruned += static_cast<std::uint64_t>(std::count_if(
          segment.records.begin(), segment.records.end(),
          [](const Record& record) { return !record.tombstone; }));
    } else if (errno != ENOENT) {
      sink.warning("checkpoint-store", "cannot prune " + path.string() + ": " + error_text());
      return false;
    }
    return true;
  });
}

void CheckpointStore::quarantine(const Rung& rung, bool header_present, std::string reason,
                                 support::DiagnosticSink& sink) {
  const Segment& segment = segments_[rung.segment];
  Record& record = segments_[rung.segment].records[rung.record];
  record.tombstone = true;
  const std::filesystem::path path = segment_path(segment.first_seq);
  if (header_present) {
    char header[kHeaderBytes];
    encode_header(header, {record.seq, record.length, kTombstone});
    const bool open = fd_ >= 0 && rung.segment + 1 == segments_.size();
    const int fd = open ? fd_ : ::open(path.c_str(), O_WRONLY | O_CLOEXEC);
    if (fd < 0 || !write_at(fd, std::string_view(header, kHeaderBytes), {}, record.offset)) {
      sink.warning("checkpoint-store", "cannot tombstone rung " + std::to_string(record.seq) +
                                           " in " + path.string() + ": " + error_text());
    }
    if (!open && fd >= 0) ::close(fd);
  }
  const std::string name = path.filename().string() + " rung " + std::to_string(record.seq);
  sink.warning("checkpoint-store", "quarantined " + name + ": " + reason);
  quarantined_.push_back({record.seq, path, std::move(reason)});
  ++stats_.quarantines;
  if (health_ != nullptr) {
    health_->set_health(health_unit_, sim::UnitHealth::kDegraded,
                        "checkpoint quarantined: " + name);
  }
}

bool CheckpointStore::restore_latest_good(const SnapshotTargets& targets,
                                          support::DiagnosticSink& sink) {
  return restore_ladder(std::numeric_limits<std::uint64_t>::max(), targets, sink);
}

bool CheckpointStore::restore_to(std::uint64_t seq, const SnapshotTargets& targets,
                                 support::DiagnosticSink& sink) {
  return restore_ladder(seq, targets, sink);
}

bool CheckpointStore::restore_ladder(std::uint64_t max_seq, const SnapshotTargets& targets,
                                     support::DiagnosticSink& sink) {
  if (targets.kernel == nullptr) {
    sink.error("checkpoint-store", "no kernel target registered");
    return false;
  }
  const auto started = std::chrono::steady_clock::now();

  // Each segment is read once per walk, when a rung in it is first needed.
  struct File {
    bool read = false;
    bool ok = false;
    std::string bytes;
  };
  std::vector<File> files(segments_.size());
  const auto load = [&](const Rung& rung) -> const File& {
    File& file = files[rung.segment];
    if (!file.read) {
      file.read = true;
      file.ok = read_all(segment_path(segments_[rung.segment].first_seq), file.bytes);
    }
    return file;
  };
  const auto record_of = [&](const Rung& rung) -> const Record& {
    return segments_[rung.segment].records[rung.record];
  };
  // A rung's snapshot bytes; false when its segment cannot be read. A
  // record cut short yields the bytes that landed.
  const auto bytes_of = [&](const Rung& rung, std::string_view& out) {
    const File& file = load(rung);
    if (!file.ok) return false;
    const std::uint64_t start = record_of(rung).offset + kHeaderBytes;
    out = start <= file.bytes.size()
              ? std::string_view(file.bytes).substr(start, record_of(rung).length)
              : std::string_view();
    return true;
  };
  const auto header_present = [&](const Rung& rung) {
    const File& file = load(rung);
    return file.ok && record_of(rung).offset + kHeaderBytes <= file.bytes.size();
  };
  const auto quarantine_rung = [&](const Rung& rung, std::string reason) {
    quarantine(rung, header_present(rung), std::move(reason), sink);
  };

  // Every pass either restores, or tombstones at least one rung — so the
  // walk terminates.
  std::vector<Rung> entries;
  for (;;) {
    entries.clear();
    for (std::size_t s = 0; s < segments_.size(); ++s) {
      for (std::size_t r = 0; r < segments_[s].records.size(); ++r) {
        const Record& record = segments_[s].records[r];
        if (!record.tombstone) entries.push_back({s, r, record.seq});
      }
    }
    // Newest first; of two rungs with one seq, the later segment's.
    std::sort(entries.begin(), entries.end(), [](const Rung& a, const Rung& b) {
      return a.seq != b.seq ? a.seq > b.seq : a.segment > b.segment;
    });
    // Rungs newer than the rewind target are skipped, not quarantined: a
    // time-travel probe must leave the rest of the ladder intact. They stay
    // in `entries` past the tip choice so delta chains that reach *below*
    // max_seq still resolve their bases.
    std::size_t first = 0;
    while (first < entries.size() && entries[first].seq > max_seq) ++first;
    if (first == entries.size()) {
      sink.error("checkpoint-store",
                 "no restorable checkpoint in " + config_.directory.string() +
                     (max_seq == std::numeric_limits<std::uint64_t>::max()
                          ? ""
                          : " at or below seq " + std::to_string(max_seq)) +
                     " (" + std::to_string(quarantined_.size()) + " quarantined)");
      if (health_ != nullptr) {
        health_->set_health(health_unit_, sim::UnitHealth::kFailed,
                            "recovery ladder exhausted");
      }
      return false;
    }

    const Rung& tip = entries[first];
    // Materialize the tip's chain, newest to oldest, via base_seq links.
    std::vector<const Rung*> chain;  // tip first, base last
    std::vector<std::string_view> blobs;
    std::string tip_failure;
    const Rung* broken = nullptr;
    const Rung* cursor = &tip;
    for (;;) {
      std::string_view bytes;
      support::DiagnosticSink probe;
      BinarySnapshotInfo info;
      if (!bytes_of(*cursor, bytes)) {
        broken = cursor;
        tip_failure = "unreadable segment";
        break;
      }
      if (!read_binary_info(bytes, info, probe)) {
        broken = cursor;
        tip_failure = probe.str();
        break;
      }
      chain.push_back(cursor);
      blobs.push_back(bytes);
      if (!info.delta) break;  // Reached the full base.
      const Rung* base = nullptr;
      for (const Rung& candidate : entries) {
        if (candidate.seq == info.base_seq) {
          base = &candidate;
          break;
        }
      }
      if (base == nullptr || chain.size() > entries.size()) {
        // The base was lost, quarantined, or the links cycle; nothing this
        // delta chains to can be trusted, so the tip itself steps aside.
        broken = &tip;
        tip_failure = "delta " + std::to_string(info.seq) + " needs base checkpoint " +
                      std::to_string(info.base_seq) + ", which is missing";
        break;
      }
      cursor = base;
    }
    if (broken != nullptr) {
      quarantine_rung(*broken, std::move(tip_failure));
      continue;
    }

    // Oldest-first for the decoder.
    std::reverse(chain.begin(), chain.end());
    std::reverse(blobs.begin(), blobs.end());

    // Validate rung by rung so a failure is pinned to the rung that caused
    // it, not blamed on the whole chain. Chains are short (one base plus at
    // most full_interval - 1 deltas), so the re-decode cost is irrelevant
    // on this cold path.
    SnapshotImage image;
    bool valid = true;
    for (std::size_t length = 1; length <= chain.size(); ++length) {
      const std::vector<std::string_view> prefix(
          blobs.begin(), blobs.begin() + static_cast<std::ptrdiff_t>(length));
      support::DiagnosticSink attempt;
      SnapshotImage decoded;
      if (!image_from_binary_chain(prefix, decoded, attempt)) {
        quarantine_rung(*chain[length - 1], attempt.str());
        valid = false;
        break;
      }
      if (length == chain.size()) image = std::move(decoded);
    }
    if (!valid) continue;

    support::DiagnosticSink apply_sink;
    if (!apply_image(targets, image, apply_sink)) {
      quarantine_rung(*chain.back(), "restore failed: " + apply_sink.str());
      continue;
    }
    targets.kernel->note_snapshot_restore(elapsed_ns(started));
    ++stats_.restores;
    stats_.restored_seq = chain.back()->seq;
    sink.note("checkpoint-store",
              "restored checkpoint " + std::to_string(stats_.restored_seq) + " (chain of " +
                  std::to_string(chain.size()) + ")");
    return true;
  }
}

}  // namespace umlsoc::replay
