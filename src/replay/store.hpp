// Checkpoint store with a recovery ladder, kept as append-only segments.
//
// CheckpointStore writes binary snapshots (replay/binary.hpp) into a
// directory: every `full_interval`-th checkpoint is a full snapshot (a
// chain base), the ones between are dirty-section deltas chained to their
// predecessor. A full opens a new segment file, `<prefix>-<seq>.useg`
// named after the full's seq, and every delta of its chain is appended to
// that segment's open descriptor as one record:
//
//   u64 seq | u32 length | u8 flags | 3 zero bytes | u64 header checksum
//   length bytes: the v5 snapshot file, unchanged
//
// The header checksum is FNV-1a over the 16 header bytes before it. Flag
// bit 0 is a tombstone (quarantined), bit 1 marks a record that was never
// committed. A checkpoint is one vectored pwrite (header, then bytes) at
// the segment's tail; rotation unlinks whole segments, at a full, from an
// index kept in memory. The store lists and reads its directory once, when
// it is constructed; after that nothing on the write path scans, renames
// or stats a file.
//
// Crash consistency comes from the checksums: a reader walks each segment
// from the start and stops at the first header that fails its checksum or
// was never committed, so a writer killed mid-append leaves at most a torn
// tail. A record whose header landed but whose bytes were cut short stays
// visible with the bytes that landed, and the ladder quarantines it.
//
// Recovery walks the ladder: restore_latest_good() materializes the newest
// checkpoint's chain and validates every rung (header, per-section
// checksums, chain links) before anything is applied. A corrupt,
// truncated or version-skewed rung is *quarantined* — a tombstone flag is
// written into its record header in place, its structured diagnostics are
// recorded, and an optional HealthRegistry sees a degraded unit — and the
// ladder steps down to the next older checkpoint until one restores or the
// directory is exhausted. Tombstones survive a reopen: a later store skips
// them without revalidating them. Supervision warm restarts ride on this:
// a supervisor restart callback that calls restore_latest_good() recovers
// the newest state that still checks out.
//
// Fault injection: an installed FaultPlan is consulted once per write at
// FaultSite::kCheckpoint. kError tears the record (half its bytes land and
// the header records that length, so the next append stays framed),
// kBitFlip flips one bit, kDropResponse models a crash before the commit
// (the record is written uncommitted at the tail; no ladder walk sees it
// and the next append overwrites it). The chaos soak drives exactly these
// paths and expects every seed to recover through the ladder.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "replay/binary.hpp"
#include "replay/snapshot.hpp"
#include "sim/fault.hpp"
#include "sim/supervise.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::replay {

struct CheckpointStoreConfig {
  std::filesystem::path directory;
  std::string prefix = "ckpt";
  /// Every Nth checkpoint is a full snapshot (chain base); must be >= 1.
  /// 1 makes every checkpoint full (no deltas).
  unsigned full_interval = 8;
  /// Full bases retained. Rotation deletes everything older than the
  /// oldest retained full, so every surviving delta always has its base.
  unsigned keep_fulls = 2;
};

class CheckpointStore {
 public:
  /// Bytes of the record header in front of every rung's snapshot bytes.
  static constexpr std::size_t kRecordHeaderBytes = 24;

  struct WriteResult {
    std::uint64_t seq = 0;
    bool delta = false;
    bool torn = false;     ///< Injected kError: only half the bytes landed.
    bool lost = false;     ///< Injected kDropResponse: never committed.
    bool flipped = false;  ///< Injected kBitFlip: one bit corrupted.
    std::size_t bytes = 0;  ///< Snapshot bytes written (record header not counted).
  };

  struct QuarantineRecord {
    std::uint64_t seq = 0;
    std::filesystem::path segment;
    std::string reason;  ///< Structured diagnostics from the failed validation.
  };

  /// Where a rung's snapshot bytes live: `length` bytes at `offset` in
  /// `segment` (its record header is the kRecordHeaderBytes before them).
  struct RungLocation {
    std::uint64_t seq = 0;
    std::filesystem::path segment;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };

  struct Stats {
    std::uint64_t checkpoints = 0;
    std::uint64_t fulls = 0;
    std::uint64_t deltas = 0;
    std::uint64_t bytes_written = 0;  ///< Snapshot bytes; record headers not counted.
    std::uint64_t write_faults = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t restores = 0;
    std::uint64_t restored_seq = 0;  ///< Seq of the last successful restore.
    std::uint64_t pruned = 0;        ///< Rungs deleted by rotation.
  };

  /// Creates the directory if needed and indexes the segments already in
  /// it (the only directory listing the store ever makes).
  explicit CheckpointStore(CheckpointStoreConfig config);
  ~CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Installs (or clears) the fault plan consulted per write at
  /// FaultSite::kCheckpoint.
  void install_fault_plan(sim::FaultPlan* plan) { fault_plan_ = plan; }

  /// Registers this store as a health unit; quarantines degrade it, an
  /// exhausted ladder fails it. The registry must outlive the store.
  void bind_health(sim::HealthRegistry& registry);

  /// Captures the targets (snapshot refusal rules apply) and writes the
  /// next checkpoint in the rotation. Injected write faults do NOT fail the
  /// call — a torn or lost checkpoint is the recovery ladder's problem —
  /// but are reported in `out`.
  [[nodiscard]] bool checkpoint(const SnapshotTargets& targets, WriteResult& out,
                                support::DiagnosticSink& sink);

  /// Walks the ladder newest-to-oldest: validates each checkpoint's full
  /// chain, quarantines every rung that fails (structured reason recorded),
  /// and applies the newest chain that survives. Returns false only when no
  /// restorable checkpoint remains; quarantine events along the way surface
  /// as warnings on `sink`, terminal failure as an error.
  [[nodiscard]] bool restore_latest_good(const SnapshotTargets& targets,
                                         support::DiagnosticSink& sink);

  /// Time travel: restores the newest checkpoint whose sequence is <= `seq`
  /// (exactly `seq` when that rung survives on disk), materializing its
  /// full+delta chain with the same validation and quarantine behavior as
  /// restore_latest_good. Returns false when no rung at or below `seq`
  /// restores. The encoder chain is NOT reset here — callers that intend to
  /// keep checkpointing after a rewind must call reset_chain().
  [[nodiscard]] bool restore_to(std::uint64_t seq, const SnapshotTargets& targets,
                                support::DiagnosticSink& sink);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<QuarantineRecord>& quarantined() const {
    return quarantined_;
  }
  [[nodiscard]] const CheckpointStoreConfig& config() const { return config_; }

  /// Forgets the delta chain; the next checkpoint is a full snapshot.
  /// Required after restore_latest_good (the on-disk tip may no longer
  /// match the encoder's in-memory previous payloads).
  void reset_chain() { encoder_.reset(); }

  /// reset_chain() plus: continues sequence numbering strictly above every
  /// record and segment in the index — tombstoned rungs included — so
  /// post-recovery checkpoints never reuse a seq or a segment name and
  /// always outrank every rung in a later ladder walk. The recovery
  /// orchestrator calls this instead of reset_chain() whenever it resumes
  /// checkpointing after a restore.
  void resume_numbering();

  /// Newest rung in the index that is not tombstoned (0 when there is
  /// none). No validation — the cross-process handoff uses it to decide
  /// whether a dead predecessor left a ladder worth restoring before this
  /// process writes anything of its own.
  [[nodiscard]] std::uint64_t newest_on_disk() const;

  /// Rungs in the index that are not tombstoned, seq-descending.
  [[nodiscard]] std::vector<RungLocation> rungs() const;

 private:
  /// One committed record of a segment.
  struct Record {
    std::uint64_t seq = 0;
    std::uint64_t offset = 0;  ///< Of the record header within the segment.
    std::uint32_t length = 0;  ///< Snapshot bytes the header claims.
    bool tombstone = false;
  };
  struct Segment {
    std::uint64_t first_seq = 0;  ///< The seq of the full that opened it; names the file.
    std::vector<Record> records;  ///< Append order, which is seq order.
  };
  /// A rung of the ladder walk: record `record` of segment `segment`.
  struct Rung {
    std::size_t segment = 0;
    std::size_t record = 0;
    std::uint64_t seq = 0;
  };

  [[nodiscard]] std::filesystem::path segment_path(std::uint64_t first_seq) const;
  /// Lists the directory once and reads every segment's record headers.
  void index_directory();
  /// Closes the open segment and starts `<prefix>-<seq>.useg`.
  bool open_segment(std::uint64_t first_seq, support::DiagnosticSink& sink);
  void close_segment();
  /// Shared ladder walk: restores the newest rung with seq <= max_seq.
  [[nodiscard]] bool restore_ladder(std::uint64_t max_seq, const SnapshotTargets& targets,
                                    support::DiagnosticSink& sink);
  /// Tombstones the rung: in memory always, on disk when `header_present`.
  void quarantine(const Rung& rung, bool header_present, std::string reason,
                  support::DiagnosticSink& sink);
  void prune(support::DiagnosticSink& sink);

  CheckpointStoreConfig config_;
  IncrementalEncoder encoder_;
  IncrementalEncoder::Result encoded_;  ///< Reused so encodes keep its buffer.
  sim::FaultPlan* fault_plan_ = nullptr;
  sim::HealthRegistry* health_ = nullptr;
  sim::HealthRegistry::UnitId health_unit_ = 0;
  std::uint64_t count_ = 0;             ///< Checkpoints attempted (cadence clock).
  std::vector<std::uint64_t> fulls_;    ///< Seqs of retained full snapshots, ascending.
  /// Every segment on disk, ascending by first_seq, except that segments
  /// this store opens are appended: the open one is always the last.
  std::vector<Segment> segments_;
  int fd_ = -1;             ///< The open segment (segments_.back()), or -1.
  std::uint64_t tail_ = 0;  ///< Where the open segment's next record goes.
  std::vector<QuarantineRecord> quarantined_;
  Stats stats_;
};

}  // namespace umlsoc::replay
