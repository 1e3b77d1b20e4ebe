// Binary snapshot encoding: the one on-disk format for every snapshot —
// save_snapshot/restore_snapshot, CheckpointStore rungs and delta chains.
//
// The codec is a pure transcoder of SnapshotImage (replay/snapshot.hpp):
// capture_image/apply_image own the refusal rules and the section/target
// matching, this file owns bytes. IncrementalEncoder streams the same
// section payloads straight from live state on the checkpoint hot path.
//
// File layout (all integers little-endian):
//
//   "USNAPBIN"                     8-byte magic
//   u32 version                    kSnapshotVersion; any other value rejected
//   u32 flags                      bit 0: delta (needs a base to resolve)
//   u64 seq                        checkpoint sequence number
//   u64 base_seq                   predecessor in the delta chain (0 = full)
//   u32 section_count
//   u64 header checksum            FNV-1a over every header byte above
//   section frames ...
//   "USNAPEND"                     8-byte trailer
//
// Section frame:
//
//   u8  kind                       SectionKind
//   u16 name_len + bytes           "" for kernel / fault-plan / recorder
//   u8  entry flags                0 payload, 1 reference, 2 recorder-append
//   u32 payload_len
//   u64 frame checksum             FNV-1a over metadata bytes + payload bytes
//   payload bytes
//
// The frame checksum covers the frame's metadata (kind, name, flags,
// length) as well as its payload, so truncation and bit-flips anywhere in a
// frame are detected and reported at section granularity (section name,
// byte offset, stored vs computed checksum) instead of one opaque
// document-level failure.
//
// Incremental checkpoints: a delta file carries full payloads only for the
// sections that changed since the previous checkpoint. Clean sections
// shrink to a *reference* frame whose 8-byte payload is the expected hash
// of the base's payload, so a drifted base is caught at resolve time.
// The event-recorder section — which only ever grows during a run — gets a
// dedicated *append* frame carrying just the new entries, spliced onto the
// base payload byte-for-byte. IncrementalEncoder streams each section from
// the live targets into buffers it keeps and picks the frame by comparing
// the new bytes with the previous checkpoint's; the recorder section is
// extended in place by its new entries instead of re-encoded (see
// IncrementalEncoder).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "replay/snapshot.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::replay {

inline constexpr std::string_view kBinaryMagic = "USNAPBIN";
inline constexpr std::string_view kBinaryTrailer = "USNAPEND";

/// Section kind tags (stable on-disk values).
enum class SectionKind : std::uint8_t {
  kKernel = 1,
  kFaultPlan = 2,
  kRecorder = 3,
  kMachine = 4,
  kBus = 5,
  kWatchdog = 6,
  kSupervisor = 7,
  kBreaker = 8,
  kHealth = 9,
  kBank = 10,
};

[[nodiscard]] std::string_view to_string(SectionKind kind);

/// Parsed header of a binary snapshot (no payload validation).
struct BinarySnapshotInfo {
  int version = 0;
  bool delta = false;
  std::uint64_t seq = 0;
  std::uint64_t base_seq = 0;
  std::uint32_t section_count = 0;
};

/// Parses and validates just the fixed header (magic, version, header
/// checksum). Cheap enough to classify files before a full decode.
[[nodiscard]] bool read_binary_info(std::string_view data, BinarySnapshotInfo& info,
                                    support::DiagnosticSink& sink);

/// Serializes an image as a standalone full binary snapshot (seq 0).
[[nodiscard]] std::string image_to_binary(const SnapshotImage& image);

/// Parses and fully validates a standalone full binary snapshot. Delta
/// files are rejected (they need their chain — see image_from_binary_chain).
[[nodiscard]] bool image_from_binary(std::string_view data, SnapshotImage& image,
                                     support::DiagnosticSink& sink);

/// Resolves a delta chain — chain[0] must be a full snapshot, each later
/// element a delta whose base_seq links to its predecessor's seq — into the
/// final image. Reference frames are verified against the materialized base
/// payloads; any link or checksum break fails with a structured diagnostic.
[[nodiscard]] bool image_from_binary_chain(const std::vector<std::string_view>& chain,
                                           SnapshotImage& image,
                                           support::DiagnosticSink& sink);

// --- incremental encoding ----------------------------------------------------

/// Encodes a stream of checkpoints from the same targets, emitting full
/// snapshots as chain bases and dirty-section deltas in between. Dirty
/// detection compares encoded payload bytes against the previous
/// checkpoint, so a section that merely *ticked* without changing state
/// still dedups to a reference frame. If the section set itself changes
/// (targets added/removed), the encoder falls back to a full snapshot.
///
/// Each encode streams the sections straight from the live targets (no
/// SnapshotImage) into per-section buffers kept across calls, so its cost
/// follows the state that changed, not the state that exists:
///  * every section is double-buffered — the new bytes go to a spare buffer
///    that is swapped with the previous payload only when they differ;
///  * the recorder section, which only grows during a run, is patched in
///    place: while the recorder's lineage holds and its size and total grew
///    in step, only the new 12-byte entries are encoded and the 12-byte
///    head is rewritten. A ring overwrite, restore_log, begin_verify, a new
///    recorder, reset()/resume_after() or a shape change re-encodes the
///    whole log and classifies it byte-for-byte instead;
///  * a reference frame reuses the payload hash computed when that payload
///    was first referenced.
/// Every frame written is byte-identical to what the image-based codec
/// writes for the same state (capture_image + image_to_binary, for a full
/// snapshot).
class IncrementalEncoder {
 public:
  struct Result {
    std::string bytes;
    bool delta = false;
    std::uint64_t seq = 0;
    std::uint64_t base_seq = 0;  ///< 0 for full snapshots.
    std::size_t sections_dirty = 0;
    std::size_t sections_total = 0;
  };

  /// Captures the targets (same refusal rules as save_snapshot, see
  /// capture_kernel) and encodes the next checkpoint in the chain into
  /// `out` — reusing `out.bytes`' capacity; `out` is untouched on refusal.
  /// `force_full` starts a new base. Updates the kernel's SnapshotStats.
  [[nodiscard]] bool encode(const SnapshotTargets& targets, bool force_full, Result& out,
                            support::DiagnosticSink& sink);

  /// Forgets the chain; the next encode is a full snapshot.
  void reset() {
    have_base_ = false;
    recorder_ = nullptr;
    last_seq_ = 0;
  }

  /// reset() plus: continues sequence numbering strictly above `seq`. Used
  /// when a freshly constructed encoder resumes writing into a directory
  /// whose rungs survive — new files must never collide with (or sort
  /// below) existing ones.
  void resume_after(std::uint64_t seq) {
    reset();
    if (next_seq_ <= seq) next_seq_ = seq + 1;
  }

  [[nodiscard]] std::uint64_t last_seq() const { return last_seq_; }

 private:
  /// One section's encode state.
  struct Section {
    SectionKind kind = SectionKind::kKernel;
    std::string name;
    std::string payload;  ///< The previous checkpoint's bytes (the delta base).
    std::string next;     ///< Spare buffer the next encode writes into.
    std::uint8_t entry_flags = 0;  ///< Frame kind chosen by the latest encode.
    bool hashed = false;           ///< `hash` is the FNV-1a of `payload`.
    std::uint64_t hash = 0;
    char reference[8] = {};  ///< Reference frame payload: `hash`, little-endian.
  };

  /// Matches sections_ to the targets' section list; on a mismatch rewrites
  /// it and returns true (the next encode must then be a full snapshot).
  bool reshape(const SnapshotTargets& targets);
  /// Picks the frame for a section whose current bytes are in `payload`;
  /// returns 1 when it counts as dirty.
  std::size_t settle(Section& section, bool delta, bool changed);
  /// settle() for a section freshly encoded into `next`.
  std::size_t settle_encoded(Section& section, bool delta);
  std::size_t stream_recorder(Section& section, const sim::EventRecorder& recorder, bool delta);
  /// Fills append_ with an append-frame payload: head + `entries`.
  void stage_append(std::uint64_t total, std::string_view entries);

  std::vector<Section> sections_;
  bool have_base_ = false;  ///< sections_' payloads form the chain's tip.
  std::uint64_t next_seq_ = 1;
  std::uint64_t last_seq_ = 0;

  // What the recorder section's payload encodes: `recorder_count_` entries
  // and total `recorder_total_` of `recorder_` at `recorder_lineage_`
  // (nullptr = unknown, re-encode in full).
  const sim::EventRecorder* recorder_ = nullptr;
  std::uint64_t recorder_lineage_ = 0;
  std::size_t recorder_count_ = 0;
  std::uint64_t recorder_total_ = 0;

  // Capture scratch and the recorder append payload, reused across encodes.
  sim::Kernel::Checkpoint kernel_;
  statechart::InstanceSnapshot machine_;
  std::string append_;
};

}  // namespace umlsoc::replay
