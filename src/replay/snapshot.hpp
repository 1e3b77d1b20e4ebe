// Versioned checkpoint/restore for executable models.
//
// A snapshot captures everything a deterministic setup cannot reconstruct
// on its own: kernel time, sequence counter and pending timed-event
// metadata; fault-plan RNG stream positions and counters; statechart
// instance configurations (active states, history, variables, event
// pools); bus pipeline state; watchdog supervision flags; generic value
// banks (register files); and the event-recorder log. It is stored in the
// binary format of replay/binary.hpp (per-section FNV-1a checksums).
//
// What is NOT captured — and why restore works anyway: process bodies,
// callbacks and model structure. The restoring process re-runs the same
// deterministic setup code (same construction order => same ProcessIds,
// same vertex pre-order => same statechart indices), then restore_snapshot
// replaces the *state* of those freshly built components. The contract is
// therefore "same setup, different process", not "cold start from bytes".
//
// Robustness: save refuses states it could not faithfully restore (pending
// bus transactions, expectations owned by anything but a registered
// watchdog, transient one-shot processes in the queue). Restore validates
// the file before touching any target: magic, version and header checksum
// first, then every section frame's checksum, then every section is decoded
// and matched against the registered targets; only then is state applied.
// Malformed, truncated, corrupted or version-bumped input fails with
// structured diagnostics and leaves the targets unchanged.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "statechart/engine.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::replay {

/// Format version written by save_snapshot; restore_snapshot rejects any
/// other value (forward- and backward-incompatible by design: the format
/// mirrors internal state). Version 2 added the supervision sections
/// (<supervisor>, <breaker>, <health>); version 3 added per-section
/// checksums (the binary frame field), so corruption reports name the
/// damaged section, and a fourth fault-plan site (checkpoint-path faults);
/// version 4 added the fifth fault-plan site (simulated-crash ticks);
/// version 5 hashes each frame's payload before its metadata and moves the
/// recorder head (total, count) after the entries, so an encoder can keep
/// payload hashes across files (same field sizes, same file lengths).
inline constexpr int kSnapshotVersion = 5;

struct MachineTarget {
  std::string name;
  statechart::Engine* instance = nullptr;
};

struct BusTarget {
  std::string name;
  sim::MemoryMappedBus* bus = nullptr;
};

struct WatchdogTarget {
  std::string name;
  sim::Watchdog* watchdog = nullptr;
};

struct SupervisorTarget {
  std::string name;
  sim::Supervisor* supervisor = nullptr;
};

struct BreakerTarget {
  std::string name;
  sim::CircuitBreaker* breaker = nullptr;
};

struct HealthTarget {
  std::string name;
  sim::HealthRegistry* registry = nullptr;
};

/// Named key/value section for components without first-class snapshot
/// support (register files, scoreboards, counters): a list of u64 fields
/// bound in place. A snapshot stores each field under its key, in list
/// order; restore writes the stored values straight back through the
/// pointers. Keys are views: they must outlive the bank (string literals,
/// or names owned by the bound component).
struct ValueBank {
  struct Field {
    std::string_view key;
    std::uint64_t* value = nullptr;
  };
  std::string name;
  std::vector<Field> fields;
};

/// The components one snapshot covers. `kernel` is required; everything
/// else is optional. Section names must be unique per kind — they are the
/// join keys between a snapshot and a restoring process's targets.
struct SnapshotTargets {
  sim::Kernel* kernel = nullptr;
  sim::FaultPlan* fault_plan = nullptr;
  sim::EventRecorder* recorder = nullptr;
  std::vector<MachineTarget> machines;
  std::vector<BusTarget> buses;
  std::vector<WatchdogTarget> watchdogs;
  std::vector<SupervisorTarget> supervisors;
  std::vector<BreakerTarget> breakers;
  std::vector<HealthTarget> health;
  std::vector<ValueBank> banks;
};

/// Decoded snapshot content: exactly the state a binary snapshot carries,
/// section order preserved. capture_image (via capture_kernel's refusal
/// rules) and apply_image own the capture rules and the section/target
/// matching; the binary codec (replay/binary.hpp) is a pure transcoder over
/// this struct.
struct SnapshotImage {
  template <typename T>
  struct Named {
    std::string name;
    T state;
  };

  sim::Kernel::Checkpoint kernel;
  /// Diagnostic process labels parallel to kernel.timed ("" when unlabeled);
  /// carried so transcoding preserves the human-readable annotations.
  std::vector<std::string> kernel_timed_labels;

  struct FaultPlanState {
    std::uint64_t seed = 0;
    std::vector<std::pair<sim::FaultSite, sim::FaultPlan::SiteState>> sites;
  };
  std::optional<FaultPlanState> fault_plan;

  struct RecorderState {
    std::uint64_t total = 0;
    std::vector<sim::RecordedEvent> events;
  };
  std::optional<RecorderState> recorder;

  std::vector<Named<statechart::InstanceSnapshot>> machines;
  std::vector<Named<sim::MemoryMappedBus::Checkpoint>> buses;
  std::vector<Named<sim::Watchdog::Checkpoint>> watchdogs;
  std::vector<Named<sim::Supervisor::Checkpoint>> supervisors;
  std::vector<Named<sim::CircuitBreaker::Checkpoint>> breakers;
  std::vector<Named<sim::HealthRegistry::Checkpoint>> health;
  /// A bank section's stored values, in the bank's field order.
  using BankValues = std::vector<std::pair<std::string, std::uint64_t>>;
  std::vector<Named<BankValues>> banks;

  /// Sections the image would serialize (kernel + optionals + named ones).
  [[nodiscard]] std::size_t section_count() const {
    return 1 + (fault_plan ? 1 : 0) + (recorder ? 1 : 0) + machines.size() + buses.size() +
           watchdogs.size() + supervisors.size() + breakers.size() + health.size() +
           banks.size();
  }
};

/// The snapshot refusal rules, shared by every capture path (capture_image
/// and the streaming IncrementalEncoder): captures the kernel into
/// `checkpoint` — refusing a missing kernel target or a mid-delta kernel —
/// then refuses in-flight bus transactions and outstanding expectations
/// not owned by a registered watchdog or supervisor. Every violation is
/// reported through `sink`. `checkpoint` is overwritten in place (see
/// Kernel::capture_checkpoint), so callers may reuse one across captures.
[[nodiscard]] bool capture_kernel(const SnapshotTargets& targets,
                                  sim::Kernel::Checkpoint& checkpoint,
                                  support::DiagnosticSink& sink);

/// Captures the targets' state into `image`. Applies capture_kernel's
/// refusal rules: fails (reporting through `sink`) on a mid-delta kernel,
/// pending transient events, in-flight bus transactions, or outstanding
/// expectations not owned by a registered watchdog or supervisor.
[[nodiscard]] bool capture_image(const SnapshotTargets& targets, SnapshotImage& image,
                                 support::DiagnosticSink& sink);

/// Applies a decoded image to `targets`: validates fault-plan/recorder
/// presence and seed, matches every named section one-to-one against the
/// registered targets and every bank key one-to-one against its bank's
/// fields, then restores kernel first, recorder last. Matching or
/// validation failures report through `sink` and return false before any
/// mutation; component-level apply failures may leave earlier sections
/// applied — treat a failed apply as fatal.
[[nodiscard]] bool apply_image(const SnapshotTargets& targets, const SnapshotImage& image,
                               support::DiagnosticSink& sink);

/// Serializes the targets' state into `out` as a full binary snapshot
/// (image_to_binary) and accounts it in the kernel's SnapshotStats. Returns
/// false (reporting through `sink`, `out` untouched) when the state is not
/// checkpointable: mid-delta kernel, pending transient events, in-flight bus
/// transactions, or outstanding expectations not owned by a registered
/// watchdog.
[[nodiscard]] bool save_snapshot(const SnapshotTargets& targets, std::string& out,
                                 support::DiagnosticSink& sink);

/// Restores a save_snapshot file into `targets`. The file is fully
/// validated (magic, version, header and section checksums, payload syntax,
/// section/target and bank-key match) before any target is mutated; format
/// errors therefore never leave a partial restore. Component-level
/// validation failures during apply (e.g. a snapshot from a structurally
/// different machine) also report through `sink` and return false, but may
/// leave earlier sections applied — treat a failed restore as fatal.
[[nodiscard]] bool restore_snapshot(const SnapshotTargets& targets, std::string_view input,
                                    support::DiagnosticSink& sink);

// --- warm-restart factories --------------------------------------------------
// Supervisor children restart through plain callbacks; this builds one from
// the snapshot machinery, so recovery reuses exactly the deterministic state
// capture the checkpoint format relies on.

/// Captures `instance`'s current state (call at the known-good point, e.g.
/// right after start()) and returns a Supervisor restart callback that
/// warm-restarts the instance from that captured snapshot. Restore failures
/// report through `sink` and make the callback return false (counted by the
/// supervisor as a failed restart). `instance` and `sink` must outlive the
/// returned callback.
[[nodiscard]] std::function<bool()> restart_from_snapshot(
    statechart::Engine& instance, support::DiagnosticSink& sink);

}  // namespace umlsoc::replay
