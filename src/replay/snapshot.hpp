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

/// Section kind tags (stable on-disk values). The kernel, fault-plan and
/// recorder sections are singletons; every kind from kMachine on is a named
/// section kind, listed once in for_each_named_section below.
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
inline constexpr SectionKind kLastSectionKind = SectionKind::kBank;

[[nodiscard]] std::string_view to_string(SectionKind kind);

/// One registered component of a named section kind. The name is the join
/// key between a snapshot's section and a restoring process's target.
template <typename T>
struct Target {
  std::string name;
  T* component = nullptr;
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
  std::vector<Target<statechart::Engine>> machines;
  std::vector<Target<sim::MemoryMappedBus>> buses;
  std::vector<Target<sim::Watchdog>> watchdogs;
  std::vector<Target<sim::Supervisor>> supervisors;
  std::vector<Target<sim::CircuitBreaker>> breakers;
  std::vector<Target<sim::HealthRegistry>> health;
  std::vector<ValueBank> banks;
};

/// Decoded snapshot content: exactly the state a binary snapshot carries,
/// section order preserved. capture_image (via capture_kernel's refusal
/// rules) and apply_image own the capture rules and the section/target
/// matching; the binary codec (replay/binary.hpp) is a pure transcoder over
/// this struct. The named sections sit in one vector per kind, in the
/// order for_each_named_section lists the kinds.
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

    /// Every site of `plan`, in site order; reuses `sites`' storage.
    void capture(const sim::FaultPlan& plan) {
      seed = plan.seed();
      sites.resize(sim::kFaultSiteCount);
      for (std::size_t i = 0; i < sim::kFaultSiteCount; ++i) {
        const auto site = static_cast<sim::FaultSite>(i);
        sites[i] = {site, plan.site_state(site)};
      }
    }
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
  [[nodiscard]] std::size_t section_count() const;
};

/// The section table: every named section kind, once, in file order. Calls
///
///   fn(kind, targets_of, image_of, capture, restore)
///
/// per kind, where `targets_of` and `image_of` point to the kind's vectors
/// in SnapshotTargets and SnapshotImage, `capture(target, state)` fills a
/// section state from a live target, and `restore(target, state, sink)`
/// writes one back, returning false on a component-level refusal.
/// capture_image, apply_image, both binary encoders and the decoder walk
/// this table; every diagnostic names the kind by to_string(kind).
template <typename Fn>
constexpr void for_each_named_section(Fn&& fn) {
  using enum SectionKind;
  const auto checkpoint = [](const auto& target, auto& state) {
    state = target.component->capture_checkpoint();
  };
  // Components whose state holds buffers capture into the image's reused
  // state instead of returning a fresh one.
  const auto capture_into = [](const auto& target, auto& state) {
    target.component->capture_into(state);
  };
  const auto restore = [](const auto& target, const auto& state, support::DiagnosticSink&) {
    target.component->restore_checkpoint(state);
    return true;
  };
  const auto checked_restore = [](const auto& target, const auto& state,
                                  support::DiagnosticSink& sink) {
    return target.component->restore_checkpoint(state, sink);
  };
  fn(
      kMachine, &SnapshotTargets::machines, &SnapshotImage::machines, capture_into,
      [](const auto& target, const auto& state, support::DiagnosticSink& sink) {
        return target.component->restore(state, sink);
      });
  fn(kBus, &SnapshotTargets::buses, &SnapshotImage::buses, checkpoint, restore);
  fn(kWatchdog, &SnapshotTargets::watchdogs, &SnapshotImage::watchdogs, checkpoint, restore);
  fn(kSupervisor, &SnapshotTargets::supervisors, &SnapshotImage::supervisors, capture_into,
     checked_restore);
  fn(kBreaker, &SnapshotTargets::breakers, &SnapshotImage::breakers, checkpoint,
     checked_restore);
  fn(kHealth, &SnapshotTargets::health, &SnapshotImage::health, capture_into, checked_restore);
  fn(
      kBank, &SnapshotTargets::banks, &SnapshotImage::banks,
      [](const ValueBank& bank, SnapshotImage::BankValues& values) {
        values.clear();
        for (const ValueBank::Field& field : bank.fields) {
          values.emplace_back(field.key, *field.value);
        }
      },
      // apply_image has bound every stored key to exactly one field.
      [](const ValueBank& bank, const SnapshotImage::BankValues& values,
         support::DiagnosticSink&) {
        for (const auto& [key, value] : values) {
          for (const ValueBank::Field& field : bank.fields) {
            if (field.key == key) {
              *field.value = value;
              break;
            }
          }
        }
        return true;
      });
}

inline std::size_t SnapshotImage::section_count() const {
  std::size_t count = 1 + (fault_plan ? 1 : 0) + (recorder ? 1 : 0);
  for_each_named_section(
      [&](SectionKind, auto, auto image_of, auto&&...) { count += (this->*image_of).size(); });
  return count;
}

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
