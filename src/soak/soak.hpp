// The chaos-soak workload: the supervised UART SoC rig (DegradedRig), the
// model it is built from, the host-side script that drives it through its
// traffic phases, and the per-seed legs a fleet runs over many seeds.
//
// The recovery loop under test: a CPU sender streams bytes to the UART tx
// register over a DMA channel wrapped in a CircuitBreaker, with a plain PIO
// port as the degraded route. Breaker state changes and supervisor activity
// surface as error events on a UartLink statechart; a Supervisor owns the
// link (warm restart from a snapshot captured at the known-good point) and
// a watchdog converts traffic starvation into a supervised failure.
//
// The soak runs that loop under a seeded error + drop fault plan, one fully
// isolated rig pipeline per seed (its own kernels, fault plans, supervision
// tree and checkpoint ladders), so per-seed results are bit-identical
// regardless of the job count or isolation mode. Each seed runs an
// uninterrupted reference, an identical rig checkpointed mid-stream, and a
// restored rig that finishes the run under the replay verifier — final
// state and the full event sequence must match, every unit must end
// healthy and no error event may go unhandled. A recovery-ladder leg
// streams checkpoints to disk under injected write faults and recovers
// through restore_latest_good, and a crash leg kills the rig mid-run
// (CrashInjector throwing SimulatedCrash from a kernel process) while a
// RecoveryCoordinator checkpoints in the background: a freshly constructed
// rig must recover through the coordinator with lost work bounded by the
// checkpoint interval and replay bit-identically to an uninterrupted twin.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codegen/hwmodel.hpp"
#include "fleet/driver.hpp"
#include "mda/transform.hpp"
#include "replay/snapshot.hpp"
#include "replay/store.hpp"
#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "soc/iplibrary.hpp"
#include "statechart/compile.hpp"
#include "statechart/engine.hpp"
#include "support/diagnostics.hpp"

namespace umlsoc::soak {

/// The statechart engine a rig's machines run on: the AOT-compiled
/// plan-table stepper (the default, matching the verifier's and the sim
/// kernel's hot paths) or the reference interpreter. Snapshots are
/// engine-interchangeable, so checkpoint/restore and the replay verifier
/// are engine-agnostic.
enum class EngineChoice : std::uint8_t { kCompiled, kInterpreted };

[[nodiscard]] inline const char* to_string(EngineChoice choice) {
  return choice == EngineChoice::kCompiled ? "compiled" : "interpreted";
}
[[nodiscard]] std::unique_ptr<statechart::Engine> make_engine(
    const statechart::StateMachine& machine, EngineChoice choice);

/// Snapshot bank over a BusMasterPort's retry counters; the replay demo's
/// rig and each leg of the soak rig checkpoint their ports this way.
[[nodiscard]] replay::ValueBank port_stats_bank(std::string name, sim::BusMasterPort& port);
/// Snapshot bank over a HwModuleSim's registers and access counters.
[[nodiscard]] replay::ValueBank module_bank(std::string name, codegen::HwModuleSim& module);

/// The model-side flow every mode shares: IP library -> PIM -> hardware PSM
/// -> codegen inputs, plus the UartLink machine the rig supervises and its
/// compiled program.
struct ModelBundle {
  soc::IpLibrary library;
  uml::Model pim{"UartSoc"};
  std::optional<mda::MdaResult> hw;
  uml::Component* psm_uart = nullptr;
  std::optional<soc::SocProfile> psm_profile;
  std::uint64_t base = 0x40000000;
  statechart::StateMachine link{"UartLink"};
  /// `link` compiled once per bundle: every rig on the compiled engine
  /// copies its own engine from this prototype (same tables, fresh
  /// execution state). It is never started or dispatched, so fleet threads
  /// only read it and forked workers inherit it.
  std::unique_ptr<statechart::CompiledMachine> link_program;
};

bool build_model_bundle(ModelBundle& bundle, support::DiagnosticSink& sink);

/// Builds the UartLink machine into `machine` (empty): Normal <-> Fallback
/// on breaker_open/breaker_closed, Dead on supervisor_give_up, every other
/// supervision signal absorbed by an internal transition.
void build_link_machine(statechart::StateMachine& machine);

struct TrafficFaults {
  double error_rate = 0.0;
  double drop_rate = 0.0;
  std::uint64_t max_faults = std::numeric_limits<std::uint64_t>::max();
};

/// One fault-plan template the fleet sweep can assign to a rig: the traffic
/// fault rates the resilience stack absorbs plus the per-tick crash
/// probability of the crash leg. Template 0 is the historical baseline
/// (single-template fleets behave exactly as before the sweep existed).
/// Rates stay within what the supervision stack absorbs by design — the
/// sweep varies stress, it does not manufacture failures.
struct SoakTemplate {
  double error_rate;
  double drop_rate;
  double crash_rate;
};

inline constexpr SoakTemplate kSoakTemplates[] = {
    {0.010, 0.010, 0.10},  // 0: baseline
    {0.020, 0.005, 0.15},  // 1: error-heavy traffic, eager crash
    {0.005, 0.020, 0.05},  // 2: drop-heavy traffic, reluctant crash
    {0.015, 0.015, 0.20},  // 3: everything turned up
};
inline constexpr std::uint32_t kSoakTemplateCount =
    static_cast<std::uint32_t>(sizeof(kSoakTemplates) / sizeof(kSoakTemplates[0]));

/// Everything one DegradedRig is built from. Every rig built from equal
/// setups runs the identical construction sequence.
struct SoakSetup {
  const uml::Component& psm_uart;
  const soc::SocProfile& profile;
  /// The bundle's compiled UartLink: copied by a rig on the compiled
  /// engine; the interpreted engine runs its machine().
  const statechart::CompiledMachine& link_program;
  std::uint64_t base;
  TrafficFaults faults;
  std::uint64_t seed;
  support::DiagnosticSink& sink;
  EngineChoice engine;
};

/// The supervised SoC: identical construction sequence per instance (same
/// ProcessIds, same statechart indices), so the snapshot contract holds for
/// the whole supervision stack — breaker, supervisor, health registry and
/// traffic counters are all snapshot sections.
struct DegradedRig {
  static constexpr std::uint64_t kSendPeriodPs = 500'000;  // One byte per 500 ns.

  sim::Kernel kernel;
  sim::MemoryMappedBus bus;
  codegen::HwModuleSim uart;
  sim::FaultPlan plan;
  sim::BusMasterPort dma_port;
  sim::BusMasterPort pio_port;
  sim::CircuitBreaker breaker;
  sim::HealthRegistry health;
  sim::HealthRegistry::UnitId dma_unit = sim::HealthRegistry::kInvalidUnit;
  sim::HealthRegistry::UnitId link_unit = sim::HealthRegistry::kInvalidUnit;
  std::unique_ptr<statechart::Engine> link;
  sim::Supervisor sup;
  sim::Watchdog watchdog;
  sim::EventRecorder recorder;
  sim::Supervisor::ChildId link_child = sim::Supervisor::kInvalidChild;
  std::function<bool()> link_restart;
  std::uint64_t base = 0;
  sim::ProcessId sender = sim::kInvalidProcess;
  std::uint64_t target = 0;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t via_dma = 0;
  std::uint64_t via_pio = 0;
  std::uint64_t lost = 0;

  explicit DegradedRig(const SoakSetup& setup);

  /// Degraded-mode routing: bytes flow through the breaker-guarded DMA
  /// channel unless the breaker is open, in which case they fall back to
  /// PIO. Half-open deliberately routes through the breaker — that request
  /// *is* the recovery probe.
  void send_tick();

  /// Full recovery: breaker closed, every unit healthy, no supervision
  /// work pending.
  [[nodiscard]] bool recovered() const {
    return breaker.state() == sim::CircuitBreaker::State::kClosed && health.all_healthy() &&
           sup.quiescent();
  }

  [[nodiscard]] replay::SnapshotTargets targets();
};

/// Streams bytes until `total` have been sent and the bus has drained.
/// State-driven (no wall-count of run calls), so a reference run, a
/// checkpointed run and a restored run walk identical event sequences.
bool run_phase(DegradedRig& rig, std::uint64_t total);

/// Runs until the rig reaches a checkpointable state (e.g. no in-flight
/// port expectation from a retry) and captures a snapshot. `out == nullptr`
/// runs the identical search without keeping the document — the reference
/// run uses it to stay on the checkpointed run's timeline (save_snapshot
/// itself has no side effects on the simulation).
bool run_to_save_point(DegradedRig& rig, std::string* out);

/// Drives the rig to DegradedRig::recovered(). Each iteration sends one
/// keepalive byte — routed around an open breaker — so simulated time
/// advances through open durations and restart backoffs.
bool run_recovery_tail(DegradedRig& rig);

/// Disarms supervision and drains the queue; stale timer/check events
/// fizzle by design.
void finish_run(DegradedRig& rig);

/// The end state every finished run must reach: every unit healthy, no
/// unhandled error, no supervisor give-up. Returns an empty string when it
/// holds, else what `leg` got wrong.
[[nodiscard]] std::string end_state_problem(const DegradedRig& rig, const char* leg);

inline constexpr std::uint64_t kFirstSeed = 1000;  ///< The first seed of every soak.

/// The rig setup of `job`: its seed under the SoakTemplate its
/// fault_template picks. `sink` collects the rig's diagnostics.
[[nodiscard]] SoakSetup seed_setup(const ModelBundle& bundle, EngineChoice engine,
                                   const fleet::RigJob& job, support::DiagnosticSink& sink);

/// The store every attempt of `seed` writes its handoff rungs to, under the
/// soak's per-seed scratch root `scratch`. A re-dispatched attempt resumes
/// from the newest good rung a dead predecessor left there.
[[nodiscard]] replay::CheckpointStoreConfig handoff_store_config(
    const std::filesystem::path& scratch, std::uint64_t seed);

/// One chaos-soak seed: every leg above, with per-seed scratch under
/// `scratch`, removed on success and left in place on failure. Runs on a
/// fleet worker: everything it touches is rig-local or read-only shared
/// model input, and filesystem scratch is partitioned by seed.
[[nodiscard]] fleet::RigOutcome soak_one_seed(const ModelBundle& bundle, EngineChoice engine,
                                              const fleet::RigJob& job,
                                              const std::filesystem::path& scratch);

/// Runs `seed_count` seeds from kFirstSeed on `driver`. Per-seed scratch
/// lives in a temp-dir root that is removed afterwards; a failing seed's
/// scratch is first copied to failure_dir(seed) with its problem.txt.
/// Returns the outcomes in seed order.
std::vector<fleet::RigOutcome> run_soak(fleet::FleetDriver& driver, const ModelBundle& bundle,
                                        EngineChoice engine, std::uint64_t seed_count);

/// Writes a recorded event log as one "index at_ps process label" line per
/// event ("?" for an unlabeled process), formatted into one buffer and
/// written at once: the forensic artifact uploaded alongside a failing
/// seed's ladder. A file that cannot be opened is skipped silently.
void dump_event_log(const std::filesystem::path& path,
                    const std::vector<sim::RecordedEvent>& log, const sim::Kernel& kernel);

/// Where a failing seed's ladders and event logs are preserved:
/// ./chaos-soak-failure/seed-N (the CI artifact).
[[nodiscard]] std::filesystem::path failure_dir(std::uint64_t seed);

}  // namespace umlsoc::soak
