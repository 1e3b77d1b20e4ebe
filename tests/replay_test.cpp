// Checkpoint/restore and deterministic-replay tests: snapshot round-trips
// into a freshly constructed setup, rejection of version-bumped, corrupted
// and truncated snapshots and of snapshots that do not match the restoring
// targets, save-side refusal of unserializable states, and event-sequence
// divergence detection.
#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "replay/binary.hpp"
#include "replay/snapshot.hpp"
#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/replay.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/model.hpp"

namespace umlsoc::replay {
namespace {

using sim::SimTime;

/// Shared machine structure; every rig binds its own instance, mirroring
/// "the restoring process rebuilds the same model".
std::unique_ptr<statechart::StateMachine> make_machine() {
  auto machine = std::make_unique<statechart::StateMachine>("Rig");
  statechart::Region& top = machine->top();
  statechart::State& idle = top.add_state("Idle");
  statechart::State& busy = top.add_state("Busy");
  top.add_transition(top.add_initial(), idle);
  top.add_transition(idle, busy).set_trigger("go");
  top.add_transition(busy, idle).set_trigger("done");
  return machine;
}

/// A deterministic mini-SoC: a ticker process drives bus reads against a
/// small memory, kicks a watchdog, and alternates a statechart between two
/// states. Constructed identically every time, so ProcessIds and vertex
/// indices are stable across rig instances.
struct Rig {
  static constexpr int kTicks = 40;
  static constexpr std::uint64_t kTickPs = 10000;  // 10ns.

  sim::Kernel kernel;
  sim::MemoryMappedBus bus;
  sim::FaultPlan plan;
  statechart::StateMachineInstance instance;
  sim::Watchdog watchdog;
  sim::EventRecorder recorder;
  std::array<std::uint64_t, 8> memory{};
  sim::ProcessId ticker = sim::kInvalidProcess;
  sim::ProcessId perturb = sim::kInvalidProcess;
  int ticks = 0;
  std::uint64_t read_sum = 0;

  explicit Rig(const statechart::StateMachine& machine, std::size_t ring_capacity = 0)
      : bus(kernel, "mem", SimTime::ns(4)),
        plan(/*seed=*/7),
        instance(machine),
        watchdog(kernel, "rig", SimTime::us(1)),
        recorder(ring_capacity) {
    for (std::size_t i = 0; i < memory.size(); ++i) memory[i] = 0x100 + i;
    bus.map_device(
        "ram", 0x0, memory.size() * 8,
        [this](std::uint64_t address) { return memory[address / 8]; },
        [this](std::uint64_t address, std::uint64_t value) { memory[address / 8] = value; });
    sim::FaultPlan::SiteConfig config;
    config.error_rate = 0.3;    // Timing-neutral faults only: completions
    config.bit_flip_rate = 0.2; // always land exactly one latency later.
    plan.configure(sim::FaultSite::kBusRead, config);
    bus.install_fault_plan(&plan);
    instance.set_trace_enabled(false);
    instance.start();
    ticker = kernel.register_process([this] { tick(); }, "rig.ticker");
    perturb = kernel.register_process([] {}, "rig.perturb");
    kernel.set_recorder(&recorder);
    watchdog.arm();
    kernel.schedule(SimTime(kTickPs), ticker);
  }

  void tick() {
    ++ticks;
    watchdog.kick();
    bus.read((static_cast<std::uint64_t>(ticks) % memory.size()) * 8,
             sim::MemoryMappedBus::ReadCompletion(
                 [this](sim::BusStatus, std::uint64_t value) { read_sum += value; }));
    if (ticks % 2 == 1) {
      instance.dispatch(statechart::Event{"go", ticks});
    } else {
      instance.dispatch(statechart::Event{"done", ticks});
    }
    if (ticks == 2) instance.post(statechart::Event{"pending", 99, "tagged"});
    if (ticks < kTicks) kernel.schedule(SimTime(kTickPs), ticker);
  }

  /// Runs to `end_ps` and on to full quiescence when end_ps is 0. A full
  /// run ends with the un-kicked watchdog tripping at its deadline.
  void run(std::uint64_t end_ps = 0) {
    if (end_ps == 0) {
      kernel.run();
      watchdog.disarm();
    } else {
      kernel.run(SimTime(end_ps));
    }
  }

  [[nodiscard]] SnapshotTargets targets() {
    SnapshotTargets out;
    out.kernel = &kernel;
    out.fault_plan = &plan;
    out.recorder = &recorder;
    out.machines.push_back({"rig", &instance});
    out.buses.push_back({"mem", &bus});
    out.watchdogs.push_back({"rig", &watchdog});
    out.banks.push_back(
        {"memory",
         [this] {
           std::vector<std::pair<std::string, std::uint64_t>> values;
           for (std::size_t i = 0; i < memory.size(); ++i) {
             values.emplace_back("w" + std::to_string(i), memory[i]);
           }
           values.emplace_back("ticks", static_cast<std::uint64_t>(ticks));
           values.emplace_back("read-sum", read_sum);
           return values;
         },
         [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                support::DiagnosticSink& sink) {
           for (const auto& [key, value] : values) {
             if (key == "ticks") {
               ticks = static_cast<int>(value);
             } else if (key == "read-sum") {
               read_sum = value;
             } else if (key.size() > 1 && key[0] == 'w') {
               memory[static_cast<std::size_t>(key[1] - '0')] = value;
             } else {
               sink.error("memory", "unknown key '" + key + "'");
               return false;
             }
           }
           return true;
         }});
    return out;
  }
};

// Checkpoint instant: ticks 10..25ns completed (bus completions land 4ns
// after each tick), the 30ns tick still pending — bus quiescent, kernel not.
constexpr std::uint64_t kMidRunPs = 25000;

class ReplayTest : public ::testing::Test {
 protected:
  std::unique_ptr<statechart::StateMachine> machine_ = make_machine();
};

TEST_F(ReplayTest, SnapshotRoundTripIsBitIdentical) {
  Rig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();
  ASSERT_GT(reference_log.size(), 0u);

  Rig source(*machine_);
  source.run(kMidRunPs);
  ASSERT_EQ(source.bus.pending_transactions(), 0u);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();

  Rig restored(*machine_);
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot(restored.targets(), snapshot, restore_sink))
      << restore_sink.str();
  restored.run();

  // Event sequence: the restored run's complete log (snapshot prefix +
  // continuation) equals the uninterrupted reference's.
  EXPECT_EQ(sim::first_divergence(reference_log, restored.recorder.log(), &restored.kernel),
            std::nullopt);
  // Final state, component by component.
  EXPECT_EQ(restored.kernel.now(), reference.kernel.now());
  EXPECT_EQ(restored.kernel.events_processed(), reference.kernel.events_processed());
  EXPECT_EQ(restored.ticks, reference.ticks);
  EXPECT_EQ(restored.read_sum, reference.read_sum);
  EXPECT_EQ(restored.memory, reference.memory);
  EXPECT_EQ(restored.bus.stats().reads, reference.bus.stats().reads);
  EXPECT_EQ(restored.bus.stats().errors, reference.bus.stats().errors);
  EXPECT_EQ(restored.bus.stats().injected_bit_flips, reference.bus.stats().injected_bit_flips);
  EXPECT_EQ(restored.plan.str(), reference.plan.str());
  EXPECT_EQ(restored.watchdog.trips(), reference.watchdog.trips());
  EXPECT_EQ(restored.watchdog.kicks(), reference.watchdog.kicks());
  EXPECT_EQ(restored.instance.active_leaf_names(), reference.instance.active_leaf_names());
  EXPECT_EQ(restored.instance.events_processed(), reference.instance.events_processed());
  EXPECT_EQ(restored.instance.transitions_fired(), reference.instance.transitions_fired());
}

TEST_F(ReplayTest, SnapshotCapturesQueuedEventsAndVariables) {
  Rig source(*machine_);
  source.instance.set_variable("budget", -12);
  source.run(kMidRunPs);
  source.instance.post(statechart::Event{"late", 5});

  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();
  SnapshotImage image;
  ASSERT_TRUE(image_from_binary(snapshot, image, sink)) << sink.str();
  ASSERT_EQ(image.machines.size(), 1u);
  EXPECT_EQ(image.machines[0].state.queue.size(), 2u);

  Rig restored(*machine_);
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot(restored.targets(), snapshot, restore_sink))
      << restore_sink.str();
  EXPECT_EQ(restored.instance.variable("budget"), -12);
  const statechart::InstanceSnapshot roundtrip = restored.instance.capture();
  // Two undispatched events: "pending" posted by the tick-2 process, then
  // the explicit "late" post — queue order and payloads survive the trip.
  ASSERT_EQ(roundtrip.queue.size(), 2u);
  EXPECT_EQ(roundtrip.queue[0].name, "pending");
  EXPECT_EQ(roundtrip.queue[0].data, 99);
  EXPECT_EQ(roundtrip.queue[0].tag, "tagged");
  EXPECT_EQ(roundtrip.queue[1].name, "late");
  EXPECT_EQ(roundtrip.queue[1].data, 5);
}

TEST_F(ReplayTest, VersionMismatchIsRejected) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();

  // The u32 version follows the 8-byte magic, little-endian; the version
  // check runs before the header checksum.
  ASSERT_EQ(static_cast<unsigned char>(snapshot[8]), kSnapshotVersion);
  snapshot[8] = static_cast<char>(kSnapshotVersion + 1);

  Rig restored(*machine_);
  support::DiagnosticSink restore_sink;
  EXPECT_FALSE(restore_snapshot(restored.targets(), snapshot, restore_sink));
  EXPECT_NE(restore_sink.str().find("unsupported snapshot version " +
                                    std::to_string(kSnapshotVersion + 1)),
            std::string::npos)
      << restore_sink.str();
  // The failed restore left the fresh rig untouched.
  EXPECT_EQ(restored.kernel.now().picoseconds(), 0u);
  EXPECT_EQ(restored.ticks, 0);
}

TEST_F(ReplayTest, CorruptedContentFailsTheChecksum) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();

  // The byte before the trailer is the last byte of the bank payload.
  snapshot[snapshot.size() - kBinaryTrailer.size() - 1] ^= 0x01;

  Rig restored(*machine_);
  support::DiagnosticSink restore_sink;
  EXPECT_FALSE(restore_snapshot(restored.targets(), snapshot, restore_sink));
  EXPECT_NE(restore_sink.str().find("section checksum mismatch in <bank name='memory'>"),
            std::string::npos)
      << restore_sink.str();
  EXPECT_EQ(restored.kernel.now().picoseconds(), 0u);
}

TEST_F(ReplayTest, TruncatedSnapshotsAreRejectedAtEveryLength) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();

  Rig restored(*machine_);
  const SnapshotTargets targets = restored.targets();
  for (std::size_t length = 0; length < snapshot.size(); length += 97) {
    support::DiagnosticSink restore_sink;
    EXPECT_FALSE(restore_snapshot(targets, snapshot.substr(0, length), restore_sink));
    EXPECT_TRUE(restore_sink.has_errors()) << "silent failure at length " << length;
  }
  EXPECT_EQ(restored.kernel.now().picoseconds(), 0u);
}

TEST_F(ReplayTest, SaveRefusesPendingBusTransactions) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  source.bus.read(0, sim::MemoryMappedBus::ReadCompletion(nullptr));
  ASSERT_GT(source.bus.pending_transactions(), 0u);

  std::string snapshot;
  support::DiagnosticSink sink;
  EXPECT_FALSE(save_snapshot(source.targets(), snapshot, sink));
  EXPECT_NE(sink.str().find("pending transactions"), std::string::npos) << sink.str();
}

TEST_F(ReplayTest, SaveRefusesForeignOutstandingExpectations) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  const sim::ExpectationId custom = source.kernel.register_expectation("custom in-flight");
  source.kernel.expect(custom);

  std::string snapshot;
  support::DiagnosticSink sink;
  EXPECT_FALSE(save_snapshot(source.targets(), snapshot, sink));
  EXPECT_NE(sink.str().find("custom in-flight"), std::string::npos) << sink.str();
}

TEST_F(ReplayTest, RestoreRejectsMissingAndForeignSections) {
  // Each row saves from a source rig and restores into a fresh one, either
  // side's targets edited so that the snapshot and the restoring targets
  // disagree. apply_image must refuse before touching the fresh rig.
  sim::FaultPlan other_plan(/*seed=*/8);
  struct Row {
    std::string name;
    std::function<void(SnapshotTargets&)> edit_source;
    std::function<void(SnapshotTargets&)> edit_restore;
    std::vector<std::string> expected;
  };
  const auto keep = [](SnapshotTargets&) {};
  const Row rows[] = {
      {"registered machine not in the snapshot", keep,
       [](SnapshotTargets& t) { t.machines[0].name = "other"; },
       {"no <machine> section named 'other'",
        "<machine> section 'rig' has no registered target"}},
      {"fault-plan section without a registered plan", keep,
       [](SnapshotTargets& t) { t.fault_plan = nullptr; },
       {"snapshot has a <fault-plan> section but no plan is registered"}},
      {"registered plan without a fault-plan section",
       [](SnapshotTargets& t) { t.fault_plan = nullptr; }, keep,
       {"no <fault-plan> section for the registered plan"}},
      {"fault-plan seed mismatch", keep,
       [&](SnapshotTargets& t) { t.fault_plan = &other_plan; },
       {"fault-plan seed mismatch: snapshot 7, registered plan 8"}},
      {"recorder section without a registered recorder", keep,
       [](SnapshotTargets& t) { t.recorder = nullptr; },
       {"snapshot has a <recorder> section but no recorder is registered"}},
      {"registered recorder without a recorder section",
       [](SnapshotTargets& t) { t.recorder = nullptr; }, keep,
       {"no <recorder> section for the registered recorder"}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    Rig source(*machine_);
    source.run(kMidRunPs);
    SnapshotTargets source_targets = source.targets();
    row.edit_source(source_targets);
    std::string snapshot;
    support::DiagnosticSink sink;
    ASSERT_TRUE(save_snapshot(source_targets, snapshot, sink)) << sink.str();

    Rig restored(*machine_);
    SnapshotTargets targets = restored.targets();
    row.edit_restore(targets);
    support::DiagnosticSink restore_sink;
    EXPECT_FALSE(restore_snapshot(targets, snapshot, restore_sink));
    for (const std::string& expected : row.expected) {
      EXPECT_NE(restore_sink.str().find(expected), std::string::npos) << restore_sink.str();
    }
    EXPECT_EQ(restored.kernel.now().picoseconds(), 0u);
    EXPECT_EQ(restored.recorder.total_events(), 0u);
    EXPECT_EQ(restored.kernel.stats().snapshot.restores, 0u);
  }
}

TEST_F(ReplayTest, VerifyModeFlagsInjectedDivergence) {
  Rig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  Rig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();

  Rig perturbed(*machine_);
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot(perturbed.targets(), snapshot, restore_sink))
      << restore_sink.str();
  perturbed.recorder.begin_verify(reference_log, perturbed.recorder.total_events());
  perturbed.kernel.schedule(SimTime::ns(1), perturbed.perturb);  // Event the reference lacks.
  perturbed.run();

  ASSERT_TRUE(perturbed.recorder.divergence().has_value());
  const sim::EventRecorder::Divergence& divergence = *perturbed.recorder.divergence();
  EXPECT_EQ(divergence.actual_label, "rig.perturb");
  EXPECT_NE(divergence.str().find("rig.perturb"), std::string::npos);
}

TEST_F(ReplayTest, VerifyModePassesOnFaithfulReplay) {
  Rig reference(*machine_);
  reference.run();

  Rig replayed(*machine_);
  replayed.recorder.begin_verify(reference.recorder.log());
  replayed.run();
  EXPECT_EQ(replayed.recorder.divergence(), std::nullopt);
  EXPECT_EQ(replayed.recorder.missing_events(), std::nullopt);
}

TEST_F(ReplayTest, VerifyModeReportsRunsThatStopShort) {
  Rig reference(*machine_);
  reference.run();

  Rig replayed(*machine_);
  replayed.recorder.begin_verify(reference.recorder.log());
  replayed.run(kMidRunPs);
  EXPECT_EQ(replayed.recorder.divergence(), std::nullopt);
  ASSERT_TRUE(replayed.recorder.missing_events().has_value());
}

TEST_F(ReplayTest, RingRecorderKeepsTheTail) {
  Rig rig(*machine_, /*ring_capacity=*/8);
  rig.run();
  EXPECT_GT(rig.recorder.total_events(), 8u);
  const std::vector<sim::RecordedEvent> log = rig.recorder.log();
  ASSERT_EQ(log.size(), 8u);
  EXPECT_EQ(rig.recorder.dropped_events(), rig.recorder.total_events() - 8);

  // The retained tail equals the tail of a full recording.
  Rig full(*machine_);
  full.run();
  const std::vector<sim::RecordedEvent> full_log = full.recorder.log();
  ASSERT_GE(full_log.size(), 8u);
  const std::vector<sim::RecordedEvent> tail(full_log.end() - 8, full_log.end());
  EXPECT_EQ(log, tail);
}

TEST_F(ReplayTest, StatechartRestoreRejectsForeignIndices) {
  Rig source(*machine_);
  source.run(kMidRunPs);
  statechart::InstanceSnapshot snapshot = source.instance.capture();
  snapshot.active_states.push_back(1000);

  Rig restored(*machine_);
  support::DiagnosticSink sink;
  EXPECT_FALSE(restored.instance.restore(snapshot, sink));
  EXPECT_TRUE(sink.has_errors());
  // Validation happens before mutation: the instance still runs normally.
  EXPECT_TRUE(restored.instance.is_in("Idle"));
}

TEST_F(ReplayTest, RecorderDetachedCostsNothingAndRecordsNothing) {
  Rig rig(*machine_);
  rig.kernel.set_recorder(nullptr);
  rig.run();
  EXPECT_EQ(rig.recorder.total_events(), 0u);
  EXPECT_GT(rig.kernel.events_processed(), 0u);
}

}  // namespace
}  // namespace umlsoc::replay
