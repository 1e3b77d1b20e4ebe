// Binary checkpointing tests: save/restore round trips on a rig that
// exercises every section kind (and on a statechart with history, finals
// and variables), a mutation-fuzz corpus for the decoder (truncation,
// bit-flips, erased and duplicated byte runs, duplicated sections, version
// skew), a table of hostile files that reach each of the decoder's reject
// paths, incremental delta chains, golden-byte encoder streams, and the
// CheckpointStore recovery ladder
// (corrupt/version-skewed/missing files quarantined, write faults injected
// through FaultSite::kCheckpoint).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay/binary.hpp"
#include "replay/snapshot.hpp"
#include "replay/store.hpp"
#include "sim/bus.hpp"
#include "sim/fault.hpp"
#include "sim/kernel.hpp"
#include "sim/replay.hpp"
#include "sim/supervise.hpp"
#include "statechart/interpreter.hpp"
#include "statechart/model.hpp"
#include "support/rng.hpp"

namespace umlsoc::replay {
namespace {

using sim::SimTime;

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

/// A deterministic mini-SoC covering every snapshot section kind: kernel,
/// fault plan, recorder, statechart, bus, watchdog, supervisor (with a
/// restart pending mid-run), circuit breaker (driving bus writes), health
/// registry and a value bank. Constructed identically every time.
struct FullRig {
  static constexpr int kTicks = 40;
  static constexpr std::uint64_t kTickPs = 10000;  // 10ns.

  sim::Kernel kernel;
  sim::MemoryMappedBus bus;
  sim::FaultPlan plan;
  statechart::StateMachineInstance instance;
  sim::Watchdog watchdog;
  sim::EventRecorder recorder;
  sim::BusMasterPort port;
  sim::CircuitBreaker breaker;
  sim::Supervisor supervisor;
  sim::HealthRegistry health;
  std::array<std::uint64_t, 8> memory{};
  sim::ProcessId ticker = sim::kInvalidProcess;
  sim::Supervisor::ChildId dma_child = 0;
  sim::HealthRegistry::UnitId dma_unit = sim::HealthRegistry::kInvalidUnit;
  int ticks = 0;
  int child_restarts = 0;
  std::uint64_t read_sum = 0;

  explicit FullRig(const statechart::StateMachine& machine, std::size_t ring_capacity = 0)
      : bus(kernel, "mem", SimTime::ns(4)),
        plan(/*seed=*/7),
        instance(machine),
        watchdog(kernel, "rig", SimTime::us(1)),
        recorder(ring_capacity),
        port(kernel, bus, "port"),
        breaker(kernel, port, "dma", breaker_config()),
        supervisor(kernel, "soc", sim::RestartStrategy::kOneForOne, restart_policy()) {
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
    dma_unit = health.register_unit("dma");
    breaker.bind_health(&health, dma_unit);
    dma_child = supervisor.add_child("dma", [this] {
      ++child_restarts;
      return true;
    });
    instance.set_trace_enabled(false);
    instance.start();
    ticker = kernel.register_process([this] { tick(); }, "rig.ticker");
    kernel.set_recorder(&recorder);
    watchdog.arm();
    kernel.schedule(SimTime(kTickPs), ticker);
  }

  static sim::CircuitBreaker::Config breaker_config() {
    sim::CircuitBreaker::Config config;
    config.window = 4;
    config.min_samples = 2;
    config.failure_threshold = 0.5;
    config.open_duration = SimTime::ns(100);
    config.reopen_multiplier = 2;
    config.max_open_duration = SimTime::ns(300);
    return config;
  }

  static sim::RestartPolicy restart_policy() {
    sim::RestartPolicy policy;
    policy.backoff = SimTime::ns(100);
    policy.backoff_multiplier = 2;
    policy.max_backoff = SimTime::ns(350);
    policy.max_restarts = 3;
    policy.window = SimTime::us(50);
    return policy;
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
    if (ticks == 1) {
      // A breaker-mediated write and a child failure whose restart stays
      // pending (due at 110ns) across every mid-run checkpoint instant.
      breaker.write(5 * 8, 0xAB, nullptr);
      supervisor.report_failure(dma_child, "tick-1 crash");
    }
    if (ticks == 3) breaker.write(6 * 8, 0xCD, nullptr);
    if (ticks == 2) instance.post(statechart::Event{"pending", 99, "tagged"});
    if (ticks < kTicks) kernel.schedule(SimTime(kTickPs), ticker);
  }

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
    out.supervisors.push_back({"soc", &supervisor});
    out.breakers.push_back({"dma", &breaker});
    out.health.push_back({"health", &health});
    out.banks.push_back(
        {"memory",
         [this] {
           std::vector<std::pair<std::string, std::uint64_t>> values;
           for (std::size_t i = 0; i < memory.size(); ++i) {
             values.emplace_back("w" + std::to_string(i), memory[i]);
           }
           values.emplace_back("ticks", static_cast<std::uint64_t>(ticks));
           values.emplace_back("restarts", static_cast<std::uint64_t>(child_restarts));
           values.emplace_back("read-sum", read_sum);
           return values;
         },
         [this](const std::vector<std::pair<std::string, std::uint64_t>>& values,
                support::DiagnosticSink& sink) {
           for (const auto& [key, value] : values) {
             if (key == "ticks") {
               ticks = static_cast<int>(value);
             } else if (key == "restarts") {
               child_restarts = static_cast<int>(value);
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

constexpr std::size_t kSectionKinds = 10;  // Every kind FullRig serializes.
/// Ring size for the golden ring stream: small enough to wrap mid-run.
constexpr std::size_t kGoldenRingCapacity = 24;

// Quiescent checkpoint instants: ticks land at multiples of 10ns, bus and
// breaker completions 4ns later, so N*10000 + 5000 is always between a
// completed transaction and the next tick.
constexpr std::uint64_t kMidRunPs = 25000;

void expect_same_outcome(FullRig& restored, FullRig& reference,
                         const std::vector<sim::RecordedEvent>& reference_log) {
  EXPECT_EQ(sim::first_divergence(reference_log, restored.recorder.log(), &restored.kernel),
            std::nullopt);
  EXPECT_EQ(restored.kernel.now(), reference.kernel.now());
  EXPECT_EQ(restored.kernel.events_processed(), reference.kernel.events_processed());
  EXPECT_EQ(restored.ticks, reference.ticks);
  EXPECT_EQ(restored.read_sum, reference.read_sum);
  EXPECT_EQ(restored.memory, reference.memory);
  EXPECT_EQ(restored.bus.stats().reads, reference.bus.stats().reads);
  EXPECT_EQ(restored.bus.stats().errors, reference.bus.stats().errors);
  EXPECT_EQ(restored.plan.str(), reference.plan.str());
  EXPECT_EQ(restored.watchdog.trips(), reference.watchdog.trips());
  EXPECT_EQ(restored.watchdog.kicks(), reference.watchdog.kicks());
  EXPECT_EQ(restored.instance.active_leaf_names(), reference.instance.active_leaf_names());
  EXPECT_EQ(restored.instance.events_processed(), reference.instance.events_processed());
  EXPECT_EQ(restored.breaker.stats().issued, reference.breaker.stats().issued);
  EXPECT_EQ(restored.breaker.stats().ok, reference.breaker.stats().ok);
  EXPECT_EQ(restored.child_restarts, reference.child_restarts);
  EXPECT_EQ(restored.supervisor.pending_restarts(), reference.supervisor.pending_restarts());
  EXPECT_EQ(restored.health.aggregate(), reference.health.aggregate());
}

// --- frame surgery -------------------------------------------------------------
// A test-side reading of the file layout documented in replay/binary.hpp:
// split() takes a file apart into header fields and frames, join() puts it
// back together with fresh header and frame checksums. Editing a field and
// re-joining gets a hostile file past the checksums to the check it aims at.

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;
constexpr std::size_t kHeaderBytes = 44;  // Magic through header checksum.

std::uint64_t fnv1a(std::string_view data, std::uint64_t hash = kFnvOffsetBasis) {
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

std::uint64_t get_le(std::string_view bytes, std::size_t& at, std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= std::uint64_t{static_cast<unsigned char>(bytes.at(at + i))} << (8 * i);
  }
  at += width;
  return value;
}

void put_le(std::string& out, std::uint64_t value, std::size_t width) {
  for (std::size_t i = 0; i < width; ++i) out.push_back(static_cast<char>(value >> (8 * i)));
}

struct Frame {
  SectionKind kind = SectionKind::kKernel;
  std::string name;
  std::uint8_t flags = 0;  // 0 payload, 1 reference, 2 recorder append.
  std::string payload;
};

struct File {
  std::uint32_t version = 0;
  std::uint32_t flags = 0;
  std::uint64_t seq = 0;
  std::uint64_t base_seq = 0;
  std::vector<Frame> frames;
  std::string trailer;  // Every byte after the last frame.

  Frame& frame(SectionKind kind) {
    for (Frame& frame : frames) {
      if (frame.kind == kind) return frame;
    }
    throw std::out_of_range("no such section");
  }
};

File split(std::string_view bytes) {
  File file;
  std::size_t at = kBinaryMagic.size();
  file.version = static_cast<std::uint32_t>(get_le(bytes, at, 4));
  file.flags = static_cast<std::uint32_t>(get_le(bytes, at, 4));
  file.seq = get_le(bytes, at, 8);
  file.base_seq = get_le(bytes, at, 8);
  const std::uint64_t count = get_le(bytes, at, 4);
  at += 8;  // Header checksum.
  for (std::uint64_t i = 0; i < count; ++i) {
    Frame& frame = file.frames.emplace_back();
    frame.kind = static_cast<SectionKind>(get_le(bytes, at, 1));
    const std::size_t name_length = get_le(bytes, at, 2);
    frame.name = std::string(bytes.substr(at, name_length));
    at += name_length;
    frame.flags = static_cast<std::uint8_t>(get_le(bytes, at, 1));
    const std::size_t payload_length = get_le(bytes, at, 4);
    at += 8;  // Frame checksum.
    frame.payload = std::string(bytes.substr(at, payload_length));
    at += payload_length;
  }
  file.trailer = std::string(bytes.substr(at));
  return file;
}

std::string join(const File& file) {
  std::string out(kBinaryMagic);
  put_le(out, file.version, 4);
  put_le(out, file.flags, 4);
  put_le(out, file.seq, 8);
  put_le(out, file.base_seq, 8);
  put_le(out, file.frames.size(), 4);
  put_le(out, fnv1a(out), 8);
  for (const Frame& frame : file.frames) {
    std::string meta;
    put_le(meta, static_cast<std::uint8_t>(frame.kind), 1);
    put_le(meta, frame.name.size(), 2);
    meta += frame.name;
    put_le(meta, frame.flags, 1);
    put_le(meta, frame.payload.size(), 4);
    out += meta;
    put_le(out, fnv1a(frame.payload, fnv1a(meta)), 8);
    out += frame.payload;
  }
  return out + file.trailer;
}

template <typename Edit>
std::string rewrite(std::string_view bytes, Edit edit) {
  File file = split(bytes);
  edit(file);
  return join(file);
}

void patch_version(std::string& bytes, std::uint32_t version) {
  bytes = rewrite(bytes, [&](File& file) { file.version = version; });
}

class BinarySnapshotTest : public ::testing::Test {
 protected:
  std::unique_ptr<statechart::StateMachine> machine_ = make_machine();
};

TEST_F(BinarySnapshotTest, RoundTripIsBitIdentical) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();
  ASSERT_GT(reference_log.size(), 0u);

  FullRig source(*machine_);
  source.run(kMidRunPs);
  ASSERT_EQ(source.bus.pending_transactions(), 0u);
  ASSERT_EQ(source.supervisor.pending_restarts(), 1u) << "restart must be in flight";
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();
  EXPECT_EQ(snapshot.substr(0, kBinaryMagic.size()), kBinaryMagic);

  FullRig restored(*machine_);
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot(restored.targets(), snapshot, restore_sink))
      << restore_sink.str();
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(BinarySnapshotTest, EncodeAndRestoreUpdateSnapshotStats) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  ASSERT_EQ(source.kernel.stats().snapshot.encodes, 0u);

  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();
  const sim::Kernel::SnapshotStats& encoded = source.kernel.stats().snapshot;
  EXPECT_EQ(encoded.encodes, 1u);
  EXPECT_EQ(encoded.bytes_written, snapshot.size());
  EXPECT_EQ(encoded.sections_total, kSectionKinds);
  EXPECT_EQ(encoded.sections_dirty, kSectionKinds) << "a full snapshot is all-dirty";

  FullRig restored(*machine_);
  support::DiagnosticSink restore_sink;
  ASSERT_TRUE(restore_snapshot(restored.targets(), snapshot, restore_sink))
      << restore_sink.str();
  EXPECT_EQ(restored.kernel.stats().snapshot.restores, 1u);
}

TEST_F(BinarySnapshotTest, TruncatedFilesAreRejectedAtEveryLength) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();

  std::size_t accepted = 0;
  std::size_t silent = 0;
  for (std::size_t length = 0; length < snapshot.size(); ++length) {
    SnapshotImage image;
    support::DiagnosticSink attempt;
    if (image_from_binary(std::string_view(snapshot).substr(0, length), image, attempt)) {
      ++accepted;
    } else if (!attempt.has_errors()) {
      ++silent;
    }
  }
  EXPECT_EQ(accepted, 0u) << "no strict prefix may decode";
  EXPECT_EQ(silent, 0u) << "every rejection must carry a diagnostic";
}

TEST_F(BinarySnapshotTest, EveryBitFlipIsRejected) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();

  std::size_t accepted = 0;
  std::size_t silent = 0;
  const auto attempt_decode = [&](const std::string& mutated) {
    SnapshotImage image;
    support::DiagnosticSink attempt;
    if (image_from_binary(mutated, image, attempt)) {
      ++accepted;
    } else if (!attempt.has_errors()) {
      ++silent;
    }
  };
  // Frame checksums cover metadata and payload, the header checksum covers
  // the header, and magic/trailer are compared literally — so flipping any
  // single bit anywhere must fail the decode. Walk every byte, rotating the
  // flipped bit position.
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    std::string mutated = snapshot;
    mutated[i] ^= static_cast<char>(1u << (i % 8));
    attempt_decode(mutated);
  }
  // Runs of 1-6 bytes erased or duplicated anywhere shift every later
  // field: the length fields, the frame checksums and the exact-length
  // trailer check must refuse each one.
  support::Rng rng(23);
  for (int i = 0; i < 400; ++i) {
    std::string mutated = snapshot;
    const std::size_t position = rng.below(mutated.size());
    const std::size_t length = 1 + rng.below(6);
    if (i % 2 == 0) {
      mutated.erase(position, length);
    } else {
      mutated.insert(position, mutated.substr(position, length));
    }
    attempt_decode(mutated);
  }
  EXPECT_EQ(accepted, 0u);
  EXPECT_EQ(silent, 0u) << "every rejection must carry a diagnostic";
}

TEST_F(BinarySnapshotTest, CorruptSectionIsNamedInDiagnostics) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();

  // The byte just before the trailer sits in the bank payload (the last
  // section FullRig emits): the failure must name that section and offset.
  std::string mutated = snapshot;
  mutated[mutated.size() - kBinaryTrailer.size() - 1] ^= 0x01;
  SnapshotImage image;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary(mutated, image, attempt));
  EXPECT_NE(attempt.str().find("section checksum mismatch in <bank"), std::string::npos)
      << attempt.str();
  EXPECT_NE(attempt.str().find("at offset "), std::string::npos) << attempt.str();
}

TEST_F(BinarySnapshotTest, DuplicateSectionsAreRejected) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  SnapshotImage image;
  support::DiagnosticSink sink;
  ASSERT_TRUE(capture_image(source.targets(), image, sink)) << sink.str();
  ASSERT_EQ(image.machines.size(), 1u);
  image.machines.push_back(image.machines.front());

  const std::string binary = image_to_binary(image);
  SnapshotImage decoded;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary(binary, decoded, attempt));
  EXPECT_NE(attempt.str().find("duplicate"), std::string::npos) << attempt.str();
}

TEST_F(BinarySnapshotTest, GarbageInputsAreRejected) {
  const std::string inputs[] = {
      "",
      std::string(kBinaryMagic),
      "definitely not a snapshot",
      "<umlsoc-snapshot version=\"3\"/>",
      std::string(200, '\xff'),
  };
  for (const std::string& input : inputs) {
    SnapshotImage image;
    support::DiagnosticSink attempt;
    EXPECT_FALSE(image_from_binary(input, image, attempt));
    EXPECT_TRUE(attempt.has_errors());
  }
}

TEST_F(BinarySnapshotTest, VersionSkewIsRejectedWithStructuredMessage) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  std::string snapshot;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();

  // Bump the version and repair the header checksum so the version check
  // itself — not the checksum — must catch the skew.
  std::string mutated = snapshot;
  patch_version(mutated, static_cast<std::uint32_t>(kSnapshotVersion) + 1);
  SnapshotImage image;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary(mutated, image, attempt));
  EXPECT_NE(attempt.str().find("unsupported snapshot version " +
                               std::to_string(kSnapshotVersion + 1)),
            std::string::npos)
      << attempt.str();

  BinarySnapshotInfo info;
  support::DiagnosticSink info_sink;
  EXPECT_FALSE(read_binary_info(mutated, info, info_sink));
}

TEST_F(BinarySnapshotTest, CleanDeltaIsEmptyAndTiny) {
  FullRig source(*machine_);
  // Run deep enough that the full snapshot carries a real event log; the
  // 5x claim is about amortized payload, not framing overhead.
  source.run(205000);

  IncrementalEncoder encoder;
  IncrementalEncoder::Result full;
  IncrementalEncoder::Result delta;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, full, sink)) << sink.str();
  EXPECT_FALSE(full.delta) << "the first encode has no base to chain to";
  EXPECT_EQ(full.sections_dirty, kSectionKinds);

  // Nothing ran in between: every section dedups to a reference frame.
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta, sink)) << sink.str();
  EXPECT_TRUE(delta.delta);
  EXPECT_EQ(delta.base_seq, full.seq);
  EXPECT_EQ(delta.sections_dirty, 0u);
  EXPECT_LT(delta.bytes.size() * 5, full.bytes.size())
      << "an all-clean delta must be at least 5x smaller than its base";

  // The resolved chain equals a direct capture, byte for byte.
  SnapshotImage chained;
  ASSERT_TRUE(image_from_binary_chain({full.bytes, delta.bytes}, chained, sink)) << sink.str();
  std::string direct;
  ASSERT_TRUE(save_snapshot(source.targets(), direct, sink)) << sink.str();
  EXPECT_EQ(image_to_binary(chained), direct);
}

TEST_F(BinarySnapshotTest, DeltaChainRestoresBitIdentically) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder;
  IncrementalEncoder::Result full;
  IncrementalEncoder::Result delta;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, full, sink)) << sink.str();

  source.run(45000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta, sink)) << sink.str();
  EXPECT_TRUE(delta.delta);
  EXPECT_GT(delta.sections_dirty, 0u);
  EXPECT_LT(delta.sections_dirty, delta.sections_total)
      << "idle sections (supervisor, health) must dedup to references";
  EXPECT_LT(delta.bytes.size(), full.bytes.size());

  // Resolving the chain and applying it continues bit-identically — this
  // drives the recorder-append splice and reference verification paths.
  SnapshotImage image;
  ASSERT_TRUE(image_from_binary_chain({full.bytes, delta.bytes}, image, sink)) << sink.str();
  FullRig restored(*machine_);
  support::DiagnosticSink apply_sink;
  ASSERT_TRUE(apply_image(restored.targets(), image, apply_sink)) << apply_sink.str();
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(BinarySnapshotTest, ChainMissingItsBaseIsRefused) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder;
  IncrementalEncoder::Result full;
  IncrementalEncoder::Result delta;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, full, sink)) << sink.str();
  source.run(45000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta, sink)) << sink.str();
  ASSERT_TRUE(delta.delta);

  SnapshotImage image;
  support::DiagnosticSink empty_attempt;
  EXPECT_FALSE(image_from_binary_chain({}, image, empty_attempt));
  EXPECT_NE(empty_attempt.str().find("empty checkpoint chain"), std::string::npos)
      << empty_attempt.str();

  // A delta at the front of the chain has no base to resolve against; the
  // refusal names the missing base so operators know which rung to fetch.
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary_chain({delta.bytes}, image, attempt));
  EXPECT_NE(attempt.str().find("is a delta (base " + std::to_string(full.seq) +
                               "); it cannot be restored without its chain"),
            std::string::npos)
      << attempt.str();
}

TEST_F(BinarySnapshotTest, OutOfOrderDeltaChainIsRefused) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder;
  IncrementalEncoder::Result full;
  IncrementalEncoder::Result delta1;
  IncrementalEncoder::Result delta2;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, full, sink)) << sink.str();
  source.run(45000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta1, sink)) << sink.str();
  source.run(65000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta2, sink)) << sink.str();
  ASSERT_EQ(delta2.base_seq, delta1.seq);

  // Swapping the deltas breaks the base linkage at the first out-of-order
  // element; the refusal names both the expected and the presented base.
  SnapshotImage image;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary_chain({full.bytes, delta2.bytes, delta1.bytes}, image, attempt));
  EXPECT_NE(attempt.str().find("chain break: delta " + std::to_string(delta2.seq) +
                               " expects base " + std::to_string(delta2.base_seq) +
                               ", chain holds " + std::to_string(full.seq)),
            std::string::npos)
      << attempt.str();
}

TEST_F(BinarySnapshotTest, FullSnapshotInDeltaPositionIsRefused) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder;
  IncrementalEncoder::Result first;
  IncrementalEncoder::Result second;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, first, sink)) << sink.str();
  source.run(45000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, second, sink)) << sink.str();
  ASSERT_FALSE(second.delta);

  SnapshotImage image;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary_chain({first.bytes, second.bytes}, image, attempt));
  EXPECT_NE(attempt.str().find("chain element #1 is a full snapshot, expected a delta"),
            std::string::npos)
      << attempt.str();
}

TEST_F(BinarySnapshotTest, DeltaAgainstTheWrongBaseIsRefusedByReferenceChecksum) {
  // Two rigs encoded by two fresh encoders produce the same sequence
  // numbering, so a delta from rig A chains structurally onto rig B's full
  // snapshot — the per-section reference checksums are the only defense
  // against assembling a frankenstate.
  FullRig source(*machine_);
  source.run(kMidRunPs);
  IncrementalEncoder encoder_a;
  IncrementalEncoder::Result full_a;
  IncrementalEncoder::Result delta_a;
  support::DiagnosticSink sink;
  ASSERT_TRUE(encoder_a.encode(source.targets(), /*force_full=*/true, full_a, sink)) << sink.str();
  // No work between encodes: every section dedups to a reference frame, so
  // every section of the foreign base gets checksum-verified.
  ASSERT_TRUE(encoder_a.encode(source.targets(), /*force_full=*/false, delta_a, sink))
      << sink.str();
  ASSERT_EQ(delta_a.sections_dirty, 0u);

  FullRig other(*machine_);
  other.run(kMidRunPs + 20000);
  IncrementalEncoder encoder_b;
  IncrementalEncoder::Result full_b;
  ASSERT_TRUE(encoder_b.encode(other.targets(), /*force_full=*/true, full_b, sink)) << sink.str();
  ASSERT_EQ(full_b.seq, delta_a.base_seq) << "chain must be structurally valid to reach "
                                             "the checksum check";

  SnapshotImage image;
  support::DiagnosticSink attempt;
  EXPECT_FALSE(image_from_binary_chain({full_b.bytes, delta_a.bytes}, image, attempt));
  EXPECT_NE(attempt.str().find("reference checksum mismatch in"), std::string::npos)
      << attempt.str();
  EXPECT_NE(attempt.str().find("delta expects"), std::string::npos) << attempt.str();
}

// Hostile files built by frame surgery, one per reject path the mutation
// corpus above cannot reach (a random mutation fails a checksum first).
// Every row must be refused with its own diagnostic before the victim rig
// is touched. A single file goes through restore_snapshot; a chain through
// image_from_binary_chain and apply_image.
TEST_F(BinarySnapshotTest, HostileFilesReachTheirRejectPaths) {
  FullRig source(*machine_);
  source.run(kMidRunPs);
  std::string full;
  support::DiagnosticSink sink;
  ASSERT_TRUE(save_snapshot(source.targets(), full, sink)) << sink.str();
  IncrementalEncoder encoder;
  IncrementalEncoder::Result base;
  IncrementalEncoder::Result delta;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, base, sink)) << sink.str();
  source.run(45000);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta, sink)) << sink.str();
  ASSERT_EQ(join(split(full)), full);
  ASSERT_EQ(join(split(delta.bytes)), delta.bytes);
  ASSERT_EQ(split(delta.bytes).frame(SectionKind::kRecorder).flags, 2) << "needs an append frame";
  ASSERT_EQ(split(delta.bytes).frame(SectionKind::kHealth).flags, 1) << "needs a reference frame";

  const auto on_delta = [&](auto edit) {
    return std::vector<std::string>{base.bytes, rewrite(delta.bytes, edit)};
  };
  struct Row {
    std::string name;
    std::vector<std::string> files;  // One: a file to restore. More: a chain.
    std::string expected;
    bool drop_kernel = false;
  };
  const Row rows[] = {
      {"short payload",
       {rewrite(full, [](File& f) { f.frame(SectionKind::kWatchdog).payload.pop_back(); })},
       "malformed payload in <watchdog name='rig'>\n"},
      {"long payload",
       {rewrite(full, [](File& f) { f.frame(SectionKind::kWatchdog).payload += '\0'; })},
       "malformed payload in <watchdog name='rig'> (trailing bytes)"},
      {"no kernel frame",
       {rewrite(full, [](File& f) { f.frames.erase(f.frames.begin()); })},
       "missing kernel section"},
      {"reference frame of the wrong size",
       {rewrite(full, [](File& f) { f.frame(SectionKind::kWatchdog).flags = 1; })},
       "malformed reference frame in <watchdog name='rig'>"},
      {"bytes after the trailer", {rewrite(full, [](File& f) { f.trailer += "xy"; })},
       "2 trailing bytes after the end-of-file trailer"},
      {"reference frame in a full snapshot",
       {rewrite(full,
                [](File& f) {
                  Frame& frame = f.frame(SectionKind::kWatchdog);
                  frame.flags = 1;
                  frame.payload.resize(8);
                })},
       "full snapshot contains a non-payload frame in <watchdog name='rig'>"},
      {"append frame whose total disagrees",
       on_delta([](File& f) { f.frame(SectionKind::kRecorder).payload[0] ^= 0x01; }),
       "malformed recorder append frame"},
      {"reference to a section the base lacks",
       on_delta([](File& f) { f.frame(SectionKind::kHealth).name = "elsewhere"; }),
       "delta references <health name='elsewhere'> which is absent from the base"},
      {"append frame on a non-recorder section",
       on_delta([](File& f) { f.frame(SectionKind::kHealth).flags = 2; }),
       "append frame on non-recorder section <health name='health'>"},
      {"no kernel target", {full}, "no kernel target registered", /*drop_kernel=*/true},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.name);
    FullRig victim(*machine_);
    SnapshotTargets targets = victim.targets();
    SnapshotImage before;
    ASSERT_TRUE(capture_image(targets, before, sink)) << sink.str();
    if (row.drop_kernel) targets.kernel = nullptr;

    support::DiagnosticSink attempt;
    if (row.files.size() == 1) {
      EXPECT_FALSE(restore_snapshot(targets, row.files[0], attempt));
    } else {
      const std::vector<std::string_view> chain(row.files.begin(), row.files.end());
      SnapshotImage image;
      EXPECT_FALSE(image_from_binary_chain(chain, image, attempt) &&
                   apply_image(targets, image, attempt));
    }
    EXPECT_NE(attempt.str().find(row.expected), std::string::npos) << attempt.str();

    SnapshotImage after;
    ASSERT_TRUE(capture_image(victim.targets(), after, sink)) << sink.str();
    EXPECT_EQ(image_to_binary(after), image_to_binary(before)) << "the victim was touched";
    EXPECT_EQ(victim.kernel.stats().snapshot.restores, 0u);
  }
}

/// Top-level S (shallow history over A -ab-> B), D (deep history over C,
/// whose own region steps C1 -c12-> C2) and P (regions r1: E -e-> final,
/// and r2: F, which keeps P from completing). Driving ab, to_d, c12, to_p,
/// e leaves S's region remembering B, D's remembering C2, and one of P's
/// regions in its final state.
std::unique_ptr<statechart::StateMachine> make_history_machine() {
  using statechart::Region;
  using statechart::State;
  using statechart::VertexKind;
  auto machine = std::make_unique<statechart::StateMachine>("History");
  Region& top = machine->top();
  State& s = top.add_state("S");
  State& d = top.add_state("D");
  State& p = top.add_state("P");
  top.add_transition(top.add_initial(), s);
  Region& sr = s.add_region("sr");
  State& a = sr.add_state("A");
  sr.add_transition(sr.add_initial(), a);
  sr.add_transition(a, sr.add_state("B")).set_trigger("ab");
  statechart::Pseudostate& shallow = sr.add_pseudostate(VertexKind::kShallowHistory, "HS");
  sr.add_transition(shallow, a);
  Region& dr = d.add_region("dr");
  State& c = dr.add_state("C");
  dr.add_transition(dr.add_initial(), c);
  Region& cr = c.add_region("cr");
  State& c1 = cr.add_state("C1");
  cr.add_transition(cr.add_initial(), c1);
  cr.add_transition(c1, cr.add_state("C2")).set_trigger("c12");
  statechart::Pseudostate& deep = dr.add_pseudostate(VertexKind::kDeepHistory, "HD");
  dr.add_transition(deep, c);
  Region& r1 = p.add_region("r1");
  State& e = r1.add_state("E");
  r1.add_transition(r1.add_initial(), e);
  r1.add_transition(e, r1.add_final("done")).set_trigger("e");
  Region& r2 = p.add_region("r2");
  r2.add_transition(r2.add_initial(), r2.add_state("F"));
  top.add_transition(s, d).set_trigger("to_d");
  top.add_transition(d, p).set_trigger("to_p");
  top.add_transition(p, shallow).set_trigger("back_s");
  top.add_transition(p, deep).set_trigger("back_d");
  return machine;
}

struct HistoryRig {
  sim::Kernel kernel;
  statechart::StateMachineInstance instance;

  explicit HistoryRig(const statechart::StateMachine& machine) : instance(machine) {
    instance.set_trace_enabled(false);
    instance.start();
  }

  [[nodiscard]] SnapshotTargets targets() {
    SnapshotTargets out;
    out.kernel = &kernel;
    out.machines.push_back({"history", &instance});
    return out;
  }
};

TEST_F(BinarySnapshotTest, MachineHistoryFinalsAndVariablesTakeEveryPath) {
  const std::unique_ptr<statechart::StateMachine> machine = make_history_machine();
  HistoryRig source(*machine);
  for (const char* trigger : {"ab", "to_d", "c12", "to_p", "e"}) {
    ASSERT_TRUE(source.instance.dispatch(statechart::Event{trigger})) << trigger;
  }
  source.instance.set_variable("budget", -12);
  source.instance.set_variable("count", 7);
  const statechart::InstanceSnapshot state = source.instance.capture();
  ASSERT_EQ(state.active_finals.size(), 1u);
  ASSERT_FALSE(state.shallow_history.empty());
  ASSERT_FALSE(state.deep_history.empty());
  ASSERT_EQ(state.variables.size(), 2u);

  support::DiagnosticSink sink;
  SnapshotImage direct;
  ASSERT_TRUE(capture_image(source.targets(), direct, sink)) << sink.str();
  const std::string reference = image_to_binary(direct);

  // Full save -> restore into a fresh instance.
  std::string snapshot;
  ASSERT_TRUE(save_snapshot(source.targets(), snapshot, sink)) << sink.str();
  HistoryRig restored(*machine);
  ASSERT_TRUE(restore_snapshot(restored.targets(), snapshot, sink)) << sink.str();
  SnapshotImage restored_image;
  ASSERT_TRUE(capture_image(restored.targets(), restored_image, sink)) << sink.str();
  EXPECT_EQ(image_to_binary(restored_image), reference);

  // The streaming encoder writes the same frames as the image codec.
  IncrementalEncoder encoder;
  IncrementalEncoder::Result full;
  IncrementalEncoder::Result delta;
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/true, full, sink)) << sink.str();
  EXPECT_EQ(full.bytes.substr(kHeaderBytes), reference.substr(kHeaderBytes));

  // A delta chain resolves to the live state.
  source.instance.set_variable("count", 8);
  ASSERT_TRUE(encoder.encode(source.targets(), /*force_full=*/false, delta, sink)) << sink.str();
  EXPECT_TRUE(delta.delta);
  EXPECT_EQ(delta.sections_dirty, 1u);
  SnapshotImage chained;
  ASSERT_TRUE(image_from_binary_chain({full.bytes, delta.bytes}, chained, sink)) << sink.str();
  SnapshotImage live;
  ASSERT_TRUE(capture_image(source.targets(), live, sink)) << sink.str();
  EXPECT_EQ(image_to_binary(chained), image_to_binary(live));

  // The restored history drives re-entry: deep restores C2, shallow B.
  EXPECT_EQ(restored.instance.variable("budget"), -12);
  ASSERT_TRUE(restored.instance.dispatch(statechart::Event{"back_d"}));
  EXPECT_TRUE(restored.instance.is_in("C2"));
  ASSERT_TRUE(restored.instance.dispatch(statechart::Event{"to_p"}));
  ASSERT_TRUE(restored.instance.dispatch(statechart::Event{"back_s"}));
  EXPECT_TRUE(restored.instance.is_in("B"));
}

// --- golden encoder streams ----------------------------------------------------
// Scripted checkpoint streams over FullRig that drive every path of the
// incremental encoder: fulls, clean deltas, recorder appends, ring
// overwrites, target-set shape changes, restore_log shrinking and then
// regrowing the log, a verify window, forced fulls, and reset() /
// resume_after() after real restores. The expected digests, lengths and
// counts were recorded from the image-based encoder (capture_image, then
// one flat section list per encode) that the streaming encoder replaced.
// The format admits one encoding per state, so any drift is a format
// change. Every step also resolves its chain and compares it with a
// direct capture.

struct StreamStep {
  std::uint64_t digest = 0;  // FNV-1a of the whole file.
  std::size_t size = 0;
  std::size_t dirty = 0;
  std::size_t total = 0;
  bool delta = false;
  std::uint64_t seq = 0;
  std::uint64_t base_seq = 0;

  friend bool operator==(const StreamStep&, const StreamStep&) = default;
};

std::ostream& operator<<(std::ostream& out, const StreamStep& step) {
  return out << "{0x" << std::hex << step.digest << std::dec << "ULL, " << step.size << ", "
             << step.dirty << ", " << step.total << ", " << (step.delta ? "true" : "false")
             << ", " << step.seq << ", " << step.base_seq << "}";
}

/// One encoder plus the chain it has written so far; every encode is
/// recorded and its chain checked against a direct capture.
class StreamRecorder {
 public:
  explicit StreamRecorder(FullRig& rig) : rig_(rig) {}

  void encode(const SnapshotTargets& targets, bool force_full) {
    support::DiagnosticSink sink;
    // One Result for the whole stream, as CheckpointStore keeps it.
    ASSERT_TRUE(encoder_.encode(targets, force_full, result_, sink)) << sink.str();
    if (!result_.delta) chain_.clear();
    chain_.push_back(result_.bytes);
    const std::vector<std::string_view> views(chain_.begin(), chain_.end());
    SnapshotImage resolved;
    ASSERT_TRUE(image_from_binary_chain(views, resolved, sink)) << sink.str();
    SnapshotImage direct;
    ASSERT_TRUE(capture_image(targets, direct, sink)) << sink.str();
    EXPECT_EQ(image_to_binary(resolved), image_to_binary(direct)) << "step " << steps_.size();
    images_.push_back(std::move(resolved));
    steps_.push_back({fnv1a(result_.bytes), result_.bytes.size(), result_.sections_dirty,
                      result_.sections_total, result_.delta, result_.seq, result_.base_seq});
  }

  /// Applies the image resolved at `step` to the rig (a real restore).
  void restore(std::size_t step) {
    support::DiagnosticSink sink;
    ASSERT_TRUE(apply_image(rig_.targets(), images_.at(step), sink)) << sink.str();
  }

  IncrementalEncoder& encoder() { return encoder_; }
  [[nodiscard]] const std::vector<StreamStep>& steps() const { return steps_; }

 private:
  FullRig& rig_;
  IncrementalEncoder encoder_;
  IncrementalEncoder::Result result_;
  std::vector<std::string> chain_;
  std::vector<SnapshotImage> images_;
  std::vector<StreamStep> steps_;
};

void expect_stream(const std::vector<StreamStep>& actual,
                   const std::vector<StreamStep>& expected) {
  std::ostringstream listing;
  for (const StreamStep& step : actual) listing << "      " << step << ",\n";
  ASSERT_EQ(actual.size(), expected.size()) << listing.str();
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i], expected[i]) << "encode #" << i << "\n" << listing.str();
  }
}

TEST_F(BinarySnapshotTest, RingStreamMatchesGoldenBytes) {
  FullRig rig(*machine_, /*ring_capacity=*/kGoldenRingCapacity);
  StreamRecorder stream(rig);
  const SnapshotTargets targets = rig.targets();

  rig.run(25000);
  stream.encode(targets, /*force_full=*/true);  // #0 base
  stream.encode(targets, false);                // #1 nothing ran: all references
  rig.run(45000);
  stream.encode(targets, false);  // #2 recorder append
  rig.run(85000);
  stream.encode(targets, false);  // #3 recorder append
  rig.run(165000);
  stream.encode(targets, false);  // #4 the ring overwrote entries: recorder payload
  rig.run(185000);
  stream.encode(targets, false);  // #5 the full ring keeps rotating: payload again

  SnapshotTargets narrowed = targets;
  narrowed.banks.clear();
  stream.encode(narrowed, false);  // #6 shape change: full
  rig.run(205000);
  stream.encode(targets, false);  // #7 shape change back: full
  rig.run(225000);
  stream.encode(targets, false);  // #8 delta

  // restore_log shrinks the log (and rewinds the total) ...
  const std::vector<sim::RecordedEvent> log = rig.recorder.log();
  ASSERT_GT(log.size(), 10u);
  rig.recorder.restore_log({log.begin(), log.begin() + 10},
                           rig.recorder.total_events() - (log.size() - 10));
  stream.encode(targets, false);  // #9 recorder payload, shorter
  rig.run(245000);
  stream.encode(targets, false);  // #10 ... and the shorter log grows again: append
  // An identical rewrite still dedups to a reference.
  rig.recorder.restore_log(rig.recorder.log(), rig.recorder.total_events());
  stream.encode(targets, false);  // #11 clean delta
  // A verify window rewinds nothing here but is a rewrite all the same.
  rig.recorder.begin_verify(rig.recorder.log(), rig.recorder.total_events());
  rig.run(255000);
  rig.recorder.end_verify();
  stream.encode(targets, false);  // #12 append, found by comparing the whole log

  stream.restore(3);
  stream.encoder().reset();
  stream.encode(targets, false);  // #13 full after reset
  rig.run(125000);
  stream.encode(targets, false);  // #14 delta; the ring wraps again
  stream.restore(8);
  stream.encoder().resume_after(stream.encoder().last_seq() + 5);
  stream.encode(targets, false);  // #15 full, numbering resumed above the gap
  rig.run(285000);
  stream.encode(targets, false);  // #16 delta
  stream.encode(targets, /*force_full=*/true);  // #17 forced full
  rig.run();
  stream.encode(targets, false);  // #18 run to completion

  // Rewrites that keep size and total growing in step must still be seen.
  // Rewind the count by two, then record two events over the full ring:
  // two entries were overwritten.
  ASSERT_EQ(rig.recorder.log().size(), kGoldenRingCapacity);
  rig.recorder.begin_verify(rig.recorder.log(), rig.recorder.total_events() - 2);
  rig.recorder.end_verify();
  rig.recorder.on_event(rig.kernel.now().picoseconds(), rig.ticker, rig.kernel);
  rig.recorder.on_event(rig.kernel.now().picoseconds(), rig.ticker, rig.kernel);
  stream.encode(targets, false);  // #19 recorder payload
  // A same-size log with a different entry.
  std::vector<sim::RecordedEvent> altered = rig.recorder.log();
  altered.front().at_ps += 1;
  rig.recorder.restore_log(altered, rig.recorder.total_events());
  stream.encode(targets, false);  // #20 recorder payload
  // Dropping the fault plan moves the recorder to another slot.
  SnapshotTargets without_plan = targets;
  without_plan.fault_plan = nullptr;
  stream.encode(without_plan, false);  // #21 shape change: full
  rig.recorder.on_event(rig.kernel.now().picoseconds(), rig.ticker, rig.kernel);
  stream.encode(without_plan, false);  // #22 recorder payload (the ring overwrote)

  expect_stream(stream.steps(), {
      {0xcb3edb723c297f3ULL, 1440, 10, 10, false, 1, 0},
      {0xe769e1ef18becd81ULL, 319, 0, 10, true, 2, 1},
      {0xbb13f54a01b0eb16ULL, 1332, 8, 10, true, 3, 2},
      {0x7d7229ddfca27fecULL, 1273, 7, 10, true, 4, 3},
      {0x2274b6ffb2068ad2ULL, 1488, 8, 10, true, 5, 4},
      {0x473cb60d0bf39c48ULL, 1426, 7, 10, true, 6, 5},
      {0xd43f28d3eb9109cbULL, 1393, 9, 9, false, 7, 0},
      {0x94a62a969aa1aef4ULL, 1588, 10, 10, false, 8, 0},
      {0x720031ac187374d3ULL, 1426, 7, 10, true, 9, 8},
      {0x9a012e00f7f08f57ULL, 443, 1, 10, true, 10, 9},
      {0x10236aff61df4ebULL, 1186, 7, 10, true, 11, 10},
      {0x925f5ad5a419b5e4ULL, 319, 0, 10, true, 12, 11},
      {0xb6e457639c057276ULL, 1162, 7, 10, true, 13, 12},
      {0x357c656b87c10982ULL, 1567, 10, 10, false, 14, 0},
      {0x501ccc6bacc65974ULL, 1488, 8, 10, true, 15, 14},
      {0x92f98aa5e8d45dfdULL, 1588, 10, 10, false, 21, 0},
      {0xec718306431fd75bULL, 1426, 7, 10, true, 22, 21},
      {0xb93b71e64e61dd5fULL, 1588, 10, 10, false, 23, 0},
      {0xabef713b7795584ULL, 1356, 7, 10, true, 24, 23},
      {0xcc27e95edf4afdcdULL, 611, 1, 10, true, 25, 24},
      {0x9093f546873965a2ULL, 611, 1, 10, true, 26, 25},
      {0xa4648d4f48143e8fULL, 1205, 9, 9, false, 27, 0},
      {0x3f4c51e8d6dd304ULL, 587, 1, 9, true, 28, 27},
  });
}

TEST_F(BinarySnapshotTest, StoreCadenceStreamMatchesGoldenBytes) {
  // The soak's shape: an unbounded log growing between checkpoints, a full
  // base every fourth encode.
  FullRig rig(*machine_);
  StreamRecorder stream(rig);
  const SnapshotTargets targets = rig.targets();
  for (int i = 0; i < 12; ++i) {
    rig.run(15000 + 20000 * static_cast<std::uint64_t>(i));
    stream.encode(targets, /*force_full=*/i % 4 == 0);
  }
  expect_stream(stream.steps(), {
      {0xa6e70fdea8530a69ULL, 1387, 10, 10, false, 1, 0},
      {0x272cc56d320511feULL, 1332, 8, 10, true, 2, 1},
      {0xd48a1394c81c7d93ULL, 1225, 7, 10, true, 3, 2},
      {0xfd87856d948ce594ULL, 1225, 7, 10, true, 4, 3},
      {0x56ffcf5100d52768ULL, 1591, 10, 10, false, 5, 0},
      {0xcd9d97d0531a454eULL, 1260, 8, 10, true, 6, 5},
      {0x5f07a610233fe83fULL, 1186, 7, 10, true, 7, 6},
      {0x956aa3cbb720e6bdULL, 1186, 7, 10, true, 8, 7},
      {0xd706af47db3fc878ULL, 1744, 10, 10, false, 9, 0},
      {0xb87fe75028f4ee4dULL, 1186, 7, 10, true, 10, 9},
      {0x2ac7dfc43a7b3db6ULL, 1186, 7, 10, true, 11, 10},
      {0xc34e84f37c9a2477ULL, 1186, 7, 10, true, 12, 11},
  });
}

// --- CheckpointStore ---------------------------------------------------------

bool read_file(const std::filesystem::path& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

bool write_file(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

std::vector<std::filesystem::path> snapshot_files(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".usnap") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());  // Zero-padded names: seq order.
  return files;
}

class CheckpointStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // System temp, not the working directory: a relative scratch root would
    // litter whatever directory ctest runs from. ctest runs cases as
    // parallel processes, so the pid isolates concurrent cases and lets
    // TearDown remove the whole per-process root without racing a sibling
    // test's live store.
    std::string scratch = "umlsoc-checkpoint-store-";
    scratch += std::to_string(::getpid());
    root_ = std::filesystem::temp_directory_path() / scratch;
    dir_ = root_ /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  CheckpointStoreConfig config(unsigned full_interval = 3, unsigned keep_fulls = 2) {
    CheckpointStoreConfig out;
    out.directory = dir_;
    out.full_interval = full_interval;
    out.keep_fulls = keep_fulls;
    return out;
  }

  /// Advances the rig through quiescent savepoints, writing one checkpoint
  /// at each.
  void write_checkpoints(FullRig& rig, CheckpointStore& store, int count, int first = 0) {
    for (int k = first; k < first + count; ++k) {
      rig.run(kMidRunPs + 20000 * static_cast<std::uint64_t>(k));
      CheckpointStore::WriteResult result;
      support::DiagnosticSink sink;
      ASSERT_TRUE(store.checkpoint(rig.targets(), result, sink)) << sink.str();
    }
  }

  std::filesystem::path root_;
  std::filesystem::path dir_;
  std::unique_ptr<statechart::StateMachine> machine_ = make_machine();
};

TEST_F(CheckpointStoreTest, RestoreLatestGoodContinuesBitIdentically) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);
  EXPECT_EQ(store.stats().checkpoints, 5u);
  EXPECT_EQ(store.stats().fulls, 2u) << "full cadence: seq 1 and 4";
  EXPECT_EQ(store.stats().deltas, 3u);
  EXPECT_EQ(snapshot_files(dir_).size(), 5u);

  // A fresh store instance recovers purely from the on-disk ladder.
  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 5u);
  EXPECT_EQ(recovery.stats().quarantines, 0u);
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(CheckpointStoreTest, LadderStepsPastCorruptNewest) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);

  // Tear the newest checkpoint in half, as a crash mid-write would.
  const std::vector<std::filesystem::path> files = snapshot_files(dir_);
  ASSERT_EQ(files.size(), 5u);
  std::string bytes;
  ASSERT_TRUE(read_file(files.back(), bytes));
  bytes.resize(bytes.size() / 2);
  ASSERT_TRUE(write_file(files.back(), bytes));

  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().quarantines, 1u);
  EXPECT_EQ(recovery.stats().restored_seq, 4u) << "one rung down the ladder";
  ASSERT_EQ(recovery.quarantined().size(), 1u);
  EXPECT_EQ(recovery.quarantined().front().path, files.back());

  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(CheckpointStoreTest, VersionSkewedCheckpointIsQuarantined) {
  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);

  const std::vector<std::filesystem::path> files = snapshot_files(dir_);
  std::string bytes;
  ASSERT_TRUE(read_file(files.back(), bytes));
  patch_version(bytes, static_cast<std::uint32_t>(kSnapshotVersion) + 1);
  ASSERT_TRUE(write_file(files.back(), bytes));

  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 4u);
  ASSERT_EQ(recovery.quarantined().size(), 1u);
  EXPECT_NE(recovery.quarantined().front().reason.find("unsupported snapshot version"),
            std::string::npos)
      << recovery.quarantined().front().reason;
}

TEST_F(CheckpointStoreTest, ExhaustedLadderReportsAndFailsHealth) {
  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 5);

  // Flip a bit in the middle of every checkpoint: nothing is restorable.
  for (const std::filesystem::path& path : snapshot_files(dir_)) {
    std::string bytes;
    ASSERT_TRUE(read_file(path, bytes));
    bytes[bytes.size() / 2] ^= 0x10;
    ASSERT_TRUE(write_file(path, bytes));
  }

  FullRig restored(*machine_);
  sim::HealthRegistry health;
  CheckpointStore recovery(config());
  recovery.bind_health(health);
  support::DiagnosticSink sink;
  EXPECT_FALSE(recovery.restore_latest_good(restored.targets(), sink));
  EXPECT_NE(sink.str().find("no restorable checkpoint"), std::string::npos) << sink.str();
  EXPECT_EQ(recovery.quarantined().size(), 5u) << "every file steps aside with a reason";
  EXPECT_EQ(health.aggregate(), sim::UnitHealth::kFailed);
  EXPECT_TRUE(snapshot_files(dir_).empty()) << "quarantined files leave the scan set";
  // The victim rig was never touched: it can still run from scratch.
  restored.run();
  EXPECT_EQ(restored.ticks, FullRig::kTicks);
}

TEST_F(CheckpointStoreTest, RotationPrunesOldChainsAndKeepsBases) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config(/*full_interval=*/2, /*keep_fulls=*/2));
  write_checkpoints(source, store, 12);

  // Fulls at seq 1,3,5,7,9,11; retaining two keeps {9,11}, so only seq
  // 9..12 survive and every surviving delta still has its base on disk.
  const std::vector<std::filesystem::path> files = snapshot_files(dir_);
  EXPECT_EQ(files.size(), 4u);
  EXPECT_EQ(store.stats().pruned, 8u);
  EXPECT_EQ(files.front().filename().string(), "ckpt-00000009.usnap");

  FullRig restored(*machine_);
  CheckpointStore recovery(config(2, 2));
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 12u);
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(CheckpointStoreTest, InjectedWriteFaultsRecoverViaLadder) {
  FullRig reference(*machine_);
  reference.run();
  const std::vector<sim::RecordedEvent> reference_log = reference.recorder.log();

  FullRig source(*machine_);
  CheckpointStore store(config());
  // First checkpoint lands clean so a good base is guaranteed, then every
  // later write rolls the dice on torn/lost/bit-flipped outcomes.
  write_checkpoints(source, store, 1);
  sim::FaultPlan corruption(/*seed=*/99);
  sim::FaultPlan::SiteConfig faults;
  faults.error_rate = 0.25;
  faults.drop_rate = 0.25;
  faults.bit_flip_rate = 0.25;
  corruption.configure(sim::FaultSite::kCheckpoint, faults);
  store.install_fault_plan(&corruption);
  write_checkpoints(source, store, 7, /*first=*/1);
  EXPECT_GT(store.stats().write_faults, 0u)
      << "seed 99 must actually injure some checkpoints";

  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_GE(recovery.stats().restored_seq, 1u);
  restored.run();
  expect_same_outcome(restored, reference, reference_log);
}

TEST_F(CheckpointStoreTest, StrayFilesAreIgnored) {
  FullRig source(*machine_);
  CheckpointStore store(config());
  write_checkpoints(source, store, 3);

  // Leftover tmp files, foreign prefixes and malformed names must neither
  // crash the scan nor shadow real checkpoints.
  ASSERT_TRUE(write_file(dir_ / "ckpt-00000099.usnap.tmp", "half-written junk"));
  ASSERT_TRUE(write_file(dir_ / "ckpt-0000000x.usnap", "bad digits"));
  ASSERT_TRUE(write_file(dir_ / "other-00000001.usnap", "foreign prefix"));
  ASSERT_TRUE(write_file(dir_ / "notes.txt", "not a checkpoint"));

  FullRig restored(*machine_);
  CheckpointStore recovery(config());
  support::DiagnosticSink sink;
  ASSERT_TRUE(recovery.restore_latest_good(restored.targets(), sink)) << sink.str();
  EXPECT_EQ(recovery.stats().restored_seq, 3u);
  EXPECT_EQ(recovery.stats().quarantines, 0u);
}

}  // namespace
}  // namespace umlsoc::replay
