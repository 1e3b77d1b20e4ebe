// Chaos-soak workload (src/soak) driven in-process, one seed at a time:
// a seed's outcome is pinned by its report fingerprint, a re-dispatched
// attempt with nothing to inherit equals the first attempt, and an attempt
// that inherits a handoff ladder resumes from it and still lands the same
// outcome. Also: two seeds on a two-thread fleet share one bundle (and its
// compiled link program), the event-log writer matches the std::ostream
// format it replaced, and a steady-state live checkpoint encode makes a
// pinned number of heap allocations.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <new>
#include <sstream>
#include <string>

#include "fleet/report.hpp"
#include "replay/binary.hpp"
#include "replay/store.hpp"
#include "soak/soak.hpp"

// Counting global allocator for the encode-allocation test (the pattern of
// sim_test.cpp, plus the nothrow forms: std::stable_sort's temporary
// buffer takes nothrow new and returns it through sized delete, so every
// form must come from one allocator). GCC inlines the malloc/free bodies
// into new/delete call sites and then reports a mismatched pairing;
// silence the false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace umlsoc::soak {
namespace {

namespace fs = std::filesystem;

/// The model bundle and a per-test scratch root, removed when the test ends.
class SoakSeed : public ::testing::Test {
 protected:
  void SetUp() override {
    support::DiagnosticSink sink;
    ASSERT_TRUE(build_model_bundle(bundle_, sink)) << sink.str();
    scratch_ = fs::temp_directory_path() /
               ("soak-test-" + std::to_string(::getpid()) + "-" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(scratch_);
  }
  void TearDown() override { fs::remove_all(scratch_); }

  fleet::RigOutcome run(std::uint32_t attempt) {
    fleet::RigJob job;
    job.seed = kFirstSeed;
    job.attempt = attempt;
    return soak_one_seed(bundle_, EngineChoice::kCompiled, job, scratch_);
  }

  ModelBundle bundle_;
  fs::path scratch_;
};

TEST_F(SoakSeed, FirstSeedMatchesPinnedFingerprint) {
  const fleet::RigOutcome outcome = run(0);
  ASSERT_TRUE(outcome.ok) << outcome.failure;
  EXPECT_EQ(outcome.resumed_from_seq, 0u);
  EXPECT_EQ(fleet::FleetReport::aggregate({outcome}).fingerprint(),
            "rigs=1/1\n"
            "failed-seeds=\n"
            "traffic=64/63/1 bus=64/1/1/1/0\n"
            "errors=0/0\n"
            "supervision=0/0/0/0 breaker=0/0/0 rollbacks=0\n"
            "recovery=5/1/1/1/1 lost-work-ps=4005022\n"
            "health=2/0/0\n"
            "kernel=7107/8/6/65/0 snapshot=209/3/1265527/1096/2717\n"
            "sim-time=50000000/50000000 events=7333\n"
            "poisoned-seeds=\n"
            "template[0]=1/1 traffic=64/63/1 bus=64/1/0 errors=0/0 giveups=0\n");
  EXPECT_FALSE(fs::exists(scratch_ / ("seed-" + std::to_string(kFirstSeed))))
      << "a passing seed removes its scratch";
}

TEST_F(SoakSeed, RedispatchWithoutLadderEqualsFirstAttempt) {
  const fleet::RigOutcome first = run(0);
  ASSERT_TRUE(first.ok) << first.failure;
  const fleet::RigOutcome again = run(1);
  ASSERT_TRUE(again.ok) << again.failure;
  EXPECT_EQ(again.resumed_from_seq, 0u);
  EXPECT_TRUE(again.deterministic_equal(first));
}

TEST_F(SoakSeed, RedispatchResumesFromInheritedHandoffLadder) {
  const fleet::RigOutcome first = run(0);
  ASSERT_TRUE(first.ok) << first.failure;

  // What a predecessor killed right after its first handoff write leaves
  // behind: the t=0 rung of a freshly built rig.
  fleet::RigJob job;
  job.seed = kFirstSeed;
  support::DiagnosticSink sink;
  DegradedRig rig(seed_setup(bundle_, EngineChoice::kCompiled, job, sink));
  replay::CheckpointStore store(handoff_store_config(scratch_, kFirstSeed));
  replay::CheckpointStore::WriteResult rung;
  ASSERT_TRUE(store.checkpoint(rig.targets(), rung, sink)) << sink.str();

  const fleet::RigOutcome resumed = run(1);
  ASSERT_TRUE(resumed.ok) << resumed.failure;
  EXPECT_NE(resumed.resumed_from_seq, 0u);
  EXPECT_TRUE(resumed.deterministic_equal(first));
}

TEST_F(SoakSeed, TwoThreadFleetSharesOneBundle) {
  // Both fleet threads copy their rigs' link engines from the one compiled
  // program in bundle_ at the same time; each seed must still land exactly
  // its outcome from an inline (one-job) fleet.
  fleet::FleetDriver inline_fleet({.jobs = 1});
  const std::vector<fleet::RigOutcome> expected =
      run_soak(inline_fleet, bundle_, EngineChoice::kCompiled, 2);
  fleet::FleetDriver threads({.jobs = 2, .chunk = 1});
  const std::vector<fleet::RigOutcome> outcomes =
      run_soak(threads, bundle_, EngineChoice::kCompiled, 2);
  ASSERT_EQ(expected.size(), 2u);
  ASSERT_EQ(outcomes.size(), 2u);
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    ASSERT_TRUE(expected[i].ok) << expected[i].failure;
    ASSERT_TRUE(outcomes[i].ok) << outcomes[i].failure;
    EXPECT_TRUE(outcomes[i].deterministic_equal(expected[i])) << "seed " << outcomes[i].seed;
  }
  EXPECT_FALSE(bundle_.link_program->started()) << "rigs copy the program, never run it";
}

TEST_F(SoakSeed, SteadyStateEncodeAllocations) {
  // One live checkpoint encode per delivered byte of the seed-1000 rig,
  // through both traffic phases, on one encoder and one reused Result —
  // the CheckpointStore's hot path without the file write. The first
  // encodes size every buffer; after them, the count is pinned.
  fleet::RigJob job;
  job.seed = kFirstSeed;
  support::DiagnosticSink sink;
  DegradedRig rig(seed_setup(bundle_, EngineChoice::kCompiled, job, sink));
  const replay::SnapshotTargets targets = rig.targets();
  replay::IncrementalEncoder encoder;
  replay::IncrementalEncoder::Result result;
  constexpr std::uint64_t kWarmupEncodes = 8;
  std::uint64_t encodes = 0;
  std::uint64_t steady_encodes = 0;
  std::uint64_t steady_allocations = 0;
  for (std::uint64_t byte = 1; byte <= 64; ++byte) {
    ASSERT_TRUE(run_phase(rig, byte));
    support::DiagnosticSink encode_sink;
    const std::uint64_t before = g_heap_allocations.load(std::memory_order_relaxed);
    const bool encoded = encoder.encode(targets, false, result, encode_sink);
    const std::uint64_t allocations = g_heap_allocations.load(std::memory_order_relaxed) - before;
    if (!encoded) continue;  // An in-flight retry expectation: no rung here.
    if (++encodes <= kWarmupEncodes) continue;
    ++steady_encodes;
    steady_allocations += allocations;
  }
  // Every component captures into the encoder's reused scratch image, so
  // the one source left is the recorder section: its payload grows with
  // the event log and reallocates now and then (amortized doubling; three
  // times over these encodes, at 1153, 2305 and 4609 bytes).
  EXPECT_EQ(steady_encodes, 56u);
  EXPECT_EQ(steady_allocations, 3u);
}

/// How the soak wrote its event logs through std::ostream before the
/// writer formatted into one buffer: the reference the writer must match.
std::string ostream_event_log(const std::vector<sim::RecordedEvent>& log,
                              const sim::Kernel& kernel) {
  std::ostringstream out;
  std::uint64_t index = 0;
  for (const sim::RecordedEvent& event : log) {
    const std::string& label = kernel.process_label(event.process);
    out << index++ << ' ' << event.at_ps << ' ' << event.process << ' '
        << (label.empty() ? "?" : label) << '\n';
  }
  return out.str();
}

/// What dump_event_log writes for `log`, read back from a scratch file.
std::string written_event_log(const std::vector<sim::RecordedEvent>& log,
                              const sim::Kernel& kernel) {
  const fs::path path = fs::temp_directory_path() /
                        ("soak-test-events-" + std::to_string(::getpid()) + ".log");
  fs::remove(path);
  dump_event_log(path, log, kernel);
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "the writer creates the file even for an empty log";
  std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  fs::remove(path);
  return bytes;
}

TEST(SoakEventLog, LabelledProcessesMatchOstreamFormat) {
  sim::Kernel kernel;
  const sim::ProcessId sender = kernel.register_process([] {}, "cpu.sender");
  const sim::ProcessId script = kernel.register_process([] {}, "soak.script");
  const std::vector<sim::RecordedEvent> log = {
      {0, sender}, {500'000, script}, {500'000, sender},
      {18'446'744'073'709'551'615ull, script}};
  const std::string expected = ostream_event_log(log, kernel);
  EXPECT_EQ(expected,
            "0 0 0 cpu.sender\n1 500000 1 soak.script\n2 500000 0 cpu.sender\n"
            "3 18446744073709551615 1 soak.script\n");
  EXPECT_EQ(written_event_log(log, kernel), expected);
}

TEST(SoakEventLog, UnlabelledProcessWritesQuestionMark) {
  sim::Kernel kernel;
  const sim::ProcessId anonymous = kernel.register_process([] {});
  const sim::ProcessId sender = kernel.register_process([] {}, "cpu.sender");
  const std::vector<sim::RecordedEvent> log = {{7, anonymous}, {8, sender}, {9, anonymous}};
  const std::string expected = ostream_event_log(log, kernel);
  EXPECT_EQ(expected, "0 7 0 ?\n1 8 1 cpu.sender\n2 9 0 ?\n");
  EXPECT_EQ(written_event_log(log, kernel), expected);
}

TEST(SoakEventLog, EmptyLogWritesEmptyFile) {
  sim::Kernel kernel;
  EXPECT_EQ(written_event_log({}, kernel), "");
}

TEST_F(SoakSeed, RigEventLogMatchesOstreamFormat) {
  fleet::RigJob job;
  job.seed = kFirstSeed;
  support::DiagnosticSink sink;
  DegradedRig rig(seed_setup(bundle_, EngineChoice::kCompiled, job, sink));
  ASSERT_TRUE(run_phase(rig, 32));
  const std::vector<sim::RecordedEvent> log = rig.recorder.log();
  ASSERT_GT(log.size(), 32u);
  EXPECT_EQ(written_event_log(log, rig.kernel), ostream_event_log(log, rig.kernel));
}

}  // namespace
}  // namespace umlsoc::soak
