// Chaos-soak workload (src/soak) driven in-process, one seed at a time:
// a seed's outcome is pinned by its report fingerprint, a re-dispatched
// attempt with nothing to inherit equals the first attempt, and an attempt
// that inherits a handoff ladder resumes from it and still lands the same
// outcome.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>

#include "fleet/report.hpp"
#include "replay/store.hpp"
#include "soak/soak.hpp"

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

}  // namespace
}  // namespace umlsoc::soak
