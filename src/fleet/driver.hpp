// FleetDriver: sharded multi-rig simulation across worker threads.
//
// The driver turns "run this rig once per seed" into a fleet run: seeds are
// split into contiguous chunks, worker threads claim chunks from a single
// atomic cursor (chunked work queue — claiming is one fetch_add, so the
// steady state has no locks and no shared mutable state beyond the cursor),
// and each claimed rig runs start-to-finish on its worker with everything
// it owns — kernel, fault plan, supervision tree, checkpoint ladder —
// constructed, used and destroyed on that thread. Rigs never share state,
// which is both the scaling story (no cross-rig synchronization on the hot
// path) and the determinism story (a rig's outcome is a pure function of
// its seed, so per-seed results are bit-identical across `jobs` counts and
// chunk sizes; results land in a pre-sized slot vector indexed by rig,
// never appended in completion order).
//
// Isolation contract for rig runners: the runner may read shared immutable
// inputs (models, profiles, configs built before run() is called) but must
// not write anything outside its own rig or its result slot. Filesystem
// scratch must be partitioned by seed. The TSAN CI job enforces this
// contract on the real chaos-soak client.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "fleet/outcome.hpp"

namespace umlsoc::fleet {

/// How rigs are isolated from one another. Threads share the address space
/// (fast, but one rig that corrupts memory or aborts takes the fleet down);
/// processes are forked workers supervised over pipes — a rig that
/// SIGKILLs, exits nonzero or goes silent is reaped and its work is
/// re-dispatched, so the fleet survives individual failures.
enum class Isolation : std::uint8_t { kThread, kProcess };

struct FleetConfig {
  /// Worker threads (or processes under kProcess isolation). 0 = one per
  /// hardware thread. 1 with kThread runs every rig inline on the calling
  /// thread (no thread is spawned) — the baseline the scaling curve and
  /// the determinism gate compare against.
  unsigned jobs = 0;

  /// Rigs per shard-queue chunk. 0 = automatic: enough chunks that the
  /// slowest worker can be back-filled (about 4 chunks per worker), but
  /// never less than 1 rig. Larger chunks amortize the (already tiny)
  /// claim cost; smaller chunks smooth out rigs with uneven run times.
  std::uint64_t chunk = 0;

  Isolation isolation = Isolation::kThread;

  /// Fault-plan template slots swept across the fleet: the driver stamps
  /// RigJob::fault_template = index % fault_templates before the runner
  /// sees the job, identically in every isolation/jobs configuration.
  /// 1 = uniform fleet (every rig gets template 0).
  std::uint32_t fault_templates = 1;

  // --- Process-isolation supervision knobs (ignored under kThread) ----------

  /// Worker heartbeat cadence. A worker beats from a dedicated thread, so
  /// a beat proves the process is scheduled, not that the rig progresses.
  std::uint32_t heartbeat_interval_ms = 250;
  /// Silence (no frame of any kind) longer than this SIGKILLs the worker.
  std::uint32_t heartbeat_deadline_ms = 5000;
  /// Per-seed watchdog: one rig running longer than this SIGKILLs the
  /// worker even if heartbeats still flow (hung or livelocked rig).
  std::uint32_t seed_timeout_ms = 120000;
  /// A seed whose execution kills this many consecutive workers is
  /// quarantined (poisoned) instead of re-dispatched forever.
  std::uint32_t quarantine_threshold = 3;
  /// Worker respawns (per slot) before the slot is abandoned.
  std::uint32_t max_respawns = 8;
  /// When fewer slots than this remain usable, the driver stops forking
  /// and finishes the remaining rigs inline (graceful in-process fallback).
  std::uint32_t min_workers = 1;
  /// Chaos knob for tests/CI: the supervisor SIGKILLs this many randomly
  /// chosen busy workers, spaced across the run — exercising the death,
  /// re-dispatch and handoff-resume paths on demand.
  std::uint32_t chaos_kill_workers = 0;
};

/// Fleet-run observability. Everything here describes the host-side
/// execution (which is allowed to vary run to run); nothing feeds outcomes.
struct FleetStats {
  unsigned jobs = 0;                ///< Workers actually used.
  std::uint64_t chunk = 0;          ///< Chunk size actually used.
  std::uint64_t chunks_claimed = 0; ///< Chunk claims across all workers.
  std::uint64_t rigs = 0;           ///< Rigs executed.
  std::uint64_t wall_ns = 0;        ///< run() wall time.
  std::vector<std::uint64_t> rigs_per_worker;  ///< Load balance per slot.

  /// Process-pool supervision accounting (kProcess isolation only).
  struct PoolStats {
    std::uint64_t forks = 0;            ///< Workers forked (initial + respawns).
    std::uint64_t respawns = 0;         ///< Replacement forks after a death.
    std::uint64_t deaths = 0;           ///< Workers that exited abnormally.
    std::uint64_t heartbeat_kills = 0;  ///< SIGKILLs for heartbeat silence.
    std::uint64_t seed_timeout_kills = 0;  ///< SIGKILLs for per-seed watchdog.
    std::uint64_t chaos_kills = 0;      ///< Supervisor-injected SIGKILLs.
    std::uint64_t redispatches = 0;     ///< Grants re-dispatched after a death.
    std::uint64_t resumes = 0;          ///< Re-dispatches that resumed from a ladder.
    std::uint64_t poisoned = 0;         ///< Seeds quarantined.
    std::uint64_t inline_fallback_rigs = 0;  ///< Rigs finished in-process after degrade.
    bool degraded_to_inline = false;    ///< Pool fell below min_workers.
  };
  PoolStats pool;
};

/// Runs a fleet of independently-seeded rigs across worker threads.
class FleetDriver {
 public:
  /// Builds, runs and reduces one rig. Invoked on a worker thread; must
  /// honor the isolation contract above. A thrown exception is caught by
  /// the driver and recorded as a failed outcome for that rig alone.
  using RigRunner = std::function<RigOutcome(const RigJob&)>;

  /// Completion hook for progress reporting. Serialized by the driver (at
  /// most one invocation at a time, under a mutex), invoked after each rig
  /// completes with the fleet-wide completion count. Ordering across rigs
  /// follows completion, not seed order — print progress here, never
  /// results that claim an order.
  using Progress = std::function<void(const RigJob& job, const RigOutcome& outcome,
                                      std::uint64_t done, std::uint64_t total)>;

  explicit FleetDriver(FleetConfig config = {});

  void set_progress(Progress progress) { progress_ = std::move(progress); }

  /// Runs one rig per seed and returns outcomes indexed like `seeds`.
  /// Deterministic: outcomes[i] depends only on seeds[i] (given a
  /// contract-honoring runner), regardless of jobs/chunk configuration.
  std::vector<RigOutcome> run(const std::vector<std::uint64_t>& seeds,
                              const RigRunner& runner);

  /// Convenience over the dense seed range [seed_base, seed_base + count).
  std::vector<RigOutcome> run_range(std::uint64_t seed_base, std::uint64_t count,
                                    const RigRunner& runner);

  /// Stats of the most recent run().
  [[nodiscard]] const FleetStats& stats() const { return stats_; }

  /// The worker count a config resolves to on this host.
  [[nodiscard]] static unsigned resolve_jobs(unsigned requested);

 private:
  FleetConfig config_;
  Progress progress_;
  FleetStats stats_;
};

/// Runs one rig the same way on every path (worker thread, forked worker,
/// inline fallback): an exception becomes a failed outcome, never a crash,
/// and the outcome carries its dispatch provenance — seed, fault_template
/// and attempts = job.attempt + 1 — plus the rig's wall time unless the
/// runner set one.
RigOutcome run_rig(const RigJob& job, const FleetDriver::RigRunner& runner);

}  // namespace umlsoc::fleet
