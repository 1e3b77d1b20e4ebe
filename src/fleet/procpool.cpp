#include "fleet/procpool.hpp"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <random>
#include <string>
#include <thread>

#include "fleet/handoff.hpp"

namespace umlsoc::fleet {
namespace {

using Clock = std::chrono::steady_clock;

bool write_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Runs one grant through run_rig, exactly like a worker thread runs a rig.
RigOutcome execute_grant(const Grant& grant, unsigned worker,
                         const FleetDriver::RigRunner& runner) {
  return run_rig({grant.index, grant.seed, worker, grant.attempt, grant.fault_template},
                 runner);
}

/// Worker-process body after fork. Speaks the handoff protocol over the two
/// pipe fds; never returns. The heartbeat thread shares the write fd with
/// the runner, so every frame goes out whole under the pipe mutex — the
/// parent never sees interleaved messages, and a SIGKILL mid-write leaves
/// at most one truncated frame at the tail of the stream.
[[noreturn]] void worker_main(int read_fd, int write_fd, unsigned worker,
                              const FleetDriver::RigRunner& runner,
                              std::uint32_t heartbeat_interval_ms) {
  ::signal(SIGPIPE, SIG_IGN);
  std::mutex pipe_mutex;
  const auto send = [&](FrameType type, std::string_view payload) {
    const std::string frame = encode_frame(type, payload);
    std::lock_guard<std::mutex> lock(pipe_mutex);
    return write_all(write_fd, frame.data(), frame.size());
  };
  (void)send(FrameType::kHello, encode_hello(static_cast<std::uint64_t>(::getpid())));

  // The heartbeat waits on `stop` rather than sleeping, so shutdown wakes it
  // at once instead of after up to one whole interval.
  std::mutex stop_mutex;
  std::condition_variable stop_changed;
  bool stop = false;
  std::thread heartbeat([&] {
    const auto interval = std::chrono::milliseconds(
        heartbeat_interval_ms == 0 ? 1 : heartbeat_interval_ms);
    std::unique_lock<std::mutex> lock(stop_mutex);
    while (!stop_changed.wait_for(lock, interval, [&] { return stop; })) {
      lock.unlock();
      const bool sent = send(FrameType::kHeartbeat, {});
      lock.lock();
      if (!sent) break;
    }
  });

  FrameReader reader;
  char buf[4096];
  bool running = true;
  while (running) {
    const ssize_t n = ::read(read_fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // parent closed the pipe (or died): drain out
    reader.feed(buf, static_cast<std::size_t>(n));
    Frame frame;
    while (running && reader.next(frame)) {
      if (frame.type == FrameType::kShutdown) {
        running = false;
        break;
      }
      if (frame.type != FrameType::kAssign) continue;
      std::vector<Grant> grants;
      if (!decode_assign(frame.payload, grants)) {
        running = false;
        break;
      }
      for (const Grant& grant : grants) {
        if (!send(FrameType::kStartSeed,
                  encode_start_seed(grant.index, grant.attempt)) ||
            !send(FrameType::kResult,
                  encode_result(grant.index, execute_grant(grant, worker, runner)))) {
          running = false;
          break;
        }
      }
    }
    if (reader.corrupt()) break;
  }
  {
    std::lock_guard<std::mutex> lock(stop_mutex);
    stop = true;
  }
  stop_changed.notify_one();
  heartbeat.join();
  // _exit, not exit: no atexit handlers, no stdio flush — the child shares
  // the parent's pre-fork buffers and must not flush them a second time.
  ::_exit(0);
}

struct Slot {
  pid_t pid = -1;
  int to_child = -1;    ///< Parent's write end (assigns, shutdown).
  int from_child = -1;  ///< Parent's read end (hello, beats, results).
  FrameReader reader;
  bool alive = false;
  Clock::time_point last_heard;
  bool has_inflight = false;
  std::uint64_t inflight = 0;
  Clock::time_point seed_start;
  std::uint64_t outstanding = 0;  ///< Grants assigned, results not yet accepted.
  std::uint32_t respawns = 0;
  bool abandoned = false;        ///< Respawn budget exhausted.
  bool respawn_pending = false;  ///< Waiting out the backoff before re-fork.
  Clock::time_point respawn_at;
};

}  // namespace

ProcPool::ProcPool(const FleetConfig& config, unsigned jobs, std::uint64_t chunk)
    : config_(config), jobs_(jobs == 0 ? 1 : jobs), chunk_(chunk == 0 ? 1 : chunk) {}

std::vector<RigOutcome> ProcPool::run(const std::vector<std::uint64_t>& seeds,
                                      const FleetDriver::RigRunner& runner,
                                      const FleetDriver::Progress& progress,
                                      FleetStats& stats) {
  const std::uint64_t total = seeds.size();
  std::vector<RigOutcome> outcomes(total);
  if (total == 0) return outcomes;

  const std::uint32_t templates =
      config_.fault_templates == 0 ? 1 : config_.fault_templates;
  const auto template_of = [templates](std::uint64_t index) {
    return static_cast<std::uint32_t>(index % templates);
  };

  // A dead worker must not kill the supervisor with a write to its pipe.
  struct sigaction ignore_pipe {};
  ignore_pipe.sa_handler = SIG_IGN;
  struct sigaction old_pipe {};
  ::sigaction(SIGPIPE, &ignore_pipe, &old_pipe);

  HandoffLedger ledger(total, config_.quarantine_threshold == 0
                                  ? 1
                                  : config_.quarantine_threshold);
  std::vector<Slot> slots(jobs_);
  std::uint64_t completed = 0;
  bool degraded = false;

  const auto job_for = [&](std::uint64_t index, unsigned worker) {
    RigJob job;
    job.index = index;
    job.seed = seeds[index];
    job.worker = worker;
    job.attempt = ledger.attempt(index) == 0 ? 0 : ledger.attempt(index) - 1;
    job.fault_template = template_of(index);
    return job;
  };

  const auto spawn = [&](unsigned w) {
    Slot& slot = slots[w];
    int to_child[2] = {-1, -1};
    int from_child[2] = {-1, -1};
    if (::pipe(to_child) != 0) {
      slot.abandoned = true;
      return false;
    }
    if (::pipe(from_child) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      slot.abandoned = true;
      return false;
    }
    std::fflush(nullptr);  // don't let the child inherit unflushed stdio
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      ::close(from_child[0]);
      ::close(from_child[1]);
      slot.abandoned = true;
      return false;
    }
    if (pid == 0) {
      // Child. Drop every fd that is not ours — a sibling holding a stray
      // write end would keep a dead worker's pipe from ever reaching EOF.
      ::close(to_child[1]);
      ::close(from_child[0]);
      for (const Slot& other : slots) {
        if (other.to_child >= 0) ::close(other.to_child);
        if (other.from_child >= 0) ::close(other.from_child);
      }
      worker_main(to_child[0], from_child[1], w, runner,
                  config_.heartbeat_interval_ms);
    }
    ::close(to_child[0]);
    ::close(from_child[1]);
    set_nonblocking(from_child[0]);
    slot.pid = pid;
    slot.to_child = to_child[1];
    slot.from_child = from_child[0];
    slot.reader = FrameReader{};
    slot.alive = true;
    slot.last_heard = Clock::now();
    slot.has_inflight = false;
    slot.outstanding = 0;
    slot.respawn_pending = false;
    ++stats.pool.forks;
    return true;
  };

  const auto poison = [&](std::uint64_t index) {
    RigOutcome out;
    out.seed = seeds[index];
    out.ok = false;
    out.failure = "quarantined: seed killed " + std::to_string(ledger.kills(index)) +
                  " consecutive workers";
    out.slo.seeds_poisoned = 1;
    out.health.failed = 1;  // the rig itself, as a failed unit in the rollup
    out.fault_template = template_of(index);
    out.attempts = ledger.attempt(index);
    outcomes[index] = std::move(out);
    ++stats.pool.poisoned;
    ++completed;
    if (progress) progress(job_for(index, 0), outcomes[index], completed, total);
  };

  const auto accept_result = [&](unsigned w, std::string_view payload) {
    std::uint64_t index = 0;
    RigOutcome out;
    if (!decode_result(payload, index, out)) return false;
    if (index >= total) return false;
    // Acceptance first: a duplicate or stale result must not free up the
    // slot's accounting (outstanding, inflight) — a worker replaying results
    // could otherwise be fed fresh grants while real ones are in flight.
    // From a live worker that is a protocol violation (the caller kills it);
    // the dead-worker drain in settle_death ignores the verdict.
    if (!ledger.accept(w, index)) return false;
    Slot& slot = slots[w];
    if (slot.has_inflight && slot.inflight == index) slot.has_inflight = false;
    if (slot.outstanding > 0) --slot.outstanding;
    out.seed = seeds[index];
    if (out.resumed_from_seq != 0) ++stats.pool.resumes;
    outcomes[index] = std::move(out);
    ++stats.rigs_per_worker[w];
    ++completed;
    if (progress) progress(job_for(index, w), outcomes[index], completed, total);
    return true;
  };

  // Settles a dead worker: drain the pipe first so results that raced the
  // death are accepted (exactly once, via the ledger), then reap, requeue
  // its unfinished grants and schedule a backoff respawn.
  const auto settle_death = [&](unsigned w, bool allow_respawn) {
    Slot& slot = slots[w];
    if (!slot.alive) return;
    for (;;) {
      char buf[4096];
      const ssize_t n = ::read(slot.from_child, buf, sizeof(buf));
      if (n > 0) {
        slot.reader.feed(buf, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      break;  // EOF, or nothing buffered
    }
    Frame frame;
    while (slot.reader.next(frame)) {
      if (frame.type == FrameType::kResult) {
        (void)accept_result(w, frame.payload);
      } else if (frame.type == FrameType::kStartSeed) {
        // A start that raced the death still moves the seed to InFlight so
        // the kill is charged to it (quarantine attribution).
        std::uint64_t index = 0;
        std::uint32_t attempt = 0;
        if (decode_start_seed(frame.payload, index, attempt)) {
          (void)ledger.start(w, index);
        }
      }
    }
    ::close(slot.from_child);
    ::close(slot.to_child);
    slot.from_child = slot.to_child = -1;
    if (slot.pid > 0) {
      int status = 0;
      ::waitpid(slot.pid, &status, 0);
    }
    slot.pid = -1;
    slot.alive = false;
    slot.has_inflight = false;
    slot.outstanding = 0;
    slot.reader = FrameReader{};
    ++stats.pool.deaths;
    const HandoffLedger::DeathReport report = ledger.on_worker_death(w);
    stats.pool.redispatches += report.requeued.size();
    for (const std::uint64_t index : report.poisoned) poison(index);
    if (allow_respawn && !ledger.settled() && slot.respawns < config_.max_respawns) {
      const std::uint32_t shift = std::min<std::uint32_t>(slot.respawns, 6u);
      slot.respawn_pending = true;
      slot.respawn_at = Clock::now() + std::chrono::milliseconds(100u << shift);
    } else {
      slot.abandoned = true;
    }
  };

  const auto kill_worker = [&](unsigned w) {
    Slot& slot = slots[w];
    if (!slot.alive) return;
    if (slot.pid > 0) ::kill(slot.pid, SIGKILL);
    settle_death(w, /*allow_respawn=*/true);
  };

  // Chaos-kill schedule: SIGKILL a randomly chosen busy worker each time
  // completion crosses a trigger, spacing kills across the run so both the
  // early (cold ladder) and late (warm ladder) re-dispatch paths get hit.
  std::vector<std::uint64_t> chaos_triggers;
  for (std::uint32_t i = 0; i < config_.chaos_kill_workers; ++i) {
    chaos_triggers.push_back((i + 1) * total /
                             (static_cast<std::uint64_t>(config_.chaos_kill_workers) + 2));
  }
  std::size_t chaos_next = 0;
  std::minstd_rand chaos_rng(
      static_cast<std::uint32_t>(total ^ (seeds[0] * 2654435761u) ^ 0x9e3779b9u));

  const auto process_frames = [&](unsigned w) {
    Slot& slot = slots[w];
    Frame frame;
    while (slot.alive && slot.reader.next(frame)) {
      slot.last_heard = Clock::now();
      switch (frame.type) {
        case FrameType::kHello:
        case FrameType::kHeartbeat:
          break;
        case FrameType::kStartSeed: {
          std::uint64_t index = 0;
          std::uint32_t attempt = 0;
          if (!decode_start_seed(frame.payload, index, attempt) ||
              !ledger.start(w, index)) {
            kill_worker(w);  // protocol violation: untrusted stream
            return;
          }
          slot.has_inflight = true;
          slot.inflight = index;
          slot.seed_start = Clock::now();
          break;
        }
        case FrameType::kResult:
          if (!accept_result(w, frame.payload)) {
            kill_worker(w);
            return;
          }
          break;
        default:
          kill_worker(w);
          return;
      }
    }
    if (slot.alive && slot.reader.corrupt()) kill_worker(w);
  };

  // --- Initial fleet ----------------------------------------------------------
  for (unsigned w = 0; w < jobs_; ++w) (void)spawn(w);

  // --- Supervisor event loop --------------------------------------------------
  while (!ledger.settled()) {
    const auto now = Clock::now();

    // Respawns whose backoff has elapsed.
    for (unsigned w = 0; w < jobs_; ++w) {
      Slot& slot = slots[w];
      if (slot.respawn_pending && now >= slot.respawn_at) {
        // Consume the pending flag up front: if spawn() fails it marks the
        // slot abandoned, and an abandoned slot must neither count toward
        // the degrade check nor be retried on every loop pass.
        slot.respawn_pending = false;
        ++slot.respawns;
        if (spawn(w)) ++stats.pool.respawns;
      }
    }

    // Degrade check: with too few usable slots left, stop forking and
    // finish inline rather than wedge.
    unsigned usable = 0;
    for (const Slot& slot : slots) {
      if (slot.alive || slot.respawn_pending) ++usable;
    }
    if (usable < config_.min_workers) {
      degraded = true;
      break;
    }

    // Feed idle workers.
    for (unsigned w = 0; w < jobs_; ++w) {
      Slot& slot = slots[w];
      if (!slot.alive || slot.outstanding != 0) continue;
      const std::vector<std::uint64_t> indices = ledger.claim(w, chunk_);
      if (indices.empty()) continue;
      ++stats.chunks_claimed;
      std::vector<Grant> grants;
      grants.reserve(indices.size());
      for (const std::uint64_t index : indices) {
        grants.push_back(Grant{index, seeds[index], ledger.attempt(index),
                               template_of(index)});
      }
      const std::string frame =
          encode_frame(FrameType::kAssign, encode_assign(grants));
      if (write_all(slot.to_child, frame.data(), frame.size())) {
        slot.outstanding = indices.size();
      }
      // On write failure the child is dying; EOF surfaces via poll and the
      // grants (still charged to w in the ledger) are requeued then.
    }

    // Wait for worker traffic.
    std::vector<pollfd> fds;
    std::vector<unsigned> fd_worker;
    for (unsigned w = 0; w < jobs_; ++w) {
      if (!slots[w].alive) continue;
      fds.push_back(pollfd{slots[w].from_child, POLLIN, 0});
      fd_worker.push_back(w);
    }
    if (fds.empty()) {
      // No live workers; loop back to respawn/degrade logic after a nap.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()), 50);

    for (std::size_t i = 0; i < fds.size(); ++i) {
      const unsigned w = fd_worker[i];
      Slot& slot = slots[w];
      if (!slot.alive) continue;
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      bool eof = false;
      for (;;) {
        char buf[4096];
        const ssize_t n = ::read(slot.from_child, buf, sizeof(buf));
        if (n > 0) {
          slot.reader.feed(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n == 0) eof = true;  // worker died (nothing sends EOF otherwise)
        break;
      }
      process_frames(w);
      if (eof && slot.alive) settle_death(w, /*allow_respawn=*/true);
    }

    // Liveness deadlines.
    const auto after = Clock::now();
    for (unsigned w = 0; w < jobs_; ++w) {
      Slot& slot = slots[w];
      if (!slot.alive) continue;
      if (after - slot.last_heard >
          std::chrono::milliseconds(config_.heartbeat_deadline_ms)) {
        ++stats.pool.heartbeat_kills;
        kill_worker(w);
        continue;
      }
      if (slot.has_inflight &&
          after - slot.seed_start >
              std::chrono::milliseconds(config_.seed_timeout_ms)) {
        ++stats.pool.seed_timeout_kills;
        kill_worker(w);
      }
    }

    // Supervisor-injected chaos.
    while (chaos_next < chaos_triggers.size() &&
           completed >= chaos_triggers[chaos_next]) {
      std::vector<unsigned> busy;
      for (unsigned w = 0; w < jobs_; ++w) {
        if (slots[w].alive && slots[w].has_inflight) busy.push_back(w);
      }
      if (busy.empty()) break;  // retry on a later pass
      const unsigned victim =
          busy[static_cast<std::size_t>(chaos_rng()) % busy.size()];
      ++stats.pool.chaos_kills;
      kill_worker(victim);
      ++chaos_next;
    }
  }

  // --- Degraded teardown ------------------------------------------------------
  // Must run BEFORE the generic shutdown: workers that are still alive hold
  // grants in the ledger, and only settle_death() drains their pipes (raced
  // results) and requeues their unfinished grants via on_worker_death().
  // The shutdown path below reaps without settling — running it first would
  // strand those seeds in kAssigned/kInFlight forever and the inline
  // fallback would return default-constructed outcomes for them.
  if (degraded) {
    for (unsigned w = 0; w < jobs_; ++w) {
      if (slots[w].alive) {
        if (slots[w].pid > 0) ::kill(slots[w].pid, SIGKILL);
        settle_death(w, /*allow_respawn=*/false);
      }
    }
  }

  // --- Shutdown ---------------------------------------------------------------
  const std::string shutdown_frame = encode_frame(FrameType::kShutdown, {});
  for (Slot& slot : slots) {
    if (!slot.alive) continue;
    (void)write_all(slot.to_child, shutdown_frame.data(), shutdown_frame.size());
    ::close(slot.to_child);  // belt and braces: EOF also ends the worker loop
    slot.to_child = -1;
  }
  const auto shutdown_deadline = Clock::now() + std::chrono::seconds(2);
  for (Slot& slot : slots) {
    if (slot.pid <= 0) continue;
    for (;;) {
      int status = 0;
      const pid_t reaped = ::waitpid(slot.pid, &status, WNOHANG);
      if (reaped == slot.pid || (reaped < 0 && errno == ECHILD)) break;
      if (Clock::now() >= shutdown_deadline) {
        ::kill(slot.pid, SIGKILL);
        ::waitpid(slot.pid, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    slot.pid = -1;
    if (slot.from_child >= 0) {
      ::close(slot.from_child);
      slot.from_child = -1;
    }
    if (slot.to_child >= 0) {
      ::close(slot.to_child);
      slot.to_child = -1;
    }
    slot.alive = false;
  }

  // --- Degraded inline fallback ----------------------------------------------
  if (degraded && !ledger.settled()) {
    stats.pool.degraded_to_inline = true;
    while (!ledger.settled()) {
      const std::vector<std::uint64_t> indices = ledger.claim(0, chunk_);
      if (indices.empty()) break;
      ++stats.chunks_claimed;
      for (const std::uint64_t index : indices) {
        (void)ledger.start(0, index);
        const Grant grant{index, seeds[index], ledger.attempt(index),
                          template_of(index)};
        RigOutcome out = execute_grant(grant, 0, runner);
        if (!ledger.accept(0, index)) continue;
        outcomes[index] = std::move(out);
        ++stats.rigs_per_worker[0];
        ++stats.pool.inline_fallback_rigs;
        ++completed;
        if (progress) progress(job_for(index, 0), outcomes[index], completed, total);
      }
    }
  }

  stats.pool.degraded_to_inline = stats.pool.degraded_to_inline || degraded;
  ::sigaction(SIGPIPE, &old_pipe, nullptr);
  return outcomes;
}

}  // namespace umlsoc::fleet
