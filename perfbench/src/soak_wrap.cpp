// Link-time interposers for the chaos-soak binaries.
//
// The soak binaries link the unmodified examples/uart_soc.cpp against the
// repository's static libraries with `-Wl,--wrap=<symbol>` for each entry
// point below, so a call from one object file to that symbol lands here
// first and reaches the library through `__real_<symbol>`. Calls inside one
// .cpp file and virtual calls cannot be interposed this way.
//
// Both binaries wrap FleetDriver::run_range and _exit:
//   - run_range takes its seed base from PERFBENCH_SEED_BASE (uart_soc
//     hard-codes 1000), runs a reference round (calibrate.hpp) after each
//     seed on the seed's thread, and writes `fleet.json` into PERFBENCH_OUT:
//     its entry and exit times, every seed's wall time, the report
//     fingerprint and the program's own snapshot and pool counters;
//   - _exit, which forked pool workers leave through, writes the worker's
//     peak RSS and reference rounds (and, traced, its spans) before the
//     process ends.
// The traced binary (PERFBENCH_TRACED) also wraps one entry point per
// layer and records a span around each call.
//
// A member function is wrapped by a free function that takes `this` as its
// first parameter; on the Itanium C++ ABI both pass their arguments alike.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/driver.hpp"
#include "fleet/report.hpp"
#include "replay/binary.hpp"
#include "replay/recovery.hpp"
#include "replay/snapshot.hpp"
#include "replay/store.hpp"
#include "sim/kernel.hpp"
#include "statechart/compile.hpp"
#include "calibrate.hpp"
#include "spans.hpp"
#include "usage.hpp"

namespace {

using namespace umlsoc;
using perfbench::peak_rss_kb;

const char* out_directory() {
  const char* directory = std::getenv("PERFBENCH_OUT");
  return directory != nullptr ? directory : ".";
}

std::uint64_t fnv1a(std::string_view text) {
  std::uint64_t hash = 1469598103934665603ULL;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

void write_fleet_record(std::uint64_t entry_ns, std::uint64_t exit_ns,
                        std::uint64_t seed_base, const fleet::FleetDriver& driver,
                        const std::vector<fleet::RigOutcome>& outcomes) {
  const std::string path = std::string(out_directory()) + "/fleet.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return;
  const fleet::FleetReport report = fleet::FleetReport::aggregate(outcomes);
  sim::Kernel::SnapshotStats snapshot;
  std::uint64_t rollup_checkpoints = 0;
  for (const fleet::RigOutcome& outcome : outcomes) {
    snapshot.encodes += outcome.kernel.snapshot.encodes;
    snapshot.sections_dirty += outcome.kernel.snapshot.sections_dirty;
    snapshot.sections_total += outcome.kernel.snapshot.sections_total;
    rollup_checkpoints += outcome.slo.checkpoints_written;
  }
  const fleet::FleetStats& stats = driver.stats();
  std::fprintf(out,
               "{\"entry_ns\": %llu, \"exit_ns\": %llu, \"seed_base\": %llu, "
               "\"jobs\": %u, \"fingerprint\": \"%016llx\", \"encodes\": %llu, "
               "\"sections_dirty\": %llu, \"sections_total\": %llu, "
               "\"rollup_checkpoints\": %llu, \"worker_deaths\": %llu, "
               "\"redispatches\": %llu, \"peak_rss_kb\": %llu, \"seeds\": [",
               static_cast<unsigned long long>(entry_ns),
               static_cast<unsigned long long>(exit_ns),
               static_cast<unsigned long long>(seed_base), stats.jobs,
               static_cast<unsigned long long>(fnv1a(report.fingerprint())),
               static_cast<unsigned long long>(snapshot.encodes),
               static_cast<unsigned long long>(snapshot.sections_dirty),
               static_cast<unsigned long long>(snapshot.sections_total),
               static_cast<unsigned long long>(rollup_checkpoints),
               static_cast<unsigned long long>(stats.pool.deaths),
               static_cast<unsigned long long>(stats.pool.redispatches),
               static_cast<unsigned long long>(peak_rss_kb()));
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    std::fprintf(out, "%s[%llu, %d, %llu]", i == 0 ? "" : ", ",
                 static_cast<unsigned long long>(outcomes[i].seed), outcomes[i].ok ? 1 : 0,
                 static_cast<unsigned long long>(outcomes[i].wall_ns));
  }
  std::fprintf(out, "]}\n");
  std::fclose(out);
}

}  // namespace

// --- Wrapped in both binaries -------------------------------------------------

namespace umlsoc::fleet {
using RunRangeResult = std::vector<RigOutcome>;
RunRangeResult real_run_range(FleetDriver* self, std::uint64_t seed_base,
                              std::uint64_t count, const FleetDriver::RigRunner& runner)
    asm("__real__ZN6umlsoc5fleet11FleetDriver9run_rangeEmmRKSt8functionIFNS0_10RigOutcomeERKNS0_6RigJobEEE");
RunRangeResult wrap_run_range(FleetDriver* self, std::uint64_t seed_base,
                              std::uint64_t count, const FleetDriver::RigRunner& runner)
    asm("__wrap__ZN6umlsoc5fleet11FleetDriver9run_rangeEmmRKSt8functionIFNS0_10RigOutcomeERKNS0_6RigJobEEE");

RunRangeResult wrap_run_range(FleetDriver* self, std::uint64_t seed_base,
                              std::uint64_t count, const FleetDriver::RigRunner& runner) {
  if (const char* base = std::getenv("PERFBENCH_SEED_BASE")) {
    seed_base = std::strtoull(base, nullptr, 10);
  }
  perfbench::spans::reset();
  const std::uint64_t entry_ns = perfbench::spans::now_ns();
  const FleetDriver::RigRunner calibrated = [&runner](const RigJob& job) {
    RigOutcome outcome = runner(job);
    perfbench::maybe_calibrate();
    return outcome;
  };
  RunRangeResult outcomes = real_run_range(self, seed_base, count, calibrated);
  const std::uint64_t exit_ns = perfbench::spans::now_ns();
  write_fleet_record(entry_ns, exit_ns, seed_base, *self, outcomes);
  perfbench::write_calibration(out_directory());
#ifdef PERFBENCH_TRACED
  perfbench::spans::write(out_directory());
#endif
  return outcomes;
}
}  // namespace umlsoc::fleet

extern "C" {
[[noreturn]] void __real__exit(int status);
[[noreturn]] void __wrap__exit(int status);

void __wrap__exit(int status) {
  const std::string path =
      std::string(out_directory()) + "/worker-" + std::to_string(::getpid()) + ".rss";
  if (std::FILE* out = std::fopen(path.c_str(), "w")) {
    std::fprintf(out, "%llu\n", static_cast<unsigned long long>(peak_rss_kb()));
    std::fclose(out);
  }
  perfbench::write_calibration(out_directory());
#ifdef PERFBENCH_TRACED
  perfbench::spans::write(out_directory());
#endif
  __real__exit(status);
}
}

#ifdef PERFBENCH_TRACED

// --- Layer entry points (traced binary only) ----------------------------------

using perfbench::spans::Scope;

namespace umlsoc::sim {
std::uint64_t real_kernel_run(Kernel* self, SimTime end)
    asm("__real__ZN6umlsoc3sim6Kernel3runENS0_7SimTimeE");
std::uint64_t wrap_kernel_run(Kernel* self, SimTime end)
    asm("__wrap__ZN6umlsoc3sim6Kernel3runENS0_7SimTimeE");
std::uint64_t wrap_kernel_run(Kernel* self, SimTime end) {
  Scope span(perfbench::spans::kSimRun);
  const std::uint64_t events = real_kernel_run(self, end);
  span.set_arg(events);
  return events;
}
}  // namespace umlsoc::sim

namespace umlsoc::replay {

bool real_save_snapshot(const SnapshotTargets&, std::string&, support::DiagnosticSink&)
    asm("__real__ZN6umlsoc6replay13save_snapshotERKNS0_15SnapshotTargetsERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_7support14DiagnosticSinkE");
bool wrap_save_snapshot(const SnapshotTargets&, std::string&, support::DiagnosticSink&)
    asm("__wrap__ZN6umlsoc6replay13save_snapshotERKNS0_15SnapshotTargetsERNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEERNS_7support14DiagnosticSinkE");
bool wrap_save_snapshot(const SnapshotTargets& targets, std::string& out,
                        support::DiagnosticSink& sink) {
  Scope span(perfbench::spans::kXmlSave);
  const bool ok = real_save_snapshot(targets, out, sink);
  span.set_arg(ok ? 1 : 0);
  return ok;
}

bool real_restore_snapshot(const SnapshotTargets&, std::string_view, support::DiagnosticSink&)
    asm("__real__ZN6umlsoc6replay16restore_snapshotERKNS0_15SnapshotTargetsESt17basic_string_viewIcSt11char_traitsIcEERNS_7support14DiagnosticSinkE");
bool wrap_restore_snapshot(const SnapshotTargets&, std::string_view, support::DiagnosticSink&)
    asm("__wrap__ZN6umlsoc6replay16restore_snapshotERKNS0_15SnapshotTargetsESt17basic_string_viewIcSt11char_traitsIcEERNS_7support14DiagnosticSinkE");
bool wrap_restore_snapshot(const SnapshotTargets& targets, std::string_view input,
                           support::DiagnosticSink& sink) {
  Scope span(perfbench::spans::kXmlRestore);
  return real_restore_snapshot(targets, input, sink);
}

bool real_checkpoint(CheckpointStore*, const SnapshotTargets&, CheckpointStore::WriteResult&,
                     support::DiagnosticSink&)
    asm("__real__ZN6umlsoc6replay15CheckpointStore10checkpointERKNS0_15SnapshotTargetsERNS1_11WriteResultERNS_7support14DiagnosticSinkE");
bool wrap_checkpoint(CheckpointStore*, const SnapshotTargets&, CheckpointStore::WriteResult&,
                     support::DiagnosticSink&)
    asm("__wrap__ZN6umlsoc6replay15CheckpointStore10checkpointERKNS0_15SnapshotTargetsERNS1_11WriteResultERNS_7support14DiagnosticSinkE");
bool wrap_checkpoint(CheckpointStore* self, const SnapshotTargets& targets,
                     CheckpointStore::WriteResult& out, support::DiagnosticSink& sink) {
  Scope span(perfbench::spans::kCheckpoint);
  const bool ok = real_checkpoint(self, targets, out, sink);
  span.set_arg(ok ? out.bytes : 0);
  return ok;
}

bool real_restore_latest_good(CheckpointStore*, const SnapshotTargets&,
                              support::DiagnosticSink&)
    asm("__real__ZN6umlsoc6replay15CheckpointStore19restore_latest_goodERKNS0_15SnapshotTargetsERNS_7support14DiagnosticSinkE");
bool wrap_restore_latest_good(CheckpointStore*, const SnapshotTargets&,
                              support::DiagnosticSink&)
    asm("__wrap__ZN6umlsoc6replay15CheckpointStore19restore_latest_goodERKNS0_15SnapshotTargetsERNS_7support14DiagnosticSinkE");
bool wrap_restore_latest_good(CheckpointStore* self, const SnapshotTargets& targets,
                              support::DiagnosticSink& sink) {
  Scope span(perfbench::spans::kLadderRestore);
  const std::uint64_t before = self->stats().quarantines;
  const bool ok = real_restore_latest_good(self, targets, sink);
  span.set_arg(self->stats().quarantines - before);
  return ok;
}

bool real_encode(IncrementalEncoder*, const SnapshotTargets&, bool, IncrementalEncoder::Result&,
                 support::DiagnosticSink&)
    asm("__real__ZN6umlsoc6replay18IncrementalEncoder6encodeERKNS0_15SnapshotTargetsEbRNS1_6ResultERNS_7support14DiagnosticSinkE");
bool wrap_encode(IncrementalEncoder*, const SnapshotTargets&, bool, IncrementalEncoder::Result&,
                 support::DiagnosticSink&)
    asm("__wrap__ZN6umlsoc6replay18IncrementalEncoder6encodeERKNS0_15SnapshotTargetsEbRNS1_6ResultERNS_7support14DiagnosticSinkE");
bool wrap_encode(IncrementalEncoder* self, const SnapshotTargets& targets, bool force_full,
                 IncrementalEncoder::Result& out, support::DiagnosticSink& sink) {
  Scope span(perfbench::spans::kEncode);
  return real_encode(self, targets, force_full, out, sink);
}

bool real_capture_image(const SnapshotTargets&, SnapshotImage&, support::DiagnosticSink&)
    asm("__real__ZN6umlsoc6replay13capture_imageERKNS0_15SnapshotTargetsERNS0_13SnapshotImageERNS_7support14DiagnosticSinkE");
bool wrap_capture_image(const SnapshotTargets&, SnapshotImage&, support::DiagnosticSink&)
    asm("__wrap__ZN6umlsoc6replay13capture_imageERKNS0_15SnapshotTargetsERNS0_13SnapshotImageERNS_7support14DiagnosticSinkE");
bool wrap_capture_image(const SnapshotTargets& targets, SnapshotImage& image,
                        support::DiagnosticSink& sink) {
  Scope span(perfbench::spans::kCapture);
  return real_capture_image(targets, image, sink);
}

bool real_apply_image(const SnapshotTargets&, const SnapshotImage&, support::DiagnosticSink&)
    asm("__real__ZN6umlsoc6replay11apply_imageERKNS0_15SnapshotTargetsERKNS0_13SnapshotImageERNS_7support14DiagnosticSinkE");
bool wrap_apply_image(const SnapshotTargets&, const SnapshotImage&, support::DiagnosticSink&)
    asm("__wrap__ZN6umlsoc6replay11apply_imageERKNS0_15SnapshotTargetsERKNS0_13SnapshotImageERNS_7support14DiagnosticSinkE");
bool wrap_apply_image(const SnapshotTargets& targets, const SnapshotImage& image,
                      support::DiagnosticSink& sink) {
  Scope span(perfbench::spans::kApply);
  return real_apply_image(targets, image, sink);
}

bool real_chain(const std::vector<std::string_view>&, SnapshotImage&, support::DiagnosticSink&)
    asm("__real__ZN6umlsoc6replay23image_from_binary_chainERKSt6vectorISt17basic_string_viewIcSt11char_traitsIcEESaIS5_EERNS0_13SnapshotImageERNS_7support14DiagnosticSinkE");
bool wrap_chain(const std::vector<std::string_view>&, SnapshotImage&, support::DiagnosticSink&)
    asm("__wrap__ZN6umlsoc6replay23image_from_binary_chainERKSt6vectorISt17basic_string_viewIcSt11char_traitsIcEESaIS5_EERNS0_13SnapshotImageERNS_7support14DiagnosticSinkE");
bool wrap_chain(const std::vector<std::string_view>& chain, SnapshotImage& image,
                support::DiagnosticSink& sink) {
  Scope span(perfbench::spans::kChainDecode);
  return real_chain(chain, image, sink);
}

bool real_recover(RecoveryCoordinator*, support::DiagnosticSink&)
    asm("__real__ZN6umlsoc6replay19RecoveryCoordinator7recoverERNS_7support14DiagnosticSinkE");
bool wrap_recover(RecoveryCoordinator*, support::DiagnosticSink&)
    asm("__wrap__ZN6umlsoc6replay19RecoveryCoordinator7recoverERNS_7support14DiagnosticSinkE");
bool wrap_recover(RecoveryCoordinator* self, support::DiagnosticSink& sink) {
  Scope span(perfbench::spans::kRecover);
  return real_recover(self, sink);
}

}  // namespace umlsoc::replay

// Rig construction compiles the link statechart once per rig.
namespace umlsoc::statechart {
std::unique_ptr<CompiledMachine> real_compile(const StateMachine&, support::DiagnosticSink&)
    asm("__real__ZN6umlsoc10statechart7compileERKNS0_12StateMachineERNS_7support14DiagnosticSinkE");
std::unique_ptr<CompiledMachine> wrap_compile(const StateMachine&, support::DiagnosticSink&)
    asm("__wrap__ZN6umlsoc10statechart7compileERKNS0_12StateMachineERNS_7support14DiagnosticSinkE");
std::unique_ptr<CompiledMachine> wrap_compile(const StateMachine& machine,
                                              support::DiagnosticSink& sink) {
  Scope span(perfbench::spans::kStatechartCompile);
  return real_compile(machine, sink);
}
}  // namespace umlsoc::statechart

// Each seed creates and removes its scratch directories (ladders, logs).
namespace perfbench::scratch_fs {
using std::filesystem::path;
std::uintmax_t real_remove_all(const path&, std::error_code&)
    asm("__real__ZNSt10filesystem10remove_allERKNS_7__cxx114pathERSt10error_code");
std::uintmax_t wrap_remove_all(const path&, std::error_code&)
    asm("__wrap__ZNSt10filesystem10remove_allERKNS_7__cxx114pathERSt10error_code");
std::uintmax_t wrap_remove_all(const path& target, std::error_code& ec) {
  Scope span(spans::kScratchFs);
  return real_remove_all(target, ec);
}

bool real_create_directories(const path&, std::error_code&)
    asm("__real__ZNSt10filesystem18create_directoriesERKNS_7__cxx114pathERSt10error_code");
bool wrap_create_directories(const path&, std::error_code&)
    asm("__wrap__ZNSt10filesystem18create_directoriesERKNS_7__cxx114pathERSt10error_code");
bool wrap_create_directories(const path& target, std::error_code& ec) {
  Scope span(spans::kScratchFs);
  return real_create_directories(target, ec);
}
}  // namespace perfbench::scratch_fs

#endif  // PERFBENCH_TRACED
