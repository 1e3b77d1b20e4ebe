// Span recorder for the benchmark's traced runs.
//
// A span is one call into a layer: a name, a start, an end and the span
// that was open on the same thread when it started (its parent). Spans are
// reduced as they close instead of being stored one by one, because the
// verify workload closes millions of them per second: each thread keeps a
// stack of open spans and, per name, the call count, the summed duration,
// the summed self time (duration minus the time covered by its direct
// children) and the summed duration of root spans (spans with no parent).
// Each thread's totals stay in memory until write() puts them in a file.
//
// Forked workers: a child inherits its parent's totals, so the recorder
// clears them in the child right after fork(). A child that leaves through
// _exit must call write() first; the soak binaries wrap _exit for that.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench::spans {

/// Every span name the benchmark records.
enum Name : std::uint16_t {
  kSimRun,
  kXmlSave,
  kXmlRestore,
  kCheckpoint,
  kLadderRestore,
  kEncode,
  kCapture,
  kApply,
  kChainDecode,
  kRecover,
  kStatechartCompile,
  kScratchFs,
  kExplore,
  kDispatch,
  kStatechartCapture,
  kStatechartRestore,
  kXmiRead,
  kXmiWrite,
  kUmlValidate,
  kSocValidate,
  kAslConstraints,
  kMdaTransform,
  kFlatten,
  kRtl,
  kSystemC,
  kSoftware,
  kTables,
  kPlantUml,
  kNameCount
};

/// Nanoseconds on the monotonic clock shared by every process of the host.
[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

/// Opens a span on the calling thread at time `at_ns`.
void open(Name name, std::uint64_t at_ns);
/// Closes the innermost open span of the calling thread at `at_ns`; `arg`
/// is added to the name's argument sum (bytes, events, an ok flag).
void close(std::uint64_t at_ns, std::uint64_t arg = 0);

/// Drops every thread's totals (open spans of the caller stay open).
void reset();

/// Writes every thread's totals to `<directory>/spans-<pid>.tsv`, one line
/// per (thread, name) with calls: `tid name calls total_ns self_ns root_ns
/// arg_sum`. Returns false when the file cannot be written.
bool write(const std::string& directory);

/// RAII span around one call; records nothing when `enabled` is false.
class Scope {
 public:
  explicit Scope(Name name, bool enabled = true) : enabled_(enabled) {
    if (enabled_) open(name, now_ns());
  }
  ~Scope() {
    if (enabled_) close(now_ns(), arg_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void set_arg(std::uint64_t arg) { arg_ = arg; }

 private:
  bool enabled_;
  std::uint64_t arg_ = 0;
};

}  // namespace perfbench::spans
