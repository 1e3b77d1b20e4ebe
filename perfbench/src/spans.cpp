#include "spans.hpp"

#include <pthread.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <iterator>
#include <cstdio>
#include <mutex>
#include <vector>

namespace perfbench::spans {

namespace {

// Indexed by Name.
constexpr const char* kNames[] = {
    "sim.run",           "replay.xml_save",    "replay.xml_restore",  "replay.checkpoint",
    "replay.ladder_restore", "replay.encode",  "replay.capture",      "replay.apply",
    "replay.chain_decode", "replay.recover",   "statechart.compile",  "soak.scratch_fs",
    "verify.explore",    "statechart.dispatch", "statechart.capture", "statechart.restore",
    "xmi.read",          "xmi.write",          "uml.validate",        "soc.validate",
    "asl.constraints",   "mda.transform",      "statechart.flatten",  "codegen.rtl",
    "codegen.systemc",   "codegen.sw",         "codegen.tables",      "codegen.plantuml"};
static_assert(std::size(kNames) == kNameCount, "one name per span kind");

struct Totals {
  std::uint64_t calls = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
  std::uint64_t root_ns = 0;
  std::uint64_t arg = 0;
};

struct OpenSpan {
  Name name = kNameCount;
  std::uint64_t start_ns = 0;
  std::uint64_t child_ns = 0;  ///< Time covered by closed direct children.
};

struct ThreadState {
  std::uint64_t id = 0;
  std::array<Totals, kNameCount> totals{};
  std::vector<OpenSpan> stack;
};

// Thread states are never freed: a worker thread's totals must outlive the
// thread until write() runs at the end of the process.
std::mutex g_registry_mutex;
std::vector<ThreadState*>* g_registry = new std::vector<ThreadState*>();
std::atomic<std::uint64_t> g_next_id{1};
thread_local ThreadState* t_state = nullptr;

void lock_registry() { g_registry_mutex.lock(); }
void unlock_registry() { g_registry_mutex.unlock(); }
void clear_after_fork() {
  g_registry_mutex.unlock();
  for (ThreadState* state : *g_registry) {
    state->totals = {};
    if (state != t_state) state->stack.clear();
  }
}
const int g_atfork = pthread_atfork(lock_registry, unlock_registry, clear_after_fork);

ThreadState& state() {
  if (t_state == nullptr) {
    auto* fresh = new ThreadState();
    fresh->id = g_next_id.fetch_add(1, std::memory_order_relaxed);
    fresh->stack.reserve(16);
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    g_registry->push_back(fresh);
    t_state = fresh;
  }
  return *t_state;
}

}  // namespace

void open(Name name, std::uint64_t at_ns) {
  state().stack.push_back(OpenSpan{name, at_ns, 0});
}

void close(std::uint64_t at_ns, std::uint64_t arg) {
  ThreadState& self = state();
  if (self.stack.empty()) return;
  const OpenSpan span = self.stack.back();
  self.stack.pop_back();
  const std::uint64_t duration = at_ns > span.start_ns ? at_ns - span.start_ns : 0;
  Totals& totals = self.totals[span.name];
  ++totals.calls;
  totals.total_ns += duration;
  totals.self_ns += duration > span.child_ns ? duration - span.child_ns : 0;
  totals.arg += arg;
  if (self.stack.empty()) {
    totals.root_ns += duration;
  } else {
    self.stack.back().child_ns += duration;
  }
}

void reset() {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (ThreadState* thread : *g_registry) thread->totals = {};
}

bool write(const std::string& directory) {
  (void)g_atfork;
  const std::string path = directory + "/spans-" + std::to_string(::getpid()) + ".tsv";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (const ThreadState* thread : *g_registry) {
    for (std::size_t index = 0; index < kNameCount; ++index) {
      const Totals& totals = thread->totals[index];
      if (totals.calls == 0) continue;
      std::fprintf(out, "%llu\t%s\t%llu\t%llu\t%llu\t%llu\t%llu\n",
                   static_cast<unsigned long long>(thread->id), kNames[index],
                   static_cast<unsigned long long>(totals.calls),
                   static_cast<unsigned long long>(totals.total_ns),
                   static_cast<unsigned long long>(totals.self_ns),
                   static_cast<unsigned long long>(totals.root_ns),
                   static_cast<unsigned long long>(totals.arg));
    }
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench::spans
