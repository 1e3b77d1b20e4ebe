#include "calibrate.hpp"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kInterval = std::chrono::milliseconds(20);

std::mutex g_rounds_mutex;
std::vector<std::uint64_t> g_rounds;  // Guarded by g_rounds_mutex.
thread_local Clock::time_point t_last_round{};
thread_local std::uint64_t t_round_seed = 0;
volatile std::uint64_t g_sink = 0;

/// Ordinary C++ work: string keys into a hash map, lookups, a sort.
std::uint64_t reference_round(std::uint64_t seed) {
  std::uint64_t state = seed;
  const auto next = [&state] {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return state >> 17;
  };
  std::unordered_map<std::string, std::uint64_t> table;
  for (std::uint64_t i = 0; i < 256; ++i) table["key-" + std::to_string(next() % 1024)] = i;
  std::uint64_t sum = 0;
  for (std::uint64_t i = 0; i < 256; ++i) {
    const auto found = table.find("key-" + std::to_string(next() % 1024));
    if (found != table.end()) sum += found->second;
  }
  std::vector<std::uint64_t> values(1024);
  for (std::uint64_t& value : values) value = next();
  std::sort(values.begin(), values.end());
  return sum ^ values[values.size() / 2];
}

}  // namespace

std::uint64_t reference_round_ns() {
  const Clock::time_point start = Clock::now();
  g_sink = g_sink ^ reference_round(t_round_seed++);
  t_last_round = Clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t_last_round - start).count());
}

void maybe_calibrate() {
  if (Clock::now() - t_last_round < kInterval) return;
  const std::uint64_t elapsed = reference_round_ns();
  std::lock_guard<std::mutex> lock(g_rounds_mutex);
  g_rounds.push_back(elapsed);
}

bool write_calibration(const std::string& directory) {
  const std::string path = directory + "/cal-" + std::to_string(::getpid()) + ".txt";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(g_rounds_mutex);
  for (const std::uint64_t round : g_rounds) {
    std::fprintf(out, "%llu\n", static_cast<unsigned long long>(round));
  }
  return std::fclose(out) == 0;
}

std::uint64_t median_round_ns() {
  std::lock_guard<std::mutex> lock(g_rounds_mutex);
  if (g_rounds.empty()) return 0;
  std::vector<std::uint64_t> sorted = g_rounds;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
  return sorted[sorted.size() / 2];
}

}  // namespace perfbench
