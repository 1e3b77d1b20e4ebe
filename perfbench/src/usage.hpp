// Process resource usage for the benchmark binaries.
//
// User CPU time is the benchmark's throughput clock: it leaves out the time
// the host takes the CPU away (steal) and the kernel's file-system time,
// both of which swing several-fold between identical runs on a shared host.
#pragma once

#include <sys/resource.h>

#include <cstdint>

namespace perfbench {

struct CpuTimes {
  double user_s = 0;
  double sys_s = 0;
};

[[nodiscard]] inline CpuTimes cpu_times() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return CpuTimes{static_cast<double>(usage.ru_utime.tv_sec) + usage.ru_utime.tv_usec * 1e-6,
                  static_cast<double>(usage.ru_stime.tv_sec) + usage.ru_stime.tv_usec * 1e-6};
}

[[nodiscard]] inline std::uint64_t peak_rss_kb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<std::uint64_t>(usage.ru_maxrss);
}

}  // namespace perfbench
