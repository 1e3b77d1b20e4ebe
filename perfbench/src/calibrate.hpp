// Host-speed reference for the benchmark.
//
// On a shared host a core's speed moves by a factor of up to ~1.8 within
// minutes, as other tenants load the machine, and every timing moves with
// it. The benchmark therefore interleaves short rounds of fixed reference
// work with the work it measures, on the same threads, and reports times
// scaled to a host that runs one round in a nominal time. The round uses no
// repository code, so a change to the program never moves it.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// Runs one reference round and returns its wall time in nanoseconds.
[[nodiscard]] std::uint64_t reference_round_ns();

/// Runs a reference round if at least 20 ms have passed since the calling
/// thread's last one (so rounds cost well under 1 % of the measured work),
/// and records its wall time.
void maybe_calibrate();

/// Writes every recorded round time, one per line in nanoseconds, to
/// `<directory>/cal-<pid>.txt`. Returns false when the file cannot be written.
bool write_calibration(const std::string& directory);

/// Median recorded round time in nanoseconds (0 before any round).
[[nodiscard]] std::uint64_t median_round_ns();

}  // namespace perfbench
