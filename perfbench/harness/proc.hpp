#pragma once

// Clocks and /proc readings the benchmark times and sizes the engine with.

#include <cstdint>
#include <optional>

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds.
std::int64_t wallNs();
/// CPU time of the calling thread (CLOCK_THREAD_CPUTIME_ID), nanoseconds.
std::int64_t threadCpuNs();
/// CPU time of the whole process (CLOCK_PROCESS_CPUTIME_ID), nanoseconds.
std::int64_t processCpuNs();

/// Sleeps until CLOCK_MONOTONIC reaches `deadlineNs`.
void sleepUntilNs(std::int64_t deadlineNs);

/// Peak resident set size (VmHWM) of this process in KiB.
std::optional<std::int64_t> peakRssKb();
/// Current resident set size (VmRSS) in KiB.
std::optional<std::int64_t> currentRssKb();
/// Resets the VmHWM mark to the current RSS (writes "5" to
/// /proc/self/clear_refs). False when the kernel refused.
bool resetPeakRss();

/// Host-wide CPU time from the first line of /proc/stat, in clock ticks:
/// all of it, and the part a hypervisor ran something else on our vCPUs
/// ("steal").
struct HostCpu {
  std::int64_t total = 0;
  std::int64_t steal = 0;
};
std::optional<HostCpu> hostCpu();

/// Share of the CPU time between two readings that was stolen; 0 when
/// either reading is missing.
double stealShare(const std::optional<HostCpu>& before,
                  const std::optional<HostCpu>& after);

/// Small stable id of the calling thread (Linux tid).
std::uint32_t threadId();

}  // namespace perfbench
