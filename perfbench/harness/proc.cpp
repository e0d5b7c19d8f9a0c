#include "harness/proc.hpp"

#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perfbench {
namespace {

std::int64_t clockNs(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::optional<std::int64_t> statusKb(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len &&
        line[len] == ':') {
      return std::stoll(line.substr(len + 1));
    }
  }
  return std::nullopt;
}

}  // namespace

std::int64_t wallNs() { return clockNs(CLOCK_MONOTONIC); }
std::int64_t threadCpuNs() { return clockNs(CLOCK_THREAD_CPUTIME_ID); }
std::int64_t processCpuNs() { return clockNs(CLOCK_PROCESS_CPUTIME_ID); }

void sleepUntilNs(std::int64_t deadlineNs) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadlineNs / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(deadlineNs % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

std::optional<std::int64_t> peakRssKb() { return statusKb("VmHWM"); }
std::optional<std::int64_t> currentRssKb() { return statusKb("VmRSS"); }

bool resetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool ok = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && ok;
}

std::optional<HostCpu> hostCpu() {
  std::ifstream stat("/proc/stat");
  std::string label;
  if (!(stat >> label) || label != "cpu") return std::nullopt;
  HostCpu cpu;
  std::int64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    cpu.total += field;
    if (i == 7) cpu.steal = field;
  }
  return cpu;
}

double stealShare(const std::optional<HostCpu>& before,
                  const std::optional<HostCpu>& after) {
  if (!before || !after || after->total <= before->total) return 0.0;
  return static_cast<double>(after->steal - before->steal) /
         static_cast<double>(after->total - before->total);
}

std::uint32_t threadId() {
  return static_cast<std::uint32_t>(::syscall(SYS_gettid));
}

}  // namespace perfbench
