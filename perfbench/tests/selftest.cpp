// Checks the benchmark's own arithmetic on hand-built inputs: due-time
// latency (open loop) and its per-segment percentiles, closed-loop due
// points, the steal-based choice of measurements, window-to-truth
// alignment, span self time and the peak-RSS reset. Exits non-zero on the first failed check.

#include <sys/mman.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "harness/arith.hpp"
#include "harness/proc.hpp"

namespace {

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

using perfbench::TimeNs;
constexpr TimeNs kSec = 1'000'000'000;
constexpr TimeNs kMs = 1'000'000;

void dueTimeLatency() {
  // Open loop: stream time 0 is due at wall 5 s.
  const perfbench::Schedule schedule{5 * kSec, 0};
  // Window 2 ends at stream 3 s, due at wall 8 s; handed over at 8.040 s,
  // its latency is 40 ms.
  const TimeNs due = schedule.wallAt(3 * kSec);
  CHECK(due == 8 * kSec);
  CHECK(8 * kSec + 40 * kMs - due == 40 * kMs);
  // The due point comes from the schedule, not from when the generator got
  // to the packet: a feed running 30 ms late still counts the 30 ms.
  CHECK(schedule.streamAt(8 * kSec + 30 * kMs) == 3 * kSec + 30 * kMs);
  // A flow whose packets arrived from 3.25 s to 6.5 s: windows 0..2 end
  // before it started (emitted at admission), window 6 ends after it
  // stopped (emitted at finalization); only windows 3..5 are sampled.
  const TimeNs first = 3 * kSec + 250 * kMs;
  const TimeNs last = 6 * kSec + 500 * kMs;
  CHECK(!perfbench::windowSampled(2, kSec, first, last));
  CHECK(perfbench::windowSampled(3, kSec, first, last));
  CHECK(perfbench::windowSampled(5, kSec, first, last));
  CHECK(!perfbench::windowSampled(6, kSec, first, last));
  // A window ending exactly at the last packet was crossed.
  CHECK(perfbench::windowSampled(5, kSec, first, 6 * kSec));
}

void closedLoopDuePoints() {
  // A flow whose packets sit at stream positions 7 (3.25 s), 9 (3.5 s),
  // 12 (4.1 s), 20 (6.0 s) and 31 (6.5 s). Window 3 is due at position 12,
  // the first packet past 4 s; windows 4 and 5 both at position 20, where
  // the stream jumps past 5 s and 6 s at once.
  perfbench::Crossings crossings;
  const std::vector<std::pair<TimeNs, std::uint32_t>> packets = {
      {3 * kSec + 250 * kMs, 7},
      {3 * kSec + 500 * kMs, 9},
      {4 * kSec + 100 * kMs, 12},
      {6 * kSec, 20},
      {6 * kSec + 500 * kMs, 31}};
  for (const auto& [arrival, pos] : packets) crossings.add(arrival, kSec, pos);
  CHECK(crossings.at(2) == -1);  // ends before the flow starts
  CHECK(crossings.at(3) == 12);
  CHECK(crossings.at(4) == 20);
  CHECK(crossings.at(5) == 20);
  CHECK(crossings.at(6) == -1);  // the stream never crossed its end
  // The windows with a due point are the ones windowSampled admits.
  const TimeNs first = packets.front().first;
  const TimeNs last = packets.back().first;
  for (std::int64_t w = 0; w < 9; ++w) {
    CHECK((crossings.at(w) >= 0) ==
          perfbench::windowSampled(w, kSec, first, last));
  }
  // A flow that never left its first window crossed nothing.
  perfbench::Crossings quiet;
  quiet.add(2 * kSec, kSec, 0);
  quiet.add(2 * kSec + 900 * kMs, kSec, 1);
  CHECK(quiet.at(1) == -1 && quiet.at(2) == -1);
  CHECK(perfbench::Crossings{}.at(0) == -1);
}

void latencySegments() {
  // Seconds 0..3 hold 3, 1, 2 and 2 samples; segments of >= 3 samples
  // close at second ends: {0}, {1, 2}, and the short tail {3} joins the
  // last one.
  perfbench::LatencySamples samples;
  const std::vector<std::pair<std::int64_t, double>> data = {
      {0, 1.0},  {0, 2.0},  {0, 3.0},  {1, 10.0},
      {2, 20.0}, {2, 30.0}, {3, 40.0}, {3, 50.0}};
  for (const auto& [second, ms] : data) {
    samples.dueSecond.push_back(second);
    samples.ms.push_back(ms);
  }
  const auto p50 = perfbench::segmentPercentiles(samples, 50.0, 3);
  CHECK(p50.size() == 2);
  if (p50.size() == 2) {
    CHECK(p50[0].value == 2.0);
    CHECK(p50[0].firstSecond == 0 && p50[0].lastSecond == 0);
    CHECK(p50[1].value == 30.0);  // median of 10..50
    CHECK(p50[1].firstSecond == 1 && p50[1].lastSecond == 3);
  }
  // Too few samples for one segment: the whole pass is one.
  const auto all = perfbench::segmentPercentiles(samples, 50.0, 100);
  CHECK(all.size() == 1 && all[0].value == 15.0);
  CHECK(all.size() == 1 && all[0].firstSecond == 0 && all[0].lastSecond == 3);
}

void leastStolenChoice() {
  // Kept: the values measured at or under the median steal share (0.02),
  // whatever the values are.
  const std::vector<double> values = {5.0, 9.0, 4.0, 7.0, 1.0};
  const std::vector<double> steal = {0.00, 0.10, 0.02, 0.30, 0.01};
  const auto kept = perfbench::leastStolen(values, steal);
  CHECK((kept == std::vector<double>{5.0, 4.0, 1.0}));
  // Even steal keeps every value.
  const auto even = perfbench::leastStolen(values, std::vector<double>(5, 0.0));
  CHECK(even == values);
  // Even count: the median steal interpolates, so half or more are kept.
  const auto four = perfbench::leastStolen({1.0, 2.0, 3.0, 4.0},
                                           {0.04, 0.01, 0.03, 0.02});
  CHECK((four == std::vector<double>{2.0, 4.0}));
  CHECK(perfbench::leastStolen({}, {}).empty());
}

void windowToTruthAlignment() {
  // A four-second call whose second 2 decoded no frame.
  vcaqoe::rxstats::QoeTimeline rows(4);
  for (int s = 0; s < 4; ++s) {
    rows[static_cast<std::size_t>(s)].second = s;
    rows[static_cast<std::size_t>(s)].fps = 10.0 + s;
    rows[static_cast<std::size_t>(s)].valid = s != 2;
  }
  const perfbench::TruthIndex truth(rows);
  // Placed 2 windows late: engine windows 0 and 1 precede the call.
  CHECK(perfbench::truthSecondFor(5, 2) == 3);
  CHECK(truth.rowFor(0, 2) == nullptr);
  CHECK(truth.rowFor(1, 2) == nullptr);
  CHECK(truth.rowFor(2, 2) != nullptr && truth.rowFor(2, 2)->fps == 10.0);
  CHECK(truth.rowFor(3, 2) != nullptr && truth.rowFor(3, 2)->fps == 11.0);
  CHECK(truth.rowFor(4, 2) == nullptr);  // invalid second
  CHECK(truth.rowFor(5, 2) != nullptr && truth.rowFor(5, 2)->fps == 13.0);
  CHECK(truth.rowFor(6, 2) == nullptr);  // after the call
  // Unshifted call: window w is second w.
  CHECK(truth.rowFor(1, 0) != nullptr && truth.rowFor(1, 0)->fps == 11.0);
}

void spanSelfTime() {
  using perfbench::Span;
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 1},
      {"a", 10, 30, 0, 1},
      {"b", 40, 70, 0, 1},
      {"b.child", 45, 50, 2, 1},
      {"c", 60, 80, 0, 2},  // overlaps b: the overlap counts once
  };
  const auto self = perfbench::selfTimes(spans);
  CHECK(self[0] == 100 - (20 + 40));  // children cover [10,30) + [40,80)
  CHECK(self[1] == 20);
  CHECK(self[2] == 30 - 5);
  CHECK(self[3] == 5);
  CHECK(self[4] == 20);
}

void peakRssReset() {
  const auto before = perfbench::peakRssKb();
  CHECK(before.has_value());
  constexpr std::size_t kBytes = 64u << 20;
  void* block = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  CHECK(block != MAP_FAILED);
  if (block == MAP_FAILED) return;
  std::memset(block, 1, kBytes);
  const auto high = perfbench::peakRssKb();
  CHECK(high.has_value() && *high >= 60 * 1024);
  munmap(block, kBytes);
  CHECK(perfbench::resetPeakRss());
  const auto after = perfbench::peakRssKb();
  const auto current = perfbench::currentRssKb();
  CHECK(after.has_value() && current.has_value());
  if (high && after && current) {
    // The mark dropped back to (about) the current RSS.
    CHECK(*after <= *high - 48 * 1024);
    CHECK(*after <= *current + 1024);
  }
}

}  // namespace

int main() {
  dueTimeLatency();
  closedLoopDuePoints();
  latencySegments();
  leastStolenChoice();
  windowToTruthAlignment();
  spanSelfTime();
  peakRssReset();
  if (failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}
