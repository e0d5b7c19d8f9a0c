#pragma once

// The arithmetic behind the benchmark's latency and accuracy metrics, kept
// free of engine state so tests/selftest.cpp can pin each rule down on
// hand-built inputs.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "harness/modules.hpp"
#include "rxstats/qoe_metrics.hpp"

namespace perfbench {

using TimeNs = std::int64_t;

/// Whether window `w` of a flow whose packets arrived from `firstArrivalNs`
/// to `lastArrivalNs` gets a latency sample: the flow's stream must have
/// crossed the window's end, which is then the window's due point. The
/// estimator emits a late-starting flow's leading windows (which end before
/// its first packet) at admission, and its trailing window only when the
/// flow is finalized (idle eviction or finish()); neither timing is
/// processing, so neither is sampled.
constexpr bool windowSampled(std::int64_t w, TimeNs windowNs,
                             TimeNs firstArrivalNs, TimeNs lastArrivalNs) {
  const TimeNs end = (w + 1) * windowNs;
  return firstArrivalNs < end && end <= lastArrivalNs;
}

/// Closed-loop due points. A closed loop has no schedule: window `w` of a
/// flow is due when the feed hands over the flow's first packet at or past
/// the window's end. `Crossings` records that packet's stream position for
/// every window the flow's stream crossed, which are exactly the windows
/// `windowSampled` admits.
class Crossings {
 public:
  /// Adds the flow's next packet (arrival order), at stream position `pos`.
  void add(TimeNs arrivalNs, TimeNs windowNs, std::uint32_t pos) {
    const std::int64_t w = arrivalNs / windowNs;
    if (!seen_) {
      seen_ = true;
      firstWindow_ = w;
      lastWindow_ = w;
    }
    for (; lastWindow_ < w; ++lastWindow_) positions_.push_back(pos);
  }

  /// Stream position of the packet that crossed window `w`'s end, or -1
  /// when the flow's stream did not cross it.
  std::int64_t at(std::int64_t w) const {
    const std::int64_t i = w - firstWindow_;
    if (!seen_ || i < 0 || i >= static_cast<std::int64_t>(positions_.size())) {
      return -1;
    }
    return positions_[static_cast<std::size_t>(i)];
  }

 private:
  bool seen_ = false;
  std::int64_t firstWindow_ = 0;
  std::int64_t lastWindow_ = 0;
  std::vector<std::uint32_t> positions_;
};

/// Open-loop feed schedule: stream time `s` is due on the wall clock at
/// `wallStartNs + (s - streamStartNs)` (real time).
struct Schedule {
  TimeNs wallStartNs = 0;
  TimeNs streamStartNs = 0;

  TimeNs wallAt(TimeNs streamNs) const {
    return wallStartNs + (streamNs - streamStartNs);
  }
  /// The stream time due at wall time `wallNs`.
  TimeNs streamAt(TimeNs wallNs) const {
    return streamStartNs + (wallNs - wallStartNs);
  }
};

/// Engine window `w` of a call offset by `offsetWindows` whole windows maps
/// to truth second `w - offsetWindows` (one-second windows).
constexpr std::int64_t truthSecondFor(std::int64_t w,
                                      std::int64_t offsetWindows) {
  return w - offsetWindows;
}

/// Per-second ground truth of one call, indexed by second.
class TruthIndex {
 public:
  explicit TruthIndex(const rxstats::QoeTimeline& rows) {
    for (const auto& row : rows) {
      if (row.second < 0) continue;
      const auto s = static_cast<std::size_t>(row.second);
      if (s >= bySecond_.size()) bySecond_.resize(s + 1, nullptr);
      bySecond_[s] = &row;
    }
  }

  /// The truth row for engine window `w` of a call offset by
  /// `offsetWindows`, or null when that second has no valid row (before the
  /// call, after it, or a second without a decoded frame).
  const rxstats::QoeRow* rowFor(std::int64_t w,
                                std::int64_t offsetWindows) const {
    const std::int64_t s = truthSecondFor(w, offsetWindows);
    if (s < 0 || s >= static_cast<std::int64_t>(bySecond_.size())) {
      return nullptr;
    }
    const auto* row = bySecond_[static_cast<std::size_t>(s)];
    return row != nullptr && row->valid ? row : nullptr;
  }

 private:
  std::vector<const rxstats::QoeRow*> bySecond_;
};

/// Latency samples, each tagged with the wall-clock second it was due in.
struct LatencySamples {
  std::vector<double> ms;
  std::vector<std::int64_t> dueSecond;
};

/// One segment of consecutive due-seconds [firstSecond, lastSecond] and
/// the percentile of its samples.
struct Segment {
  double value = 0.0;
  std::int64_t firstSecond = 0;
  std::int64_t lastSecond = 0;
};

/// The `p`-th percentile of each segment of consecutive due-seconds holding
/// at least `minSamples` samples. A short tail joins the last segment; a
/// pass too small for one segment is one segment.
inline std::vector<Segment> segmentPercentiles(const LatencySamples& samples,
                                               double p,
                                               std::size_t minSamples) {
  std::vector<std::size_t> order(samples.ms.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&samples](std::size_t a, std::size_t b) {
                     return samples.dueSecond[a] < samples.dueSecond[b];
                   });
  std::vector<std::vector<double>> segments(1);
  std::vector<Segment> out(1);
  for (std::size_t k = 0; k < order.size(); ++k) {
    const std::size_t i = order[k];
    const bool secondEnds = k + 1 == order.size() ||
                            samples.dueSecond[order[k + 1]] !=
                                samples.dueSecond[i];
    if (segments.back().empty()) out.back().firstSecond = samples.dueSecond[i];
    out.back().lastSecond = samples.dueSecond[i];
    segments.back().push_back(samples.ms[i]);
    if (secondEnds && segments.back().size() >= minSamples) {
      segments.emplace_back();
      out.emplace_back();
    }
  }
  if (segments.back().empty()) {
    segments.pop_back();
    out.pop_back();
  }
  if (segments.size() > 1 && segments.back().size() < minSamples) {
    auto tail = std::move(segments.back());
    segments.pop_back();
    segments.back().insert(segments.back().end(), tail.begin(), tail.end());
    out[out.size() - 2].lastSecond = out.back().lastSecond;
    out.pop_back();
  }
  for (std::size_t j = 0; j < segments.size(); ++j) {
    out[j].value = common::percentile(segments[j], p);
  }
  return out;
}

/// The measurements taken while the hypervisor gave the least CPU time to
/// other guests: `values[i]` is kept when `steal[i]` (its host steal share)
/// is at most the median steal share, so at least half are kept, and all of
/// them when steal was even. Host steal only ever slows a measurement, and
/// on a shared virtual machine it comes in bursts shorter than a run; the
/// choice looks at steal alone, never at the values.
inline std::vector<double> leastStolen(const std::vector<double>& values,
                                       const std::vector<double>& steal) {
  if (values.empty()) return {};
  const double cut = common::percentile(steal, 50.0);
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (steal[i] <= cut) kept.push_back(values[i]);
  }
  return kept;
}

/// One recorded span: [startNs, endNs) on thread `tid`, nested in `parent`
/// (-1 for a root).
struct Span {
  const char* name = "";
  TimeNs startNs = 0;
  TimeNs endNs = 0;
  std::int32_t parent = -1;
  std::uint32_t tid = 0;
};

/// Self time of every span: its duration minus the part of its interval its
/// children cover (overlapping children count once).
inline std::vector<TimeNs> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<TimeNs, TimeNs>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent >= 0) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(
          span.startNs, span.endNs);
    }
  }
  std::vector<TimeNs> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    TimeNs covered = 0;
    TimeNs reach = spans[i].startNs;
    for (auto [start, end] : kids) {
      start = std::max(start, reach);
      end = std::min(end, spans[i].endNs);
      if (end > start) {
        covered += end - start;
        reach = end;
      }
    }
    self[i] = spans[i].endNs - spans[i].startNs - covered;
  }
  return self;
}

}  // namespace perfbench
