#include "features/extractors.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <set>

#include "common/simd.hpp"
#include "common/stats.hpp"
#include "rtp/rtp.hpp"

namespace vcaqoe::features {

namespace {

void appendFive(std::vector<double>& out, const common::FiveNumber& f) {
  out.push_back(f.mean);
  out.push_back(f.stdev);
  out.push_back(f.median);
  out.push_back(f.min);
  out.push_back(f.max);
}

/// Gather scratch for the span-of-Packet entry points: delegating through
/// the columnar kernels keeps one implementation per feature, and the
/// reused thread-local record keeps the batch path allocation-free in
/// steady state (capacity survives clear()). `Slot` separates the two
/// records extractFeatures needs live at once.
template <int Slot>
const WindowColumns& gatherColumns(std::span<const netflow::Packet> packets,
                                   bool captureHeads) {
  thread_local WindowColumns columns;
  columns.assignFrom(packets, captureHeads);
  return columns;
}

/// Appends the 12 flow-level statistics. The widened sizes and the
/// interarrival gaps live in reused thread-local scratch, so the only
/// allocation on this path is growth of `out` itself.
void appendFlowStatistics(std::vector<double>& out,
                          std::span<const common::TimeNs> videoArrivalNs,
                          std::span<const std::uint32_t> videoSizeBytes,
                          common::DurationNs windowNs) {
  const double seconds = common::nsToSeconds(windowNs);
  const std::size_t n = videoSizeBytes.size();

  // Columnar kernels over the contiguous WindowColumns arrays: widen the
  // uint32 sizes once (exact), sum bytes over the widened copy (integer
  // values, so the fixed-association SIMD sum is exact too), and convert
  // the interarrival deltas in one vector pass.
  thread_local std::vector<double> sizes;
  thread_local std::vector<double> iats;
  sizes.resize(n);
  common::simd::u32ToF64(videoSizeBytes.data(), n, sizes.data());
  const double totalBytes = common::simd::sumF64(sizes.data(), n);
  iats.resize(n > 1 ? n - 1 : 0);
  common::simd::iatMillisF64(videoArrivalNs.data(), n, iats.data());

  out.push_back(totalBytes / seconds);
  out.push_back(static_cast<double>(n) / seconds);
  appendFive(out, common::fiveNumber(sizes));
  appendFive(out, common::fiveNumber(iats));
}

/// Number of distinct values. UDP payload sizes are below 65,536, so a
/// reused thread-local 65,536-bit bitmap counts first sightings in one pass;
/// clearing only the words this window touched keeps the cost linear in
/// the window. Any larger value falls back to counting the runs of a
/// sorted copy.
std::size_t distinctCount(std::span<const std::uint32_t> values) {
  constexpr std::uint32_t kBitmapValues = 65536;
  if (std::all_of(values.begin(), values.end(),
                  [](std::uint32_t v) { return v < kBitmapValues; })) {
    thread_local std::array<std::uint64_t, kBitmapValues / 64> seen{};
    std::size_t distinct = 0;
    for (const std::uint32_t v : values) {
      const std::uint64_t bit = std::uint64_t{1} << (v & 63);
      std::uint64_t& word = seen[v >> 6];
      distinct += (word & bit) == 0 ? 1u : 0u;
      word |= bit;
    }
    for (const std::uint32_t v : values) seen[v >> 6] = 0;
    return distinct;
  }
  thread_local std::vector<std::uint32_t> sorted;
  sorted.assign(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  std::size_t distinct = sorted.empty() ? 0 : 1;
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    distinct += sorted[i] != sorted[i - 1] ? 1u : 0u;
  }
  return distinct;
}

/// Appends the two VCA-semantic features.
void appendSemanticFeatures(std::vector<double>& out,
                            std::span<const common::TimeNs> videoArrivalNs,
                            std::span<const std::uint32_t> videoSizeBytes,
                            const ExtractionParams& params) {
  const std::size_t n = videoSizeBytes.size();
  std::size_t burstBoundaries = 0;
  for (std::size_t i = 1; i < n; ++i) {
    if (videoArrivalNs[i] - videoArrivalNs[i - 1] >= params.microburstIatNs) {
      ++burstBoundaries;
    }
  }
  // Microburst count: bursts are separated by gaps >= θ_IAT, so the number
  // of bursts is boundaries + 1 for a non-empty window.
  const double microbursts =
      n == 0 ? 0.0 : static_cast<double>(burstBoundaries + 1);
  out.push_back(static_cast<double>(distinctCount(videoSizeBytes)));
  out.push_back(microbursts);
}

}  // namespace

std::vector<double> flowStatistics(
    std::span<const common::TimeNs> videoArrivalNs,
    std::span<const std::uint32_t> videoSizeBytes,
    common::DurationNs windowNs) {
  std::vector<double> out;
  out.reserve(12);
  appendFlowStatistics(out, videoArrivalNs, videoSizeBytes, windowNs);
  return out;
}

std::vector<double> flowStatistics(std::span<const netflow::Packet> video,
                                   common::DurationNs windowNs) {
  const auto& columns = gatherColumns<0>(video, /*captureHeads=*/false);
  return flowStatistics(columns.arrivalNs, columns.sizeBytes, windowNs);
}

std::vector<double> semanticFeatures(
    std::span<const common::TimeNs> videoArrivalNs,
    std::span<const std::uint32_t> videoSizeBytes,
    const ExtractionParams& params) {
  std::vector<double> out;
  out.reserve(2);
  appendSemanticFeatures(out, videoArrivalNs, videoSizeBytes, params);
  return out;
}

std::vector<double> semanticFeatures(std::span<const netflow::Packet> video,
                                     const ExtractionParams& params) {
  const auto& columns = gatherColumns<0>(video, /*captureHeads=*/false);
  return semanticFeatures(columns.arrivalNs, columns.sizeBytes, params);
}

namespace {

/// Appends the 12 RTP-derived features.
void appendRtpFeatures(std::vector<double>& out, const WindowColumns& window,
                       const ExtractionParams& params) {
  std::set<std::uint32_t> videoTs;
  std::set<std::uint32_t> rtxTs;
  double markerVideo = 0.0;
  double markerRtx = 0.0;

  // Out-of-order detection over the primary video sequence numbers.
  bool haveLastSeq = false;
  std::uint16_t lastSeq = 0;
  double outOfOrder = 0.0;

  // RTP lag: completion time per frame (max arrival among a timestamp's
  // packets), then delay versus the timestamp-implied transmission time.
  std::map<std::uint32_t, common::TimeNs> frameCompletion;

  for (std::size_t i = 0; i < window.size(); ++i) {
    const auto header = rtp::decode(window.headAt(i));
    if (!header) continue;
    if (header->payloadType == params.videoPt) {
      videoTs.insert(header->timestamp);
      if (header->marker) markerVideo += 1.0;
      if (haveLastSeq &&
          rtp::sequenceDistance(lastSeq, header->sequenceNumber) <= 0) {
        outOfOrder += 1.0;
      }
      lastSeq = header->sequenceNumber;
      haveLastSeq = true;
      auto [it, inserted] =
          frameCompletion.try_emplace(header->timestamp, window.arrivalNs[i]);
      if (!inserted) it->second = std::max(it->second, window.arrivalNs[i]);
    } else if (params.rtxPt != 0 && header->payloadType == params.rtxPt) {
      rtxTs.insert(header->timestamp);
      if (header->marker) markerRtx += 1.0;
    }
  }

  std::size_t intersection = 0;
  for (const auto ts : rtxTs) {
    if (videoTs.count(ts) > 0) ++intersection;
  }
  const std::size_t unionCount = videoTs.size() + rtxTs.size() - intersection;

  // Lag series: first frame in the window is the zero-delay reference.
  std::vector<double> lagsMs;
  if (!frameCompletion.empty()) {
    // std::map iterates in timestamp order == capture order within a call.
    const auto& [ts0, t0] = *frameCompletion.begin();
    for (const auto& [ts, t] : frameCompletion) {
      const auto mediaElapsed =
          rtp::timestampDeltaToNs(ts0, ts, rtp::kVideoClockHz);
      lagsMs.push_back(common::nsToMillis((t - t0) - mediaElapsed));
    }
  }

  out.push_back(static_cast<double>(videoTs.size()));
  out.push_back(static_cast<double>(rtxTs.size()));
  out.push_back(static_cast<double>(intersection));
  out.push_back(static_cast<double>(unionCount));
  out.push_back(markerVideo);
  out.push_back(markerRtx);
  out.push_back(outOfOrder);
  appendFive(out, common::fiveNumber(lagsMs));
}

}  // namespace

std::vector<double> rtpFeatures(const WindowColumns& window,
                                const ExtractionParams& params) {
  std::vector<double> out;
  out.reserve(12);
  appendRtpFeatures(out, window, params);
  return out;
}

std::vector<double> rtpFeatures(const Window& window,
                                const ExtractionParams& params) {
  return rtpFeatures(gatherColumns<0>(window.packets, /*captureHeads=*/true),
                     params);
}

std::vector<double> extractFeatures(const WindowColumns& window,
                                    const WindowColumns& video,
                                    common::DurationNs durationNs,
                                    FeatureSet set,
                                    const ExtractionParams& params) {
  // The output row is the one allocation: every part appends into it.
  std::vector<double> out;
  out.reserve(featureCount(set));
  appendFlowStatistics(out, video.arrivalNs, video.sizeBytes, durationNs);
  if (set == FeatureSet::kIpUdp) {
    appendSemanticFeatures(out, video.arrivalNs, video.sizeBytes, params);
  } else {
    appendRtpFeatures(out, window, params);
  }
  return out;
}

std::vector<double> extractFeatures(const Window& window,
                                    std::span<const netflow::Packet> video,
                                    FeatureSet set,
                                    const ExtractionParams& params) {
  static const WindowColumns kNoWindow;
  const auto& videoColumns = gatherColumns<0>(video, /*captureHeads=*/false);
  // The window's full packet set (heads included) is only gathered when the
  // RTP features will actually read it.
  const auto& windowColumns =
      set == FeatureSet::kRtp
          ? gatherColumns<1>(window.packets, /*captureHeads=*/true)
          : kNoWindow;
  return extractFeatures(windowColumns, videoColumns, window.durationNs, set,
                         params);
}

}  // namespace vcaqoe::features
