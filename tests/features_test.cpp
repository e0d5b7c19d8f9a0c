#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/stats.hpp"
#include "features/extractors.hpp"
#include "features/feature_vector.hpp"
#include "features/windows.hpp"
#include "rtp/rtp.hpp"

namespace vcaqoe::features {
namespace {

netflow::Packet plainPacket(common::TimeNs arrival, std::uint32_t size) {
  netflow::Packet p;
  p.arrivalNs = arrival;
  p.sizeBytes = size;
  return p;
}

netflow::Packet rtpPacket(common::TimeNs arrival, std::uint32_t size,
                          std::uint8_t pt, std::uint32_t ts, bool marker,
                          std::uint16_t seq) {
  netflow::Packet p = plainPacket(arrival, size);
  rtp::RtpHeader h;
  h.payloadType = pt;
  h.timestamp = ts;
  h.marker = marker;
  h.sequenceNumber = seq;
  std::vector<std::uint8_t> head;
  rtp::encode(h, head);
  p.setHead(head);
  return p;
}

// ------------------------------------------------------------- feature set

TEST(FeatureSet, NamesRoundTrip) {
  EXPECT_EQ(toString(FeatureSet::kIpUdp), "ipudp");
  EXPECT_EQ(toString(FeatureSet::kRtp), "rtp");
  EXPECT_EQ(featureSetFromString("ipudp"), FeatureSet::kIpUdp);
  EXPECT_EQ(featureSetFromString("rtp"), FeatureSet::kRtp);
  for (const auto set : {FeatureSet::kIpUdp, FeatureSet::kRtp}) {
    EXPECT_EQ(featureSetFromString(toString(set)), set);
  }
  EXPECT_FALSE(featureSetFromString("").has_value());
  EXPECT_FALSE(featureSetFromString("RTP").has_value());
  EXPECT_FALSE(featureSetFromString("ip_udp").has_value());
}

TEST(FeatureSet, WidthsMatchTheCatalog) {
  EXPECT_EQ(featureCount(FeatureSet::kIpUdp), 14u);
  EXPECT_EQ(featureCount(FeatureSet::kRtp), 24u);
}

// ---------------------------------------------------------------- windows

TEST(Windows, EmptyTraceNoWindows) {
  EXPECT_TRUE(sliceWindows({}, common::kNanosPerSecond).empty());
}

TEST(Windows, SingleWindowContainsAll) {
  netflow::PacketTrace trace = {plainPacket(10, 100),
                                plainPacket(999'999'999, 200)};
  const auto windows = sliceWindows(trace, common::kNanosPerSecond);
  ASSERT_EQ(windows.size(), 1u);
  EXPECT_EQ(windows[0].packets.size(), 2u);
  EXPECT_EQ(windows[0].index, 0);
}

TEST(Windows, SplitsAtBoundaries) {
  netflow::PacketTrace trace = {
      plainPacket(0, 1), plainPacket(common::kNanosPerSecond - 1, 2),
      plainPacket(common::kNanosPerSecond, 3),
      plainPacket(3 * common::kNanosPerSecond + 5, 4)};
  const auto windows = sliceWindows(trace, common::kNanosPerSecond);
  ASSERT_EQ(windows.size(), 4u);
  EXPECT_EQ(windows[0].packets.size(), 2u);
  EXPECT_EQ(windows[1].packets.size(), 1u);
  EXPECT_EQ(windows[2].packets.size(), 0u);  // empty windows kept
  EXPECT_EQ(windows[3].packets.size(), 1u);
}

TEST(Windows, LargerWindowSize) {
  netflow::PacketTrace trace = {
      plainPacket(0, 1), plainPacket(common::kNanosPerSecond, 2),
      plainPacket(2 * common::kNanosPerSecond, 3)};
  const auto windows = sliceWindows(trace, 2 * common::kNanosPerSecond);
  ASSERT_EQ(windows.size(), 2u);
  EXPECT_EQ(windows[0].packets.size(), 2u);
  EXPECT_EQ(windows[1].packets.size(), 1u);
}

TEST(Windows, RejectsUnsortedTrace) {
  netflow::PacketTrace trace = {plainPacket(100, 1), plainPacket(50, 2)};
  EXPECT_THROW(sliceWindows(trace, common::kNanosPerSecond),
               std::invalid_argument);
}

TEST(Windows, RejectsNonPositiveWindow) {
  netflow::PacketTrace trace = {plainPacket(0, 1)};
  EXPECT_THROW(sliceWindows(trace, 0), std::invalid_argument);
}

// ------------------------------------------------------------ feature sets

TEST(FeatureNames, CountsMatchPaper) {
  // Table 1: 12 flow statistics + 2 semantic = 14 for IP/UDP ML.
  EXPECT_EQ(featureCount(FeatureSet::kIpUdp), 14u);
  // Flow statistics + 12 RTP features for RTP ML.
  EXPECT_EQ(featureCount(FeatureSet::kRtp), 24u);
}

TEST(FeatureNames, SharedFlowPrefix) {
  const auto& ipudp = featureNames(FeatureSet::kIpUdp);
  const auto& rtp = featureNames(FeatureSet::kRtp);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_EQ(ipudp[i], rtp[i]);
  EXPECT_EQ(ipudp[12], "# unique sizes");
  EXPECT_EQ(ipudp[13], "# microbursts");
  EXPECT_EQ(rtp[12], "# unique RTPvid TS");
}

// ------------------------------------------------------------- flow stats

TEST(FlowStats, HandComputedValues) {
  std::vector<netflow::Packet> video = {
      plainPacket(common::millisToNs(0.0), 1000),
      plainPacket(common::millisToNs(10.0), 1100),
      plainPacket(common::millisToNs(40.0), 1200),
  };
  const auto f = flowStatistics(video, common::kNanosPerSecond);
  ASSERT_EQ(f.size(), 12u);
  EXPECT_DOUBLE_EQ(f[0], 3300.0);  // bytes per second
  EXPECT_DOUBLE_EQ(f[1], 3.0);     // packets per second
  EXPECT_DOUBLE_EQ(f[2], 1100.0);  // size mean
  EXPECT_DOUBLE_EQ(f[3], 100.0);   // size stdev
  EXPECT_DOUBLE_EQ(f[4], 1100.0);  // size median
  EXPECT_DOUBLE_EQ(f[5], 1000.0);  // size min
  EXPECT_DOUBLE_EQ(f[6], 1200.0);  // size max
  EXPECT_DOUBLE_EQ(f[7], 20.0);    // IAT mean (10, 30)
  EXPECT_DOUBLE_EQ(f[9], 20.0);    // IAT median
  EXPECT_DOUBLE_EQ(f[10], 10.0);   // IAT min
  EXPECT_DOUBLE_EQ(f[11], 30.0);   // IAT max
}

TEST(FlowStats, EmptyWindowAllZero) {
  const auto f = flowStatistics({}, common::kNanosPerSecond);
  for (const double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(FlowStats, NormalizesByWindowDuration) {
  std::vector<netflow::Packet> video = {plainPacket(0, 500),
                                        plainPacket(10, 500)};
  const auto f = flowStatistics(video, 2 * common::kNanosPerSecond);
  EXPECT_DOUBLE_EQ(f[0], 500.0);  // 1000 bytes over 2 s
  EXPECT_DOUBLE_EQ(f[1], 1.0);
}

// -------------------------------------------------------- semantic features

TEST(Semantic, UniqueSizesCounted) {
  std::vector<netflow::Packet> video = {
      plainPacket(0, 1000), plainPacket(10, 1000), plainPacket(20, 1001),
      plainPacket(30, 900)};
  ExtractionParams params;
  const auto s = semanticFeatures(video, params);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_DOUBLE_EQ(s[0], 3.0);
}

TEST(Semantic, UniqueSizesMatchSetCount) {
  // The unique-size feature against a std::set count: empty, one, two
  // (equal and distinct), all-equal, tie-heavy packet sizes (a few
  // MTU-sized values repeated, as a video frame's packets are), the
  // bitmap's edges (0, 63/64 and 127/128 across word boundaries, 65535)
  // with duplicates on both sides of a boundary, and rows holding a size
  // >= 65536, which take the sorted-copy fallback. Cases run back to back
  // on one thread, so a bit left set by one case would undercount the next
  // (the repeats of 1200 and 63/64 check exactly that).
  std::vector<std::vector<std::uint32_t>> cases = {
      {},
      {1200},
      {1200, 1200},
      {1200, 1199},
      std::vector<std::uint32_t>(257, 1188),
      {0, 4294967295u, 0, 4294967295u, 65535, 65536},
      {0},
      {0, 63, 64, 65535},
      {63, 64, 63, 64, 127, 128, 128, 127, 0, 0, 65535, 65535},
      {63, 64, 65536, 63},
      {63, 64},
      {65535, 65534, 65535, 1, 1},
  };
  std::uint32_t state = 7;
  for (const std::size_t n : {3u, 130u, 131u, 1024u}) {
    std::vector<std::uint32_t> tieHeavy;
    std::vector<std::uint32_t> spread;
    for (std::size_t i = 0; i < n; ++i) {
      state = state * 1664525u + 1013904223u;
      tieHeavy.push_back(i % 5 == 4 ? 300 + (state >> 24) : 1188);
      spread.push_back(state >> 8);
    }
    cases.push_back(std::move(tieHeavy));
    cases.push_back(std::move(spread));
  }
  for (std::size_t c = 0; c < cases.size(); ++c) {
    const auto& sizes = cases[c];
    const std::set<std::uint32_t> reference(sizes.begin(), sizes.end());
    const std::vector<common::TimeNs> arrivals(sizes.size(), 0);
    const auto semantic = semanticFeatures(arrivals, sizes, ExtractionParams{});
    EXPECT_EQ(semantic[0], static_cast<double>(reference.size()))
        << "case " << c;
  }
}

TEST(Semantic, MicroburstsSplitOnIatThreshold) {
  ExtractionParams params;
  params.microburstIatNs = common::millisToNs(3.0);
  // Three bursts: gaps of 0.2 ms inside, 30 ms between.
  std::vector<netflow::Packet> video;
  common::TimeNs t = 0;
  for (int burst = 0; burst < 3; ++burst) {
    for (int i = 0; i < 4; ++i) {
      video.push_back(plainPacket(t, 1000));
      t += common::microsToNs(200.0);
    }
    t += common::millisToNs(30.0);
  }
  const auto s = semanticFeatures(video, params);
  EXPECT_DOUBLE_EQ(s[1], 3.0);
}

TEST(Semantic, EmptyWindowZeroBursts) {
  ExtractionParams params;
  const auto s = semanticFeatures({}, params);
  EXPECT_DOUBLE_EQ(s[0], 0.0);
  EXPECT_DOUBLE_EQ(s[1], 0.0);
}

TEST(Semantic, SinglePacketIsOneBurst) {
  ExtractionParams params;
  std::vector<netflow::Packet> video = {plainPacket(0, 1000)};
  EXPECT_DOUBLE_EQ(semanticFeatures(video, params)[1], 1.0);
}

// ------------------------------------------------------------ rtp features

Window windowOver(const netflow::PacketTrace& trace) {
  Window w;
  w.index = 0;
  w.startNs = 0;
  w.durationNs = common::kNanosPerSecond;
  w.packets = trace;
  return w;
}

TEST(RtpFeatures, UniqueTimestampsAndMarkers) {
  ExtractionParams params;
  params.videoPt = 102;
  params.rtxPt = 103;
  netflow::PacketTrace trace = {
      rtpPacket(10, 1000, 102, 3000, false, 1),
      rtpPacket(20, 1000, 102, 3000, true, 2),
      rtpPacket(30, 1000, 102, 6000, true, 3),
      rtpPacket(40, 1000, 103, 3000, false, 1),   // RTX of frame 3000
      rtpPacket(50, 1000, 103, 99999, false, 2),  // RTX keep-alive ts
  };
  const auto f = rtpFeatures(windowOver(trace), params);
  ASSERT_EQ(f.size(), 12u);
  EXPECT_DOUBLE_EQ(f[0], 2.0);  // unique video ts
  EXPECT_DOUBLE_EQ(f[1], 2.0);  // unique rtx ts
  EXPECT_DOUBLE_EQ(f[2], 1.0);  // intersection
  EXPECT_DOUBLE_EQ(f[3], 3.0);  // union
  EXPECT_DOUBLE_EQ(f[4], 2.0);  // video marker sum
  EXPECT_DOUBLE_EQ(f[5], 0.0);  // rtx marker sum
  EXPECT_DOUBLE_EQ(f[6], 0.0);  // out-of-order
}

TEST(RtpFeatures, OutOfOrderSequenceDetected) {
  ExtractionParams params;
  params.videoPt = 102;
  netflow::PacketTrace trace = {
      rtpPacket(10, 1000, 102, 3000, false, 5),
      rtpPacket(20, 1000, 102, 3000, false, 4),  // reordered
      rtpPacket(30, 1000, 102, 3000, true, 6),
      rtpPacket(40, 1000, 102, 6000, true, 6),   // duplicate counts too
  };
  const auto f = rtpFeatures(windowOver(trace), params);
  EXPECT_DOUBLE_EQ(f[6], 2.0);
}

TEST(RtpFeatures, LagStatisticsReflectDelayedFrame) {
  ExtractionParams params;
  params.videoPt = 102;
  // Two frames 1/30 s apart in media time; the second one completes 20 ms
  // late relative to the first.
  const std::uint32_t tsStep = 3000;  // 90 kHz / 30 fps
  netflow::PacketTrace trace = {
      rtpPacket(common::millisToNs(0.0), 1000, 102, 9000, true, 1),
      rtpPacket(common::millisToNs(33.333333) + common::millisToNs(20.0),
                1000, 102, 9000 + tsStep, true, 2),
  };
  const auto f = rtpFeatures(windowOver(trace), params);
  // lag[mean] over {0, ~20 ms} ≈ 10 ms; lag[max] ≈ 20 ms.
  EXPECT_NEAR(f[7], 10.0, 0.1);
  EXPECT_NEAR(f[11], 20.0, 0.1);
  EXPECT_NEAR(f[10], 0.0, 1e-9);  // lag min: the reference frame
}

TEST(RtpFeatures, IgnoresNonRtpPackets) {
  ExtractionParams params;
  params.videoPt = 102;
  netflow::PacketTrace trace = {plainPacket(10, 1200)};  // DTLS-ish, no RTP
  const auto f = rtpFeatures(windowOver(trace), params);
  for (const double v : f) EXPECT_DOUBLE_EQ(v, 0.0);
}

// --------------------------------------------------------------- assembly

TEST(Extract, IpUdpVectorWidthAndContent) {
  ExtractionParams params;
  netflow::PacketTrace trace = {plainPacket(0, 1000), plainPacket(10, 1000)};
  const auto w = windowOver(trace);
  const auto f = extractFeatures(w, trace, FeatureSet::kIpUdp, params);
  EXPECT_EQ(f.size(), featureCount(FeatureSet::kIpUdp));
  EXPECT_DOUBLE_EQ(f[12], 1.0);  // one unique size
}

TEST(Extract, RtpVectorWidth) {
  ExtractionParams params;
  params.videoPt = 102;
  netflow::PacketTrace trace = {rtpPacket(10, 1000, 102, 3000, true, 1)};
  const auto w = windowOver(trace);
  const auto f = extractFeatures(w, trace, FeatureSet::kRtp, params);
  EXPECT_EQ(f.size(), featureCount(FeatureSet::kRtp));
}

// ------------------------------------------------- columnar layout (PR 5)

/// A mixed trace exercising every column: RTP video, RTX, out-of-order
/// sequence numbers, non-RTP payloads, and size/IAT variety.
netflow::PacketTrace mixedTrace() {
  netflow::PacketTrace trace;
  trace.push_back(rtpPacket(1'000'000, 1200, 102, 9000, false, 10));
  trace.push_back(rtpPacket(2'500'000, 1201, 102, 9000, true, 11));
  trace.push_back(rtpPacket(9'000'000, 640, 103, 9000, false, 3));  // RTX
  trace.push_back(plainPacket(12'000'000, 1100));                   // non-RTP
  trace.push_back(rtpPacket(15'000'000, 900, 102, 12000, false, 13));
  trace.push_back(rtpPacket(15'400'000, 905, 102, 12000, true, 12));  // ooo
  trace.push_back(plainPacket(22'000'000, 130));  // audio-sized
  trace.push_back(rtpPacket(40'000'000, 980, 102, 15000, true, 14));
  return trace;
}

TEST(Columnar, AppendMatchesFromPackets) {
  const auto trace = mixedTrace();
  WindowColumns incremental;
  incremental.captureHeads = true;
  for (const auto& pkt : trace) incremental.append(pkt);
  const auto gathered = WindowColumns::fromPackets(trace, true);
  EXPECT_EQ(incremental.arrivalNs, gathered.arrivalNs);
  EXPECT_EQ(incremental.sizeBytes, gathered.sizeBytes);
  EXPECT_EQ(incremental.headLen, gathered.headLen);
  EXPECT_EQ(incremental.headBytes, gathered.headBytes);
}

TEST(Columnar, HeadColumnsOnlyWhenCaptured) {
  const auto trace = mixedTrace();
  const auto noHeads = WindowColumns::fromPackets(trace, false);
  EXPECT_EQ(noHeads.size(), trace.size());
  EXPECT_TRUE(noHeads.headLen.empty());
  EXPECT_TRUE(noHeads.headBytes.empty());
  EXPECT_TRUE(noHeads.headAt(0).empty());

  const auto withHeads = WindowColumns::fromPackets(trace, true);
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto head = withHeads.headAt(i);
    const auto want = trace[i].headBytes();
    ASSERT_EQ(head.size(), want.size());
    EXPECT_TRUE(std::equal(head.begin(), head.end(), want.begin()));
  }
}

TEST(Columnar, ClearKeepsCaptureFlagAndDropsRows) {
  auto columns = WindowColumns::fromPackets(mixedTrace(), true);
  columns.clear();
  EXPECT_TRUE(columns.empty());
  EXPECT_TRUE(columns.captureHeads);
  EXPECT_TRUE(columns.headBytes.empty());
}

TEST(Columnar, FlowStatisticsBitExactVsAoS) {
  const auto trace = mixedTrace();
  const auto columns = WindowColumns::fromPackets(trace, false);
  EXPECT_EQ(flowStatistics(trace, common::kNanosPerSecond),
            flowStatistics(columns.arrivalNs, columns.sizeBytes,
                           common::kNanosPerSecond));
  // Empty and single-row inputs.
  const WindowColumns empty;
  EXPECT_EQ(flowStatistics(netflow::PacketTrace{}, common::kNanosPerSecond),
            flowStatistics(empty.arrivalNs, empty.sizeBytes,
                           common::kNanosPerSecond));
}

TEST(Columnar, SemanticFeaturesBitExactVsAoS) {
  ExtractionParams params;
  const auto trace = mixedTrace();
  const auto columns = WindowColumns::fromPackets(trace, false);
  EXPECT_EQ(semanticFeatures(trace, params),
            semanticFeatures(columns.arrivalNs, columns.sizeBytes, params));
}

TEST(Columnar, RtpFeaturesBitExactVsAoS) {
  ExtractionParams params;
  params.videoPt = 102;
  params.rtxPt = 103;
  const auto trace = mixedTrace();
  const auto columns = WindowColumns::fromPackets(trace, true);
  EXPECT_EQ(rtpFeatures(windowOver(trace), params),
            rtpFeatures(columns, params));
}

TEST(Columnar, ExtractFeaturesBitExactBothSets) {
  ExtractionParams params;
  params.videoPt = 102;
  params.rtxPt = 103;
  const auto trace = mixedTrace();
  const auto w = windowOver(trace);

  // IP/UDP: video = size-classified subset; heads are never consulted, so
  // an empty window record suffices on the columnar side.
  netflow::PacketTrace video;
  for (const auto& pkt : trace) {
    if (pkt.sizeBytes >= 450) video.push_back(pkt);
  }
  const auto videoColumns = WindowColumns::fromPackets(video, false);
  EXPECT_EQ(extractFeatures(w, video, FeatureSet::kIpUdp, params),
            extractFeatures(WindowColumns{}, videoColumns,
                            w.durationNs, FeatureSet::kIpUdp, params));

  // RTP: full window columns with heads.
  const auto windowColumns = WindowColumns::fromPackets(trace, true);
  EXPECT_EQ(extractFeatures(w, video, FeatureSet::kRtp, params),
            extractFeatures(windowColumns, videoColumns, w.durationNs,
                            FeatureSet::kRtp, params));
}

}  // namespace
}  // namespace vcaqoe::features
