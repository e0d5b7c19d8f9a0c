#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/time.hpp"
#include "features/columns.hpp"
#include "features/feature_vector.hpp"
#include "features/windows.hpp"
#include "netflow/packet.hpp"

/// Per-window feature extraction (Table 1).
///
/// * Flow-level statistics (12): bytes/s, packets/s, five statistics of
///   packet sizes, five statistics of inter-arrival times.
/// * VCA-semantic (2): number of unique packet sizes, number of microbursts.
/// * RTP-derived (12): unique RTP timestamps of the video and RTX streams
///   plus their intersection and union, marker-bit sums per stream,
///   out-of-order sequence-number count, and five statistics of the RTP lag.
///
/// The columnar overloads are the computational core: they read each column
/// (arrival times, sizes, head bytes) as a contiguous span and never touch
/// bytes the feature set does not use. The span-of-Packet entry points
/// gather into `WindowColumns` and delegate, so both layouts produce
/// bit-identical vectors by construction.
namespace vcaqoe::features {

struct ExtractionParams {
  /// Microburst threshold θ_IAT: a new burst starts when an inter-arrival
  /// gap reaches this value (§3.2.2).
  common::DurationNs microburstIatNs = common::millisToNs(3.0);
  /// Payload types identifying the video and RTX streams (RTP features
  /// only). rtxPt == 0 means the deployment has no RTX stream.
  std::uint8_t videoPt = 0;
  std::uint8_t rtxPt = 0;
};

/// 12 flow-level statistics over the given (already media-classified) video
/// packet columns. Sizes in bytes, IATs in milliseconds, volumes per second.
std::vector<double> flowStatistics(
    std::span<const common::TimeNs> videoArrivalNs,
    std::span<const std::uint32_t> videoSizeBytes,
    common::DurationNs windowNs);

/// AoS counterpart; gathers columns and delegates.
std::vector<double> flowStatistics(std::span<const netflow::Packet> video,
                                   common::DurationNs windowNs);

/// The two VCA-semantic features over classified video packet columns.
std::vector<double> semanticFeatures(
    std::span<const common::TimeNs> videoArrivalNs,
    std::span<const std::uint32_t> videoSizeBytes,
    const ExtractionParams& params);

/// AoS counterpart; gathers columns and delegates.
std::vector<double> semanticFeatures(std::span<const netflow::Packet> video,
                                     const ExtractionParams& params);

/// The 12 RTP-derived features over a whole window's columns (all packets,
/// heads captured; streams are separated by payload type internally).
std::vector<double> rtpFeatures(const WindowColumns& window,
                                const ExtractionParams& params);

/// AoS counterpart; gathers columns (with heads) and delegates.
std::vector<double> rtpFeatures(const Window& window,
                                const ExtractionParams& params);

/// Assembles the full feature vector for a set from columnar inputs:
///  kIpUdp: flowStatistics(video) + semanticFeatures(video)        (14)
///  kRtp:   flowStatistics(video) + rtpFeatures(window)            (24)
/// `video` must hold the window's video-classified packet columns. `window`
/// (all packets, heads captured) is consulted only for kRtp — the IP/UDP
/// path may pass an empty record and no payload byte is ever read. On the
/// IP/UDP path the returned row is the only allocation: every statistic's
/// scratch (widened sizes, gaps, the median's selection copy, the sorted
/// sizes) is reused thread-local storage.
std::vector<double> extractFeatures(const WindowColumns& window,
                                    const WindowColumns& video,
                                    common::DurationNs durationNs,
                                    FeatureSet set,
                                    const ExtractionParams& params);

/// AoS entry point: `video` must hold the window's video-classified packets
/// (threshold-based for IP/UDP, payload-type-based for RTP). Gathers the
/// columns the set needs and delegates to the columnar core.
std::vector<double> extractFeatures(const Window& window,
                                    std::span<const netflow::Packet> video,
                                    FeatureSet set,
                                    const ExtractionParams& params);

}  // namespace vcaqoe::features
