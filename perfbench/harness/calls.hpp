#pragma once

// Workload inputs: simulated Meet/Teams/Webex calls (with their rxstats
// ground truth) placed on one link. Each distinct simulated call may be
// placed several times, each placement ("instance") with its own 5-tuple on
// its VCA's media port and its own whole-window start offset. Everything
// is a pure function of the workload seed.

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "harness/arith.hpp"
#include "ingest/packet_source.hpp"
#include "netflow/packet.hpp"

namespace perfbench {

enum class WorkloadKind { kReplay, kLive };

const char* toString(WorkloadKind kind);

inline constexpr TimeNs kWindowNs = 1'000'000'000;

/// One placement of a simulated call on the link.
struct Instance {
  std::uint32_t call = 0;  ///< index into `Inputs::calls`
  std::int64_t offsetWindows = 0;
  netflow::FlowKey key;
  TimeNs firstArrivalNs = 0;  ///< first packet fed, after the offset
  TimeNs lastArrivalNs = 0;   ///< last packet fed, after the offset
  /// The call's packets fed: [firstPacket, firstPacket + packets). A call
  /// placed before stream time 0 (in progress when the stream starts) loses
  /// its head; the cut ends every call at `Inputs::cutNs`.
  std::uint32_t firstPacket = 0;
  std::uint32_t packets = 0;
  /// Stream position of the packet that crossed each window's end.
  Crossings crossings;
};

struct Inputs {
  WorkloadKind kind = WorkloadKind::kReplay;
  std::vector<core::LabeledSession> calls;
  std::vector<Instance> instances;
  /// The link's packet stream in arrival order, as (instance, packet index
  /// within its call) pairs. Emptied once `pcap` holds it (replay).
  std::vector<std::uint32_t> streamInstance;
  std::vector<std::uint32_t> streamPacket;
  std::uint64_t packets = 0;
  /// Stream time at which feeding stops (live: the run length).
  TimeNs cutNs = std::numeric_limits<TimeNs>::max();
  /// live: stream time from which every instance is on the link. The
  /// open loop samples latency only for windows ending from then on, so
  /// every sampled second carries the full load.
  TimeNs fullLoadNs = 0;
  /// replay: stream time at which the traced run's real-time pass (which
  /// measures the generator's lag) stops feeding.
  TimeNs pacedCutNs = std::numeric_limits<TimeNs>::max();
  /// Replay only: the stream as one classic (nanosecond) pcap.
  std::vector<std::uint8_t> pcap;

  /// The `j`-th packet fed for `instance`, shifted by its offset.
  netflow::Packet packetOf(const Instance& instance, std::uint32_t j) const {
    netflow::Packet packet =
        calls[instance.call].packets[instance.firstPacket + j];
    packet.arrivalNs += instance.offsetWindows * kWindowNs;
    packet.departureNs += instance.offsetWindows * kWindowNs;
    return packet;
  }
  /// Stream position `i` as the 5-tuple and packet fed to the engine.
  ingest::SourcePacket sourceAt(std::size_t i) const {
    const Instance& instance = instances[streamInstance[i]];
    return {instance.key, packetOf(instance, streamPacket[i])};
  }
  /// Instance a 5-tuple belongs to, or -1 for a key no instance uses.
  std::int64_t instanceOf(const netflow::FlowKey& key) const;
};

/// Frees the simulated packets once the reference no longer needs them
/// (the pcap carries the stream); live_calls keeps them, its feed reads
/// them.
void releaseCallPackets(Inputs& inputs);

/// Builds the inputs of a workload.
///  * replay: ~800 lab calls of 12-18 s, one instance each, offsets 0-3
///    windows, written to one pcap.
///  * live: ~1000 lab calls of `seconds` + 3 s, three instances each
///    (offsets 0, 1, 2 windows), cut at `seconds` of stream time; all
///    three are on the link from 3 s on.
/// replay stops the traced run's real-time pass at 5 s of stream time.
Inputs makeInputs(WorkloadKind kind, std::uint64_t seed, int seconds);

}  // namespace perfbench
