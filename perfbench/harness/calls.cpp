#include "harness/calls.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "common/rng.hpp"
#include "datasets/generators.hpp"
#include "netflow/pcap.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kClientIpBase = 0x0A000000u;  // 10.0.0.0
/// Stream seconds of the traced run's real-time pass on closed loops.
constexpr TimeNs kPacedSeconds = 5;

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The 5-tuple of instance `index`: the VCA's media relay (server address
/// and well-known port) towards a distinct client address.
netflow::FlowKey instanceKey(const std::string& vca, std::uint32_t index) {
  netflow::FlowKey key;
  if (vca == "meet") {
    key.srcIp = 0x4A7D0001u;
    key.srcPort = 19305;
  } else if (vca == "teams") {
    key.srcIp = 0x34700001u;
    key.srcPort = 3478;
  } else if (vca == "webex") {
    key.srcIp = 0x42A30001u;
    key.srcPort = 9000;
  } else {
    throw std::invalid_argument("perfbench: unknown VCA " + vca);
  }
  key.dstIp = kClientIpBase + index;
  key.dstPort = static_cast<std::uint16_t>(50000 + index % 10000);
  return key;
}

void placeInstance(Inputs& inputs, std::uint32_t call,
                   std::int64_t offsetWindows) {
  // A call that ended before the stream starts is not on the link.
  const auto& trace = inputs.calls[call].packets;
  if (trace.empty() ||
      trace.back().arrivalNs + offsetWindows * kWindowNs < 0) {
    return;
  }
  Instance instance;
  instance.call = call;
  instance.offsetWindows = offsetWindows;
  instance.key = instanceKey(inputs.calls[call].profile.name,
                             static_cast<std::uint32_t>(inputs.instances.size()));
  inputs.instances.push_back(instance);
}

/// Merges every instance's packets before the cut into one arrival-ordered
/// stream (ties broken by instance, then packet index).
void buildStream(Inputs& inputs) {
  struct Entry {
    TimeNs arrivalNs;
    std::uint32_t instance;
    std::uint32_t packet;
  };
  std::vector<Entry> entries;
  for (std::uint32_t i = 0; i < inputs.instances.size(); ++i) {
    auto& instance = inputs.instances[i];
    const auto size =
        static_cast<std::uint32_t>(inputs.calls[instance.call].packets.size());
    while (inputs.packetOf(instance, 0).arrivalNs < 0) ++instance.firstPacket;
    instance.firstArrivalNs = inputs.packetOf(instance, 0).arrivalNs;
    for (std::uint32_t p = 0; instance.firstPacket + p < size; ++p) {
      const TimeNs arrival = inputs.packetOf(instance, p).arrivalNs;
      if (arrival >= inputs.cutNs) break;
      entries.push_back({arrival, i, p});
      instance.lastArrivalNs = arrival;
      ++instance.packets;
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return std::tie(a.arrivalNs, a.instance, a.packet) <
           std::tie(b.arrivalNs, b.instance, b.packet);
  });
  inputs.streamInstance.resize(entries.size());
  inputs.streamPacket.resize(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) {
    inputs.streamInstance[i] = entries[i].instance;
    inputs.streamPacket[i] = entries[i].packet;
    inputs.instances[entries[i].instance].crossings.add(
        entries[i].arrivalNs, kWindowNs, static_cast<std::uint32_t>(i));
  }
  inputs.packets = entries.size();
}

}  // namespace

const char* toString(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kReplay:
      return "replay_calls";
    case WorkloadKind::kLive:
      return "live_calls";
  }
  return "?";
}

std::int64_t Inputs::instanceOf(const netflow::FlowKey& key) const {
  const std::int64_t index =
      static_cast<std::int64_t>(key.dstIp) - kClientIpBase;
  if (index < 0 || index >= static_cast<std::int64_t>(instances.size()) ||
      !(instances[static_cast<std::size_t>(index)].key == key)) {
    return -1;
  }
  return index;
}

void releaseCallPackets(Inputs& inputs) {
  if (inputs.kind == WorkloadKind::kLive) return;
  for (auto& call : inputs.calls) call.packets = {};
}

Inputs makeInputs(WorkloadKind kind, std::uint64_t seed, int seconds) {
  Inputs inputs;
  inputs.kind = kind;
  const std::uint64_t callSeed = splitmix(seed ^ 0x5EEDCA11ULL);
  common::Rng rng(splitmix(callSeed));

  switch (kind) {
    case WorkloadKind::kReplay: {
      datasets::LabDatasetOptions options;
      options.callsPerVca = 268;
      options.minCallSec = 12.0;
      options.maxCallSec = 18.0;
      options.seed = callSeed;
      inputs.calls = datasets::generateLabDataset(options);
      for (std::uint32_t c = 0; c < inputs.calls.size(); ++c) {
        placeInstance(inputs, c, rng.uniformInt(0, 3));
      }
      inputs.pacedCutNs = kPacedSeconds * kWindowNs;
      break;
    }
    case WorkloadKind::kLive: {
      datasets::LabDatasetOptions options;
      options.callsPerVca = 334;
      options.minCallSec = seconds + 3.0;
      options.maxCallSec = seconds + 3.0;
      options.seed = callSeed;
      inputs.calls = datasets::generateLabDataset(options);
      constexpr std::int64_t kPlacements = 3;
      for (std::int64_t offset = 0; offset < kPlacements; ++offset) {
        for (std::uint32_t c = 0; c < inputs.calls.size(); ++c) {
          placeInstance(inputs, c, offset);
        }
      }
      inputs.cutNs = static_cast<TimeNs>(seconds) * kWindowNs;
      inputs.fullLoadNs = kPlacements * kWindowNs;
      inputs.pacedCutNs = inputs.cutNs;
      break;
    }
  }
  buildStream(inputs);

  if (kind == WorkloadKind::kReplay) {
    netflow::PcapWriter writer;
    for (std::size_t i = 0; i < inputs.packets; ++i) {
      const auto source = inputs.sourceAt(i);
      writer.write(source.flow, source.packet);
    }
    inputs.pcap = writer.bytes();
    inputs.streamInstance = {};
    inputs.streamPacket = {};
  }
  return inputs;
}

}  // namespace perfbench
