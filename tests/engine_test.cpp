#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "core/streaming.hpp"
#include "engine/flow_table.hpp"
#include "engine/multi_flow_engine.hpp"
#include "engine/spsc_ring.hpp"
#include "engine/synthetic.hpp"
#include "inference/backends.hpp"
#include "inference/model_registry.hpp"
#include "netflow/packet.hpp"

namespace vcaqoe::engine {
namespace {

netflow::FlowKey makeKey(std::uint32_t i) { return syntheticFlowKey(i); }

struct Interleaved {
  std::vector<netflow::FlowKey> keys;            // per flow
  std::vector<netflow::PacketTrace> perFlow;     // per flow, arrival order
  std::vector<std::pair<std::uint32_t, netflow::Packet>> stream;  // merged
};

Interleaved makeInterleaved(int flows, int packetsPerFlow,
                            std::uint64_t seed = 7,
                            common::TimeNs startStepNs = 37'000) {
  Interleaved in;
  for (int f = 0; f < flows; ++f) {
    in.keys.push_back(makeKey(static_cast<std::uint32_t>(f)));
    in.perFlow.push_back(
        syntheticFlowTrace(seed + static_cast<std::uint64_t>(f),
                           packetsPerFlow, /*startNs=*/f * startStepNs));
  }
  for (int f = 0; f < flows; ++f) {
    for (const auto& packet : in.perFlow[static_cast<std::size_t>(f)]) {
      in.stream.emplace_back(static_cast<std::uint32_t>(f), packet);
    }
  }
  std::stable_sort(in.stream.begin(), in.stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });
  return in;
}

/// Ground truth: each flow through its own standalone streaming estimator.
std::vector<std::vector<core::StreamingOutput>> sequentialReference(
    const Interleaved& in, const core::StreamingOptions& options) {
  std::vector<std::vector<core::StreamingOutput>> outputs(in.perFlow.size());
  for (std::size_t f = 0; f < in.perFlow.size(); ++f) {
    core::StreamingIpUdpEstimator estimator(
        options,
        [&outputs, f](const core::StreamingOutput& out) {
          outputs[f].push_back(out);
        });
    for (const auto& packet : in.perFlow[f]) estimator.onPacket(packet);
    estimator.finish();
  }
  return outputs;
}

void expectSameOutput(const core::StreamingOutput& got,
                      const core::StreamingOutput& want) {
  EXPECT_EQ(got.window, want.window);
  EXPECT_EQ(got.features, want.features);  // bit-identical doubles
  EXPECT_EQ(got.heuristic.window, want.heuristic.window);
  EXPECT_EQ(got.heuristic.bitrateKbps, want.heuristic.bitrateKbps);
  EXPECT_EQ(got.heuristic.fps, want.heuristic.fps);
  EXPECT_EQ(got.heuristic.frameJitterMs, want.heuristic.frameJitterMs);
  EXPECT_EQ(got.heuristic.frameCount, want.heuristic.frameCount);
  EXPECT_TRUE(got.predictions == want.predictions);  // bit-identical doubles
}

TEST(FlowTable, InternAssignsDenseIdsInFirstSeenOrder) {
  FlowTable table;
  const auto a = makeKey(1);
  const auto b = makeKey(2);
  const auto c = makeKey(3);
  EXPECT_EQ(table.intern(a), 0u);
  EXPECT_EQ(table.intern(b), 1u);
  EXPECT_EQ(table.intern(a), 0u);  // stable on re-sight
  EXPECT_EQ(table.intern(c), 2u);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.keyOf(1), b);
  EXPECT_EQ(table.find(c), std::optional<FlowId>(2u));
  EXPECT_FALSE(table.find(makeKey(99)).has_value());
}

TEST(FlowTable, DistinguishesEveryTupleField) {
  FlowTable table;
  netflow::FlowKey base = makeKey(5);
  table.intern(base);
  for (auto mutate : {0, 1, 2, 3}) {
    netflow::FlowKey other = base;
    if (mutate == 0) other.srcIp ^= 1;
    if (mutate == 1) other.dstIp ^= 1;
    if (mutate == 2) other.srcPort ^= 1;
    if (mutate == 3) other.dstPort ^= 1;
    EXPECT_NE(table.intern(other), 0u);
  }
  EXPECT_EQ(table.size(), 5u);
}

TEST(SpscRing, PushPopPreservesFifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.tryPush(i));
  EXPECT_FALSE(ring.tryPush(99));  // full
  for (int i = 0; i < 8; ++i) {
    auto v = ring.tryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.tryPop().has_value());  // empty
}

TEST(SpscRing, WrapsAroundManyTimes) {
  SpscRing<int> ring(4);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(ring.tryPush(i));
    auto v = ring.tryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
}

/// Capacity edges: 0 and 1 clamp to the minimum of 2, non-powers round up,
/// and a capacity with no power-of-two above it throws instead of spinning
/// the old round-up loop forever (or silently wrapping to 0 slots).
TEST(SpscRing, CapacityEdgesClampRoundAndReject) {
  EXPECT_EQ(SpscRing<int>(0).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscRing<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscRing<int>(8).capacity(), 8u);
  EXPECT_EQ(SpscRing<int>(1000).capacity(), 1024u);
  EXPECT_THROW(SpscRing<int>(SpscRing<int>::kMaxCapacity + 1),
               std::length_error);
  EXPECT_THROW(SpscRing<int>(std::numeric_limits<std::size_t>::max()),
               std::length_error);
}

TEST(SpscRing, MinimumCapacityRingStillMovesData) {
  SpscRing<int> ring(0);  // clamps to 2 usable slots
  ASSERT_TRUE(ring.tryPush(1));
  ASSERT_TRUE(ring.tryPush(2));
  EXPECT_FALSE(ring.tryPush(3));  // full at the clamped capacity
  EXPECT_EQ(ring.tryPop(), std::optional<int>(1));
  EXPECT_EQ(ring.tryPop(), std::optional<int>(2));
  EXPECT_FALSE(ring.tryPop().has_value());
}

/// Worker count x pinning: pinning is a placement hint and must never
/// change output.
class EngineDeterminism
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

/// The tentpole property: sharded output must equal the sequential
/// per-flow streaming estimator, window for window, bit for bit, for any
/// worker count — pinned or not (on platforms without affinity support
/// pinWorkers is an accepted no-op, so the matrix still runs everywhere).
TEST_P(EngineDeterminism, ShardedEqualsSequential) {
  const int workers = std::get<0>(GetParam());
  const bool pinned = std::get<1>(GetParam());
  const int flows = 13;  // coprime with worker counts: shards get uneven load
  const auto in = makeInterleaved(flows, 900);

  core::StreamingOptions streaming;
  const auto want = sequentialReference(in, streaming);

  EngineOptions options;
  options.streaming = streaming;
  options.numWorkers = workers;
  options.dispatchBatch = 64;
  options.pinWorkers = pinned;
  MultiFlowEngine engine(options);
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  const auto got = engine.finish();

  ASSERT_EQ(engine.flows().size(), static_cast<std::size_t>(flows));
  // Engine ids are first-seen dense (arrival order of first packets), which
  // need not match our key index; map key index -> engine id explicitly.
  std::vector<FlowId> idOfKey(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    const auto id = engine.flows().find(in.keys[static_cast<std::size_t>(f)]);
    ASSERT_TRUE(id.has_value());
    idOfKey[static_cast<std::size_t>(f)] = *id;
  }

  std::vector<std::vector<core::StreamingOutput>> byFlow(
      static_cast<std::size_t>(flows));
  std::size_t previousFlow = 0;
  std::int64_t previousWindow = -1;
  for (const auto& result : got) {
    // finish() merges ordered by (flow, window).
    if (result.flow != previousFlow) {
      EXPECT_GT(result.flow, previousFlow);
      previousWindow = -1;
    }
    EXPECT_GT(result.output.window, previousWindow);
    previousFlow = result.flow;
    previousWindow = result.output.window;
    byFlow[result.flow].push_back(result.output);
  }

  for (int f = 0; f < flows; ++f) {
    const auto& gotFlow = byFlow[idOfKey[static_cast<std::size_t>(f)]];
    const auto& wantFlow = want[static_cast<std::size_t>(f)];
    ASSERT_EQ(gotFlow.size(), wantFlow.size()) << "flow " << f;
    for (std::size_t w = 0; w < wantFlow.size(); ++w) {
      expectSameOutput(gotFlow[w], wantFlow[w]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(WorkerCounts, EngineDeterminism,
                         ::testing::Combine(::testing::Values(1, 2, 4, 7, 8),
                                            ::testing::Bool()));

/// Mixed feature sets in one engine: odd flows resolve kRtp at admission
/// (RTP-headed traffic, payload-type classification, 24-wide features),
/// even flows stay kIpUdp. Output must be bit-identical across worker
/// counts and with cross-flow batching on — the batcher may never mix 14-
/// and 24-wide rows in one backend call, and the per-set window counters
/// must agree with the resolver split on every configuration.
TEST(EngineDeterminismMixedSets, WorkersAndBatchingBitExact) {
  const int flows = 9;
  const int packetsPerFlow = 700;
  Interleaved in;
  for (int f = 0; f < flows; ++f) {
    in.keys.push_back(makeKey(static_cast<std::uint32_t>(f)));
    const auto seed = 400 + static_cast<std::uint64_t>(f);
    in.perFlow.push_back(
        f % 2 == 1
            ? syntheticRtpFlowTrace(seed, packetsPerFlow, f * 37'000)
            : syntheticFlowTrace(seed, packetsPerFlow, f * 37'000));
  }
  for (int f = 0; f < flows; ++f) {
    for (const auto& packet : in.perFlow[static_cast<std::size_t>(f)]) {
      in.stream.emplace_back(static_cast<std::uint32_t>(f), packet);
    }
  }
  std::stable_sort(in.stream.begin(), in.stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });

  // Synthetic keys are 10.0.0.0/8 + index, so key parity == flow parity.
  const auto setOf = [](const netflow::FlowKey& key) {
    return (key.srcIp & 1u) != 0 ? features::FeatureSet::kRtp
                                 : features::FeatureSet::kIpUdp;
  };

  // One registry serving both widths for the same (vca, target).
  auto registry = std::make_shared<inference::ModelRegistry>();
  registry->registerBackend(
      "teams", inference::QoeTarget::kFrameRate,
      std::make_shared<inference::ForestBackend>(
          syntheticForest(6, 5, 30.0, 14), inference::QoeTarget::kFrameRate,
          "forest:teams/ipudp/frame_rate", 14));
  registry->registerBackend(
      "teams", inference::QoeTarget::kFrameRate,
      std::make_shared<inference::ForestBackend>(
          syntheticForest(6, 5, 24.0, 24), inference::QoeTarget::kFrameRate,
          "forest:teams/rtp/frame_rate", 24),
      features::FeatureSet::kRtp);

  core::StreamingOptions streaming;
  streaming.extraction.videoPt = kSyntheticVideoPt;
  streaming.extraction.rtxPt = kSyntheticRtxPt;

  struct Run {
    std::vector<std::vector<core::StreamingOutput>> byKey;
    EngineStats stats;
  };
  const auto run = [&](int workers, std::size_t batch) {
    EngineOptions options;
    options.streaming = streaming;
    options.numWorkers = workers;
    options.dispatchBatch = 64;
    options.registry = registry;
    options.targets = {inference::QoeTarget::kFrameRate};
    options.featureSetResolver = setOf;
    options.inferenceBatch = batch;
    options.inferenceFlushNs = scaledInferenceFlushNs(batch);
    MultiFlowEngine engine(options);
    for (const auto& [flow, packet] : in.stream) {
      engine.onPacket(in.keys[flow], packet);
    }
    const auto got = engine.finish();
    Run result;
    result.byKey.resize(static_cast<std::size_t>(flows));
    std::vector<std::vector<core::StreamingOutput>> byId(
        engine.flows().size());
    for (const auto& r : got) byId[r.flow].push_back(r.output);
    for (int f = 0; f < flows; ++f) {
      const auto id =
          engine.flows().find(in.keys[static_cast<std::size_t>(f)]);
      EXPECT_TRUE(id.has_value()) << "flow " << f;
      if (id.has_value()) {
        result.byKey[static_cast<std::size_t>(f)] = std::move(byId[*id]);
      }
    }
    result.stats = engine.stats();
    return result;
  };

  const auto baseline = run(1, 1);

  // Shape of the baseline: both families present, widths per resolver, a
  // frame-rate prediction on every window, counters matching the split.
  std::uint64_t wantIpUdp = 0;
  std::uint64_t wantRtp = 0;
  for (int f = 0; f < flows; ++f) {
    const auto& outputs = baseline.byKey[static_cast<std::size_t>(f)];
    ASSERT_FALSE(outputs.empty()) << "flow " << f;
    const std::size_t width = f % 2 == 1 ? 24u : 14u;
    for (const auto& out : outputs) {
      ASSERT_EQ(out.features.size(), width) << "flow " << f;
      EXPECT_TRUE(out.predictions.has(inference::QoeTarget::kFrameRate))
          << "flow " << f << " window " << out.window;
    }
    (f % 2 == 1 ? wantRtp : wantIpUdp) +=
        static_cast<std::uint64_t>(outputs.size());
  }
  EXPECT_GT(wantIpUdp, 0u);
  EXPECT_GT(wantRtp, 0u);
  EXPECT_EQ(baseline.stats.windowsIpUdp, wantIpUdp);
  EXPECT_EQ(baseline.stats.windowsRtp, wantRtp);

  for (const int workers : {1, 4}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{8}}) {
      if (workers == 1 && batch == 1) continue;
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " batch=" + std::to_string(batch));
      const auto got = run(workers, batch);
      EXPECT_EQ(got.stats.windowsIpUdp, wantIpUdp);
      EXPECT_EQ(got.stats.windowsRtp, wantRtp);
      if (batch > 1) {
        EXPECT_GT(got.stats.inferenceBatches, 0u);
      }
      for (int f = 0; f < flows; ++f) {
        const auto& gotFlow = got.byKey[static_cast<std::size_t>(f)];
        const auto& wantFlow = baseline.byKey[static_cast<std::size_t>(f)];
        ASSERT_EQ(gotFlow.size(), wantFlow.size()) << "flow " << f;
        for (std::size_t w = 0; w < wantFlow.size(); ++w) {
          expectSameOutput(gotFlow[w], wantFlow[w]);
        }
      }
    }
  }
}

TEST(MultiFlowEngine, PollPreservesPerFlowOrder) {
  const auto in = makeInterleaved(5, 600);
  EngineOptions options;
  options.numWorkers = 3;
  options.dispatchBatch = 32;
  options.resultRingCapacity = 16;  // tiny ring: forces mid-run draining
  MultiFlowEngine engine(options);

  std::vector<EngineResult> polled;
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
    engine.poll(polled);
  }
  auto rest = engine.finish();
  polled.insert(polled.end(), rest.begin(), rest.end());

  // Map engine flow ids back to our key indices.
  std::vector<std::size_t> keyIndexOfId(in.keys.size());
  for (std::size_t f = 0; f < in.keys.size(); ++f) {
    const auto id = engine.flows().find(in.keys[f]);
    ASSERT_TRUE(id.has_value());
    keyIndexOfId[*id] = f;
  }

  const auto want = sequentialReference(in, options.streaming);
  std::map<FlowId, std::size_t> cursor;
  for (const auto& result : polled) {
    const auto f = keyIndexOfId[result.flow];
    const auto index = cursor[result.flow]++;
    ASSERT_LT(index, want[f].size());
    // Windows per flow must come out in emission order even when drained
    // through a ring that overflowed many times.
    expectSameOutput(result.output, want[f][index]);
  }
  std::size_t verified = 0;
  for (const auto& [id, count] : cursor) verified += count;
  std::size_t expected = 0;
  for (const auto& flow : want) expected += flow.size();
  EXPECT_EQ(verified, expected);
}

TEST(MultiFlowEngine, TinyBatchAndManyFlowsStillDeterministic) {
  const auto in = makeInterleaved(31, 120);
  const auto want = sequentialReference(in, {});
  EngineOptions options;
  options.numWorkers = 4;
  options.dispatchBatch = 1;  // worst-case dispatch granularity
  MultiFlowEngine engine(options);
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  const auto got = engine.finish();
  std::size_t total = 0;
  for (const auto& flow : want) total += flow.size();
  ASSERT_EQ(got.size(), total);
}

TEST(MultiFlowEngine, FinishIsIdempotentAndRejectsLatePackets) {
  const auto in = makeInterleaved(2, 200);
  MultiFlowEngine engine(EngineOptions{});
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  const auto first = engine.finish();
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(engine.finish().empty());
  netflow::Packet packet;
  packet.arrivalNs = 1;
  packet.sizeBytes = 1000;
  EXPECT_THROW(engine.onPacket(in.keys[0], packet), std::logic_error);
}

TEST(MultiFlowEngine, WorkerErrorSurfacesAtFinish) {
  MultiFlowEngine engine(EngineOptions{});
  const auto key = makeKey(0);
  netflow::Packet packet;
  packet.sizeBytes = 1000;
  packet.arrivalNs = common::kNanosPerSecond;
  engine.onPacket(key, packet);
  packet.arrivalNs = 0;  // out of order within the flow
  engine.onPacket(key, packet);
  EXPECT_THROW(engine.finish(), std::runtime_error);
}

TEST(FlowTable, EraseRetiresIdAndReinternsAsFreshGeneration) {
  FlowTable table;
  const auto key = makeKey(1);
  EXPECT_EQ(table.intern(key), 0u);
  table.erase(0);
  EXPECT_FALSE(table.find(key).has_value());
  EXPECT_EQ(table.activeSize(), 0u);
  EXPECT_EQ(table.size(), 1u);  // retired ids stay counted
  EXPECT_EQ(table.keyOf(0), key);

  // The returning flow gets a fresh id — the retired one is never reused,
  // so shard state keyed by id 0 can never alias the new generation.
  EXPECT_EQ(table.intern(key), 1u);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.activeSize(), 1u);

  // Erasing the stale generation must not disturb the live one.
  table.erase(0);
  EXPECT_EQ(table.find(key), std::optional<FlowId>(1u));
}

/// Builds a hand-timed flow: `packets` packets of 1000 bytes every 10 ms
/// starting at `startNs`.
netflow::PacketTrace steadyTrace(common::TimeNs startNs, int packets) {
  netflow::PacketTrace trace;
  for (int i = 0; i < packets; ++i) {
    netflow::Packet p;
    p.arrivalNs = startNs + static_cast<common::TimeNs>(i) * 10'000'000LL;
    p.sizeBytes = 1000;
    trace.push_back(p);
  }
  return trace;
}

TEST(MultiFlowEngine, IdleFlowIsEvictedFinalizedAndReinternedFresh) {
  EngineOptions options;
  options.numWorkers = 2;
  options.dispatchBatch = 1;  // dispatch (and evict) without buffering delay
  options.idleTimeoutNs = 3 * common::kNanosPerSecond;
  MultiFlowEngine engine(options);

  const auto keyA = makeKey(1);
  const auto keyB = makeKey(2);

  // Flow A: 2 seconds of traffic, then silence.
  const auto burstA = steadyTrace(0, 200);
  for (const auto& p : burstA) engine.onPacket(keyA, p);
  // Flow B keeps the clock advancing well past A's idle timeout.
  for (const auto& p : steadyTrace(2 * common::kNanosPerSecond, 800)) {
    engine.onPacket(keyB, p);
  }

  auto stats = engine.stats();
  EXPECT_EQ(stats.flowsEvicted, 1u);
  EXPECT_EQ(stats.activeFlows, 1u);
  EXPECT_EQ(stats.flows, 2u);
  EXPECT_TRUE(engine.flowStats()[0].evicted);
  EXPECT_FALSE(engine.flows().find(keyA).has_value());

  // A returns: fresh generation, fresh id, fresh estimator (an arrival far
  // from the evicted generation's timeline must be accepted).
  netflow::Packet back;
  back.arrivalNs = 50 * common::kNanosPerSecond;
  back.sizeBytes = 1000;
  engine.onPacket(keyA, back);
  EXPECT_EQ(engine.flows().find(keyA), std::optional<FlowId>(2u));
  EXPECT_EQ(engine.stats().flows, 3u);

  const auto results = engine.finish();

  // Finalize-on-evict: generation 0 emitted exactly what a standalone
  // estimator fed the same burst emits, windows and fields bit-identical.
  std::vector<core::StreamingOutput> want;
  core::StreamingIpUdpEstimator reference(
      options.streaming,
      [&want](const core::StreamingOutput& out) { want.push_back(out); });
  for (const auto& p : burstA) reference.onPacket(p);
  reference.finish();

  std::vector<core::StreamingOutput> gotA;
  for (const auto& result : results) {
    if (result.flow == 0) gotA.push_back(result.output);
  }
  ASSERT_EQ(gotA.size(), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    expectSameOutput(gotA[w], want[w]);
  }

  // Per-flow stats survived the eviction.
  const auto& flowStats = engine.flowStats();
  ASSERT_EQ(flowStats.size(), 3u);
  EXPECT_EQ(flowStats[0].key, keyA);
  EXPECT_EQ(flowStats[0].packets, burstA.size());
  EXPECT_EQ(flowStats[0].bytes, burstA.size() * 1000u);
  EXPECT_EQ(flowStats[0].firstArrivalNs, burstA.front().arrivalNs);
  EXPECT_EQ(flowStats[0].lastArrivalNs, burstA.back().arrivalNs);
  EXPECT_EQ(flowStats[0].windowsEmitted, want.size());
  EXPECT_EQ(flowStats[2].key, keyA);
  EXPECT_FALSE(flowStats[2].evicted);
  EXPECT_EQ(flowStats[2].packets, 1u);
}

TEST(MultiFlowEngine, EvictionBoundsResidentFlowsOnLongRuns) {
  EngineOptions options;
  options.numWorkers = 2;
  options.dispatchBatch = 16;
  options.idleTimeoutNs = 2 * common::kNanosPerSecond;
  MultiFlowEngine engine(options);

  // 120 flows, each a half-second burst starting one second after the
  // previous — a long tail of dead sessions a monitor must not accumulate.
  constexpr int kFlows = 120;
  constexpr int kPacketsPerFlow = 50;
  std::size_t maxActive = 0;
  for (int f = 0; f < kFlows; ++f) {
    const auto start = static_cast<common::TimeNs>(f) * common::kNanosPerSecond;
    for (const auto& p : steadyTrace(start, kPacketsPerFlow)) {
      engine.onPacket(makeKey(static_cast<std::uint32_t>(f)), p);
    }
    maxActive = std::max(maxActive, engine.stats().activeFlows);
  }
  std::vector<EngineResult> drained;
  engine.poll(drained);
  const auto results = engine.finish();

  // Resident state stayed bounded by concurrency, not by flows ever seen.
  EXPECT_LE(maxActive, 8u);
  const auto stats = engine.stats();
  EXPECT_EQ(stats.flows, static_cast<std::size_t>(kFlows));
  EXPECT_GE(stats.flowsEvicted, static_cast<std::uint64_t>(kFlows - 8));

  // Accounting remains queryable for every evicted generation, and every
  // drained result was attributed.
  ASSERT_EQ(engine.flowStats().size(), static_cast<std::size_t>(kFlows));
  std::uint64_t windowsAccounted = 0;
  for (const auto& fs : engine.flowStats()) {
    EXPECT_EQ(fs.packets, static_cast<std::uint64_t>(kPacketsPerFlow));
    windowsAccounted += fs.windowsEmitted;
  }
  EXPECT_EQ(windowsAccounted, drained.size() + results.size());
}

// ------------------------------------------------- live-mode pump (PR 5)

TEST(MultiFlowEngine, RejectsNonPositiveWindowAtConstruction) {
  EngineOptions options;
  options.streaming.windowNs = 0;
  EXPECT_THROW(MultiFlowEngine{options}, std::invalid_argument);
  options.streaming.windowNs = -1;
  EXPECT_THROW(MultiFlowEngine{options}, std::invalid_argument);
}

/// Drains `engine` until `atLeast` results arrived or ~5 s of wall time
/// passed (the workers process pump control items asynchronously).
std::size_t pollUntil(MultiFlowEngine& engine,
                      std::vector<EngineResult>& results,
                      std::size_t atLeast) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (results.size() < atLeast &&
         std::chrono::steady_clock::now() < deadline) {
    engine.poll(results);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  engine.poll(results);
  return results.size();
}

TEST(MultiFlowEngine, PumpEvictsIdleFlowsAndFlushesPendingWithoutPackets) {
  EngineOptions options;
  options.numWorkers = 2;
  // Large dispatch batch: without the pump, everything would sit in the
  // dispatcher-side pending buffer until finish().
  options.dispatchBatch = 100'000;
  options.idleTimeoutNs = 3 * common::kNanosPerSecond;
  MultiFlowEngine engine(options);

  const auto burst = steadyTrace(0, 300);  // ~3 s of traffic, then silence
  for (const auto& p : burst) engine.onPacket(makeKey(1), p);

  // Reference: a standalone estimator over the same burst, finalized.
  std::vector<core::StreamingOutput> want;
  core::StreamingIpUdpEstimator reference(
      options.streaming,
      [&want](const core::StreamingOutput& out) { want.push_back(out); });
  for (const auto& p : burst) reference.onPacket(p);
  reference.finish();
  ASSERT_GE(want.size(), 2u);

  // No packet will ever arrive again; the pump alone must evict, finalize,
  // and surface the flow's windows.
  engine.pump(burst.back().arrivalNs + options.idleTimeoutNs + 1);
  auto stats = engine.stats();
  EXPECT_EQ(stats.flowsEvicted, 1u);
  EXPECT_EQ(stats.activeFlows, 0u);
  EXPECT_TRUE(engine.flowStats()[0].evicted);

  std::vector<EngineResult> results;
  ASSERT_EQ(pollUntil(engine, results, want.size()), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(results[w].flow, 0u);
    expectSameOutput(results[w].output, want[w]);
  }

  // finish() has nothing left for the evicted generation.
  EXPECT_TRUE(engine.finish().empty());
}

TEST(MultiFlowEngine, PumpFlushesBatcherDeadlineOnQuietStream) {
  auto registry = std::make_shared<inference::ModelRegistry>();
  registry->registerBackend(
      "teams", inference::QoeTarget::kFrameRate,
      std::make_shared<inference::ForestBackend>(
          syntheticForest(4, 4, 30.0), inference::QoeTarget::kFrameRate,
          "forest:teams/frame_rate"));

  EngineOptions options;
  options.numWorkers = 1;
  options.dispatchBatch = 1;  // windows reach the shard batcher immediately
  options.registry = registry;
  options.targets = {inference::QoeTarget::kFrameRate};
  options.inferenceBatch = 64;  // far more than the trace produces
  options.inferenceFlushNs = 60 * common::kNanosPerSecond;  // never mid-trace
  MultiFlowEngine engine(options);

  const auto burst = steadyTrace(0, 500);  // ~5 s of traffic
  for (const auto& p : burst) engine.onPacket(makeKey(1), p);

  std::vector<core::StreamingOutput> want;
  core::StreamingIpUdpEstimator reference(
      options.streaming,
      [&want](const core::StreamingOutput& out) { want.push_back(out); },
      registry->resolve("teams", inference::QoeTarget::kFrameRate));
  for (const auto& p : burst) reference.onPacket(p);
  // No finish(): only windows already emitted mid-stream are expected —
  // those are exactly what the batcher is holding hostage.
  ASSERT_GE(want.size(), 3u);

  // The stream is quiet and the deadline far away: pumping a stream time
  // past the deadline is the only way these windows can surface.
  engine.pump(burst.back().arrivalNs + options.inferenceFlushNs + 1);
  std::vector<EngineResult> results;
  ASSERT_EQ(pollUntil(engine, results, want.size()), want.size());
  for (std::size_t w = 0; w < want.size(); ++w) {
    EXPECT_EQ(results[w].flow, 0u);
    expectSameOutput(results[w].output, want[w]);
    EXPECT_TRUE(results[w].output.predictions.has(
        inference::QoeTarget::kFrameRate));
  }
  EXPECT_GT(engine.stats().inferenceBatches, 0u);
  engine.finish();
}

TEST(MultiFlowEngine, PumpIsMonotoneAndRejectedAfterFinish) {
  EngineOptions options;
  options.numWorkers = 1;
  MultiFlowEngine engine(options);
  for (const auto& p : steadyTrace(0, 50)) engine.onPacket(makeKey(1), p);
  // An old timestamp must not rewind the engine clock (no spurious
  // evictions, no clock regressions on the shards).
  engine.pump(-100);
  engine.pump(common::kNanosPerSecond);
  const auto results = engine.finish();
  EXPECT_FALSE(results.empty());
  EXPECT_THROW(engine.pump(2 * common::kNanosPerSecond), std::logic_error);
}

TEST(MultiFlowEngine, StatsCountPacketsFlowsAndResults) {
  const auto in = makeInterleaved(4, 300);
  EngineOptions options;
  options.numWorkers = 2;
  MultiFlowEngine engine(options);
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  const auto results = engine.finish();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.packetsIngested, in.stream.size());
  EXPECT_EQ(stats.flows, 4u);
  EXPECT_EQ(stats.resultsMerged, results.size());
  EXPECT_GT(stats.batchesDispatched, 0u);
}

// --- Load-adaptive sharding -----------------------------------------------

/// `FlowKeyHash` feeds both the flow table's buckets and the kHash shard
/// modulo; random 5-tuples must land near-uniformly over small shard
/// counts or one worker inherits a biased share of every deployment.
TEST(FlowKeyHash, DistributesRandomTuplesNearUniformlyOverShards) {
  constexpr int kTuples = 8192;
  common::Rng rng(2026);
  std::vector<std::size_t> hashes;
  hashes.reserve(kTuples);
  FlowKeyHash hash;
  for (int i = 0; i < kTuples; ++i) {
    netflow::FlowKey key;
    key.srcIp = static_cast<std::uint32_t>(rng.engine()());
    key.dstIp = static_cast<std::uint32_t>(rng.engine()());
    key.srcPort = static_cast<std::uint16_t>(rng.engine()());
    key.dstPort = static_cast<std::uint16_t>(rng.engine()());
    hashes.push_back(hash(key));
  }
  for (const std::size_t shards : {2u, 4u, 8u}) {
    std::vector<int> buckets(shards, 0);
    for (const auto h : hashes) ++buckets[h % shards];
    const double expected = static_cast<double>(kTuples) / shards;
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_GT(buckets[s], expected * 0.75)
          << "shards=" << shards << " bucket=" << s;
      EXPECT_LT(buckets[s], expected * 1.25)
          << "shards=" << shards << " bucket=" << s;
    }
  }
}

TEST(FlowDemuxCache, ServesLiveIdsAndForgetsEvicted) {
  FlowDemuxCache cache;
  const auto a = makeKey(1);
  const auto b = makeKey(2);
  EXPECT_FALSE(cache.lookup(a).has_value());
  cache.remember(a, 7);
  cache.remember(b, 9);
  EXPECT_EQ(cache.lookup(a), std::optional<FlowId>(7u));
  EXPECT_EQ(cache.lookup(b), std::optional<FlowId>(9u));
  // Eviction invalidates; a later generation re-installs under a new id.
  cache.forget(a);
  EXPECT_FALSE(cache.lookup(a).has_value());
  cache.remember(a, 12);
  EXPECT_EQ(cache.lookup(a), std::optional<FlowId>(12u));
  EXPECT_EQ(cache.lookups(), 5u);
  EXPECT_EQ(cache.hits(), 3u);
}

TEST(FlowDemuxCache, DirectMappedCollisionDisplacesNotCorrupts) {
  // Find two keys sharing a slot; the second displaces the first, and a
  // forget() of the displaced key must not clobber the resident one.
  FlowDemuxCache cache;
  FlowKeyHash hash;
  const auto a = makeKey(0);
  netflow::FlowKey colliding;
  bool found = false;
  for (std::uint32_t i = 1; i < 100'000; ++i) {
    colliding = makeKey(i);
    if ((hash(colliding) % FlowDemuxCache::kSlots) ==
        (hash(a) % FlowDemuxCache::kSlots)) {
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found);
  cache.remember(a, 1);
  cache.remember(colliding, 2);
  EXPECT_FALSE(cache.lookup(a).has_value());  // displaced
  EXPECT_EQ(cache.lookup(colliding), std::optional<FlowId>(2u));
  cache.forget(a);  // displaced long ago: must be a no-op
  EXPECT_EQ(cache.lookup(colliding), std::optional<FlowId>(2u));
}

/// kHash is the seed behavior and the default: the one-liner contract
/// (shard = id mod workers, for the flow's whole life) regression-tested
/// on its own, independent of the adaptive machinery.
TEST(MultiFlowEngine, HashPlacementKeepsModuloContract) {
  const auto in = makeInterleaved(13, 200);
  EngineOptions options;
  options.numWorkers = 4;
  MultiFlowEngine engine(options);
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  (void)engine.finish();
  ASSERT_EQ(engine.flows().size(), 13u);
  for (FlowId id = 0; id < 13; ++id) {
    EXPECT_EQ(engine.shardOf(id), id % 4u) << "flow " << id;
  }
  EXPECT_EQ(engine.stats().migrations, 0u);
}

TEST(MultiFlowEngine, PlacementStringsRoundTripAndRejectUnknown) {
  EXPECT_EQ(placementFromString("hash"), Placement::kHash);
  EXPECT_EQ(placementFromString("least-loaded"), Placement::kLeastLoaded);
  EXPECT_FALSE(placementFromString("bogus").has_value());
  EXPECT_EQ(toString(Placement::kHash), "hash");
  EXPECT_EQ(toString(Placement::kLeastLoaded), "least-loaded");
}

/// One elephant among mice: flow 0 carries most of the packets, the shape
/// that makes static hashing pin a shard and is the reason migration
/// exists.
Interleaved makeSkewedInterleaved(int flows, int elephantPackets,
                                  int mousePackets) {
  Interleaved in;
  for (int f = 0; f < flows; ++f) {
    in.keys.push_back(makeKey(static_cast<std::uint32_t>(f)));
    in.perFlow.push_back(syntheticFlowTrace(
        31 + static_cast<std::uint64_t>(f),
        f == 0 ? elephantPackets : mousePackets, /*startNs=*/f * 23'000));
  }
  for (int f = 0; f < flows; ++f) {
    for (const auto& packet : in.perFlow[static_cast<std::size_t>(f)]) {
      in.stream.emplace_back(static_cast<std::uint32_t>(f), packet);
    }
  }
  std::stable_sort(in.stream.begin(), in.stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });
  return in;
}

class EnginePlacementDeterminism
    : public ::testing::TestWithParam<std::tuple<int, Placement, bool>> {};

/// The adaptive-sharding leg of the determinism contract: placement policy
/// and live migration may change WHERE a flow runs, never WHAT it emits.
/// Every cell of workers x placement x migration must be bit-identical to
/// the sequential per-flow reference on a skewed (one-elephant) stream fed
/// with a poll cadence, so migrations can actually occur mid-run.
TEST_P(EnginePlacementDeterminism, SkewedStreamBitIdenticalToSequential) {
  const int workers = std::get<0>(GetParam());
  const Placement placement = std::get<1>(GetParam());
  const bool migrate = std::get<2>(GetParam());
  const int flows = 9;
  const auto in = makeSkewedInterleaved(flows, 2600, 260);

  core::StreamingOptions streaming;
  const auto want = sequentialReference(in, streaming);

  EngineOptions options;
  options.streaming = streaming;
  options.numWorkers = workers;
  options.dispatchBatch = 16;
  options.placement = placement;
  options.migrateFlows = migrate;
  options.migrateImbalance = 1.5;  // aggressive: let imbalance trigger early
  MultiFlowEngine engine(options);
  std::vector<EngineResult> polled;
  std::size_t fed = 0;
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
    if (++fed % 113 == 0) engine.poll(polled);
  }
  for (auto& result : engine.finish()) polled.push_back(std::move(result));

  std::vector<FlowId> idOfKey(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    const auto id = engine.flows().find(in.keys[static_cast<std::size_t>(f)]);
    ASSERT_TRUE(id.has_value());
    idOfKey[static_cast<std::size_t>(f)] = *id;
  }
  std::vector<std::vector<core::StreamingOutput>> byFlow(
      static_cast<std::size_t>(flows));
  for (auto& result : polled) {
    byFlow[result.flow].push_back(std::move(result.output));
  }
  for (int f = 0; f < flows; ++f) {
    const auto& gotFlow = byFlow[idOfKey[static_cast<std::size_t>(f)]];
    const auto& wantFlow = want[static_cast<std::size_t>(f)];
    ASSERT_EQ(gotFlow.size(), wantFlow.size()) << "flow " << f;
    for (std::size_t w = 0; w < wantFlow.size(); ++w) {
      expectSameOutput(gotFlow[w], wantFlow[w]);
    }
  }
  // Load accounting closes: every ingested packet was dispatched to some
  // shard and processed there by the time finish() returned.
  const auto stats = engine.stats();
  ASSERT_EQ(stats.shardLoads.size(), static_cast<std::size_t>(workers));
  std::uint64_t dispatched = 0;
  std::uint64_t processed = 0;
  std::uint64_t migrationsIn = 0;
  for (const auto& load : stats.shardLoads) {
    dispatched += load.packetsDispatched;
    processed += load.packetsProcessed;
    migrationsIn += load.migrationsIn;
    EXPECT_EQ(load.backlog, 0u);
  }
  EXPECT_EQ(dispatched, stats.packetsIngested);
  EXPECT_EQ(processed, stats.packetsIngested);
  EXPECT_EQ(migrationsIn, stats.migrations);
  if (!migrate) {
    EXPECT_EQ(stats.migrations, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlacementMatrix, EnginePlacementDeterminism,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values(Placement::kHash,
                                         Placement::kLeastLoaded),
                       ::testing::Bool()));

/// Forces a migration and proves the whole protocol end to end: tiny
/// result rings park the elephant's worker (backlog builds), the
/// imbalance trigger fires, packets arriving mid-handover are parked and
/// replayed, and the flow ends up on a different shard — with output still
/// bit-identical to the sequential reference.
TEST(MultiFlowEngine, ForcedMigrationMovesElephantAndPreservesOutput) {
  const int flows = 4;  // with 2 workers and kHash: flows {0,2} share shard 0
  const auto in = makeSkewedInterleaved(flows, 4000, 150);
  core::StreamingOptions streaming;
  const auto want = sequentialReference(in, streaming);

  EngineOptions options;
  options.streaming = streaming;
  options.numWorkers = 2;
  options.dispatchBatch = 8;
  options.resultRingCapacity = 0;  // clamps to 2: the elephant's worker parks
  options.migrateFlows = true;
  options.migrateImbalance = 1.0;
  MultiFlowEngine engine(options);
  // No poll during the feed: the source worker stays parked on its full
  // ring, so the handover resolves under maximum backlog (mostly inside
  // finish(), with a pile of parked packets to replay).
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  const auto got = engine.finish();

  const auto stats = engine.stats();
  EXPECT_GE(stats.migrations, 1u);
  const auto elephant = engine.flows().find(in.keys[0]);
  ASSERT_TRUE(elephant.has_value());
  // kHash placed the elephant on shard id%2; at least one migration moved
  // some flow, and the per-shard counters agree with the total.
  std::uint64_t migrationsIn = 0;
  std::uint64_t migrationsOut = 0;
  for (const auto& load : stats.shardLoads) {
    migrationsIn += load.migrationsIn;
    migrationsOut += load.migrationsOut;
    EXPECT_GT(load.ewmaBatchNs, 0.0);
  }
  EXPECT_EQ(migrationsIn, stats.migrations);
  EXPECT_EQ(migrationsOut, stats.migrations);

  std::vector<FlowId> idOfKey(static_cast<std::size_t>(flows));
  for (int f = 0; f < flows; ++f) {
    const auto id = engine.flows().find(in.keys[static_cast<std::size_t>(f)]);
    ASSERT_TRUE(id.has_value());
    idOfKey[static_cast<std::size_t>(f)] = *id;
  }
  std::vector<std::vector<core::StreamingOutput>> byFlow(
      static_cast<std::size_t>(flows));
  for (const auto& result : got) byFlow[result.flow].push_back(result.output);
  for (int f = 0; f < flows; ++f) {
    const auto& gotFlow = byFlow[idOfKey[static_cast<std::size_t>(f)]];
    const auto& wantFlow = want[static_cast<std::size_t>(f)];
    ASSERT_EQ(gotFlow.size(), wantFlow.size()) << "flow " << f;
    for (std::size_t w = 0; w < wantFlow.size(); ++w) {
      expectSameOutput(gotFlow[w], wantFlow[w]);
    }
  }
}

/// The dispatcher-side demux cache is accounted and actually hit on bursty
/// interleaves, and an evicted generation is never served stale.
TEST(MultiFlowEngine, DemuxCacheCountsHitsAndSurvivesEviction) {
  EngineOptions options;
  options.numWorkers = 2;
  options.idleTimeoutNs = 500 * common::kNanosPerMilli;
  MultiFlowEngine engine(options);
  const auto key = makeKey(3);
  // Burst, long gap (evicts), burst again: the second generation must get
  // a fresh id through the cache-miss path.
  for (const auto& packet : steadyTrace(0, 200)) engine.onPacket(key, packet);
  const auto firstGen = engine.flows().find(key);
  ASSERT_TRUE(firstGen.has_value());
  engine.pump(10 * common::kNanosPerSecond);
  EXPECT_FALSE(engine.flows().find(key).has_value());
  for (const auto& packet : steadyTrace(11 * common::kNanosPerSecond, 50)) {
    engine.onPacket(key, packet);
  }
  const auto secondGen = engine.flows().find(key);
  ASSERT_TRUE(secondGen.has_value());
  EXPECT_NE(*secondGen, *firstGen);
  (void)engine.finish();
  const auto stats = engine.stats();
  EXPECT_EQ(stats.demuxCacheLookups, stats.packetsIngested);
  // All but the two admission packets hit the single-flow cache line.
  EXPECT_EQ(stats.demuxCacheHits, stats.packetsIngested - 2);
}

// --------------------------------------- dispatcher -> worker hand-off

/// The VCA verdict the hand-off suite keys its registry with: flows of even
/// synthetic index resolve "meet", odd ones "teams", so neighbouring flows
/// carry different admission backends through the batch controls.
std::string handOffVca(const netflow::FlowKey& key) {
  return (key.srcIp & 1u) != 0 ? "teams" : "meet";
}

std::shared_ptr<inference::ModelRegistry> handOffRegistry() {
  auto registry = std::make_shared<inference::ModelRegistry>();
  registry->registerBackend(
      "meet", inference::QoeTarget::kFrameRate,
      std::make_shared<inference::ForestBackend>(
          syntheticForest(3, 4, 30.0), inference::QoeTarget::kFrameRate,
          "forest:meet/frame_rate"));
  registry->registerBackend(
      "teams", inference::QoeTarget::kFrameRate,
      std::make_shared<inference::ForestBackend>(
          syntheticForest(3, 4, 15.0), inference::QoeTarget::kFrameRate,
          "forest:teams/frame_rate"));
  return registry;
}

EngineOptions handOffOptions(
    const std::shared_ptr<inference::ModelRegistry>& registry) {
  EngineOptions options;
  options.registry = registry;
  options.targets = {inference::QoeTarget::kFrameRate};
  options.vcaResolver = handOffVca;
  return options;
}

/// Sequential reference with inference: each trace through its own
/// estimator holding the backend its key resolves to.
std::vector<core::StreamingOutput> referenceWithBackend(
    const netflow::PacketTrace& trace, const netflow::FlowKey& key,
    const EngineOptions& options) {
  std::vector<core::StreamingOutput> outputs;
  core::StreamingEstimator estimator(
      options.streaming,
      [&outputs](const core::StreamingOutput& out) { outputs.push_back(out); },
      options.registry->resolveSet(handOffVca(key), options.targets,
                                   options.streaming.featureSet));
  for (const auto& packet : trace) estimator.onPacket(packet);
  estimator.finish();
  return outputs;
}

void expectFlowOutput(const std::vector<EngineResult>& results, FlowId flow,
                      const std::vector<core::StreamingOutput>& want) {
  std::vector<core::StreamingOutput> got;
  for (const auto& result : results) {
    if (result.flow == flow) got.push_back(result.output);
  }
  ASSERT_EQ(got.size(), want.size()) << "flow " << flow;
  for (std::size_t w = 0; w < want.size(); ++w) {
    expectSameOutput(got[w], want[w]);
    EXPECT_FALSE(got[w].predictions.empty()) << "flow " << flow;
  }
}

/// Every flow of `in` (none evicted) matches its sequential reference.
void expectAllFlowsMatch(const MultiFlowEngine& engine,
                         const std::vector<EngineResult>& results,
                         const Interleaved& in, const EngineOptions& options) {
  for (std::size_t f = 0; f < in.keys.size(); ++f) {
    const auto id = engine.flows().find(in.keys[f]);
    ASSERT_TRUE(id.has_value()) << "flow " << f;
    expectFlowOutput(results, *id,
                     referenceWithBackend(in.perFlow[f], in.keys[f], options));
    EXPECT_EQ(engine.flowStats()[*id].backendName(),
              "forest:" + handOffVca(in.keys[f]) + "/frame_rate");
  }
}

class EngineHandOffBatch
    : public ::testing::TestWithParam<std::tuple<std::size_t, int>> {};

/// Dispatch batches of 1, 2 and 3 items on 1 and 3 workers, with flows
/// starting one after another mid-stream: admission items (the only packet
/// items carrying a control) land at every position of a batch, and each
/// must hand its own backend and feature set to the estimator it creates.
TEST_P(EngineHandOffBatch, AdmissionAtEveryBatchPositionBitIdentical) {
  const std::size_t dispatchBatch = std::get<0>(GetParam());
  const int workers = std::get<1>(GetParam());
  const auto in = makeInterleaved(8, 500, 11, 61 * common::kNanosPerMilli);
  auto options = handOffOptions(handOffRegistry());
  options.numWorkers = workers;
  options.dispatchBatch = dispatchBatch;
  MultiFlowEngine engine(options);
  std::vector<EngineResult> results;
  std::size_t fed = 0;
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
    if (++fed % 97 == 0) engine.poll(results);
  }
  for (auto& result : engine.finish()) results.push_back(std::move(result));
  const auto registry = engine.stats().registry;
  EXPECT_EQ(registry.hits + registry.misses, in.keys.size());
  expectAllFlowsMatch(engine, results, in, options);
}

INSTANTIATE_TEST_SUITE_P(BatchPositions, EngineHandOffBatch,
                         ::testing::Combine(::testing::Values(1u, 2u, 3u),
                                            ::testing::Values(1, 3)));

/// A flow admitted, evicted and re-admitted while everything still sits in
/// one pending batch: admission control, packets, evict item and the next
/// generation's admission all ride the same batch to the worker, and the
/// emptied slot of the retired id must not leak into the new generation.
TEST(EngineHandOff, FlowAdmittedAndEvictedWithinOneBatch) {
  const auto keyA = makeKey(1);
  const auto keyB = makeKey(2);
  const auto firstA = steadyTrace(0, 4);
  const auto traceB = steadyTrace(2 * common::kNanosPerSecond, 60);
  const auto laterA = steadyTrace(2205 * common::kNanosPerMilli, 30);
  // Arrival-ordered merge: B's first packet moves the clock 2 s on and
  // evicts A's first generation; A returns while B is still running.
  std::vector<std::pair<netflow::FlowKey, netflow::Packet>> stream;
  for (const auto& p : firstA) stream.emplace_back(keyA, p);
  for (const auto& p : traceB) stream.emplace_back(keyB, p);
  for (const auto& p : laterA) stream.emplace_back(keyA, p);
  std::stable_sort(stream.begin(), stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });
  for (const int workers : {1, 2}) {
    auto options = handOffOptions(handOffRegistry());
    options.numWorkers = workers;
    options.dispatchBatch = 256;
    options.idleTimeoutNs = common::kNanosPerSecond;
    MultiFlowEngine engine(options);
    for (const auto& [key, packet] : stream) engine.onPacket(key, packet);
    EXPECT_EQ(engine.stats().batchesDispatched, 0u) << workers;
    EXPECT_EQ(engine.stats().flowsEvicted, 1u);
    const auto results = engine.finish();
    ASSERT_EQ(engine.flows().size(), 3u);
    EXPECT_TRUE(engine.flowStats()[0].evicted);
    // Ids: A's first generation 0, B 1, A's second generation 2.
    expectFlowOutput(results, 0, referenceWithBackend(firstA, keyA, options));
    expectFlowOutput(results, 1, referenceWithBackend(traceB, keyB, options));
    expectFlowOutput(results, 2, referenceWithBackend(laterA, keyA, options));
  }
}

/// A forced migration with inference on, per-window and batched: the
/// migrate-out ticket and the migrate-in ticket plus backend ride the
/// batch controls, and the migrated flow's output stays bit-identical.
TEST(EngineHandOff, MigrationTicketsRideTheControlsVector) {
  const auto in = makeSkewedInterleaved(4, 4000, 150);
  for (const std::size_t inferenceBatch : {1u, 4u}) {
    auto options = handOffOptions(handOffRegistry());
    options.numWorkers = 2;
    options.dispatchBatch = 8;
    options.resultRingCapacity = 0;  // clamps to 2: the worker parks
    options.migrateFlows = true;
    options.migrateImbalance = 1.0;
    options.inferenceBatch = inferenceBatch;
    MultiFlowEngine engine(options);
    for (const auto& [flow, packet] : in.stream) {
      engine.onPacket(in.keys[flow], packet);
    }
    const auto results = engine.finish();
    EXPECT_GE(engine.stats().migrations, 1u) << inferenceBatch;
    expectAllFlowsMatch(engine, results, in, options);
  }
}

/// finish() orders results by (flow id, window) whatever shard ran each
/// flow: ids interleave round-robin over 3 shards, and idle eviction
/// leaves emptied slots between live ones in each shard's table.
TEST(EngineHandOff, FinishOrdersResultsByFlowIdAcrossShards) {
  Interleaved in;
  const int flows = 12;
  for (int f = 0; f < flows; ++f) {
    in.keys.push_back(makeKey(static_cast<std::uint32_t>(f)));
    // Every third flow is short and goes idle early; the rest run on.
    in.perFlow.push_back(syntheticFlowTrace(
        90 + static_cast<std::uint64_t>(f), f % 3 == 1 ? 120 : 2500,
        f * 40 * common::kNanosPerMilli));
  }
  for (int f = 0; f < flows; ++f) {
    for (const auto& packet : in.perFlow[static_cast<std::size_t>(f)]) {
      in.stream.emplace_back(static_cast<std::uint32_t>(f), packet);
    }
  }
  std::stable_sort(in.stream.begin(), in.stream.end(),
                   [](const auto& a, const auto& b) {
                     return a.second.arrivalNs < b.second.arrivalNs;
                   });
  auto options = handOffOptions(handOffRegistry());
  options.numWorkers = 3;
  options.dispatchBatch = 16;
  options.idleTimeoutNs = common::kNanosPerSecond;
  MultiFlowEngine engine(options);
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
  }
  const auto results = engine.finish();
  EXPECT_GE(engine.stats().flowsEvicted, 4u);
  ASSERT_EQ(engine.flows().size(), static_cast<std::size_t>(flows));

  // The whole merged stream equals the references concatenated in id order.
  std::vector<std::pair<FlowId, core::StreamingOutput>> want;
  std::vector<std::size_t> keyOfId(static_cast<std::size_t>(flows));
  for (std::size_t f = 0; f < in.keys.size(); ++f) {
    const auto& stats = engine.flowStats();
    const auto id = static_cast<std::size_t>(
        std::find_if(stats.begin(), stats.end(),
                     [&](const FlowStats& s) { return s.key == in.keys[f]; }) -
        stats.begin());
    ASSERT_LT(id, keyOfId.size());
    keyOfId[id] = f;
  }
  for (std::size_t id = 0; id < keyOfId.size(); ++id) {
    const std::size_t f = keyOfId[id];
    for (auto& out : referenceWithBackend(in.perFlow[f], in.keys[f], options)) {
      want.emplace_back(static_cast<FlowId>(id), std::move(out));
    }
  }
  ASSERT_EQ(results.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(results[i].flow, want[i].first) << "result " << i;
    expectSameOutput(results[i].output, want[i].second);
  }
}

/// Emptied batches come back to the dispatcher through a bounded free list:
/// over a long back-pressured run it never exceeds its bound, and it is
/// actually used (the final batches are parked there after finish()).
TEST(EngineHandOff, FreeListStaysWithinItsBound) {
  const auto in = makeInterleaved(24, 3000, 5);
  auto options = handOffOptions(handOffRegistry());
  options.numWorkers = 2;
  options.dispatchBatch = 16;
  MultiFlowEngine engine(options);
  std::vector<EngineResult> results;
  std::size_t fed = 0;
  std::size_t maxParked = 0;
  for (const auto& [flow, packet] : in.stream) {
    engine.onPacket(in.keys[flow], packet);
    if (++fed % 251 == 0) {
      engine.poll(results);
      for (std::size_t s = 0; s < 2; ++s) {
        maxParked = std::max(maxParked, engine.recycledBatches(s));
      }
    }
  }
  for (auto& result : engine.finish()) results.push_back(std::move(result));
  EXPECT_LE(maxParked, MultiFlowEngine::kMaxRecycledBatches);
  for (std::size_t s = 0; s < 2; ++s) {
    EXPECT_GE(engine.recycledBatches(s), 1u);
    EXPECT_LE(engine.recycledBatches(s), MultiFlowEngine::kMaxRecycledBatches);
  }
  EXPECT_GT(engine.stats().batchesDispatched,
            2 * MultiFlowEngine::kMaxRecycledBatches);
  expectAllFlowsMatch(engine, results, in, options);
}

}  // namespace
}  // namespace vcaqoe::engine
