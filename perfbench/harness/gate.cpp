#include "harness/gate.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <tuple>

#include "core/evaluation.hpp"
#include "core/media_classifier.hpp"
#include "harness/trace.hpp"

namespace perfbench {
namespace {

/// Flow tag, window, heuristics, features and predictions folded into one
/// double, as `bench_engine_throughput`'s Digest does; its bit pattern.
std::uint64_t windowDigest(std::uint64_t flowTag,
                           const core::StreamingOutput& out) {
  double s = static_cast<double>(flowTag) * 1e-3 +
             static_cast<double>(out.window) + out.heuristic.bitrateKbps +
             out.heuristic.fps + out.heuristic.frameJitterMs;
  for (double f : out.features) s += f;
  for (const auto target : inference::kAllTargets) {
    const auto value = out.predictions.get(target);
    if (value.has_value()) {
      s += *value * (1.0 + static_cast<double>(target));
    }
  }
  return std::bit_cast<std::uint64_t>(s);
}

}  // namespace

Reference computeReference(const Inputs& inputs,
                           const engine::EngineOptions& options, TimeNs cutNs,
                           Tracer& tracer) {
  Reference reference;
  reference.digests.resize(inputs.instances.size());
  const core::MediaClassifier classifier(options.streaming.classifier);
  std::map<std::string, core::StreamingEstimator::BackendPtr> backends;
  for (std::uint32_t i = 0; i < inputs.instances.size(); ++i) {
    const Instance& instance = inputs.instances[i];
    const std::string vca(core::toString(classifier.classifyVca(instance.key)));
    auto [it, fresh] = backends.try_emplace(vca);
    if (fresh && options.registry) {
      it->second =
          options.registry->resolveSet(vca, inference::kAllTargets);
    }
    auto& digests = reference.digests[i];
    ScopedSpan span(tracer, "core.estimator");
    core::StreamingEstimator estimator(
        options.streaming,
        [&digests, i](const core::StreamingOutput& out) {
          digests.push_back(windowDigest(i, out));
        },
        it->second);
    for (std::uint32_t p = 0; p < instance.packets; ++p) {
      const auto packet = inputs.packetOf(instance, p);
      if (packet.arrivalNs >= cutNs) break;
      estimator.onPacket(packet);
      ++reference.packets;
    }
    estimator.finish();
    reference.windows += digests.size();
  }
  return reference;
}

GateResult& GateResult::operator+=(const GateResult& other) {
  attempted += other.attempted;
  missing += other.missing;
  differing += other.differing;
  unpredicted += other.unpredicted;
  extra += other.extra;
  return *this;
}

std::vector<netflow::FlowKey> flowKeysOf(
    const engine::MultiFlowEngine& engine) {
  std::vector<netflow::FlowKey> keys;
  keys.reserve(engine.flowStats().size());
  for (const auto& flow : engine.flowStats()) keys.push_back(flow.key);
  return keys;
}

GateResult verify(const Inputs& inputs, const Reference& reference,
                  const std::vector<engine::EngineResult>& results,
                  const std::vector<netflow::FlowKey>& flowKeys) {
  GateResult gate;
  gate.attempted = reference.windows;
  std::vector<std::vector<bool>> seen(reference.digests.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    seen[i].assign(reference.digests[i].size(), false);
  }
  for (const auto& result : results) {
    const std::int64_t instance = result.flow < flowKeys.size()
                                      ? inputs.instanceOf(flowKeys[result.flow])
                                      : -1;
    const std::int64_t w = result.output.window;
    if (instance < 0 || w < 0) {
      ++gate.extra;
      continue;
    }
    const auto& digests = reference.digests[static_cast<std::size_t>(instance)];
    auto& marks = seen[static_cast<std::size_t>(instance)];
    if (w >= static_cast<std::int64_t>(digests.size()) ||
        marks[static_cast<std::size_t>(w)]) {
      ++gate.extra;
      continue;
    }
    marks[static_cast<std::size_t>(w)] = true;
    if (result.output.predictions.size() != inference::kNumTargets) {
      ++gate.unpredicted;
    } else if (windowDigest(static_cast<std::uint64_t>(instance),
                            result.output) !=
               digests[static_cast<std::size_t>(w)]) {
      ++gate.differing;
    }
  }
  for (const auto& marks : seen) {
    for (const bool mark : marks) gate.missing += mark ? 0 : 1;
  }
  return gate;
}

Accuracy scoreAccuracy(const Inputs& inputs,
                       const std::vector<engine::EngineResult>& results,
                       const std::vector<netflow::FlowKey>& flowKeys) {
  std::vector<TruthIndex> truth;
  truth.reserve(inputs.calls.size());
  for (const auto& call : inputs.calls) truth.emplace_back(call.truth);

  // Score in (instance, window) order, not delivery order, so the sums
  // (and the metrics' last digits) do not depend on thread timing.
  std::vector<std::tuple<std::int64_t, std::int64_t, std::size_t>> order;
  order.reserve(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto flow = results[i].flow;
    const std::int64_t index =
        flow < flowKeys.size() ? inputs.instanceOf(flowKeys[flow]) : -1;
    if (index >= 0) order.emplace_back(index, results[i].output.window, i);
  }
  std::sort(order.begin(), order.end());

  std::vector<double> fpsPred, fpsTrue, bitPred, bitTrue, jitPred, jitTrue;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> resolution;
  Accuracy accuracy;
  for (const auto& [index, window, i] : order) {
    const auto& result = results[i];
    const Instance& instance = inputs.instances[static_cast<std::size_t>(index)];
    const auto& call = inputs.calls[instance.call];
    const std::int64_t w = result.output.window;
    const std::int64_t second = truthSecondFor(w, instance.offsetWindows);
    // Score only whole windows of the call's own seconds, fully fed.
    const bool whole =
        second < static_cast<std::int64_t>(std::floor(call.durationSec)) &&
        (w + 1) * kWindowNs <= inputs.cutNs;
    const auto* row =
        whole ? truth[instance.call].rowFor(w, instance.offsetWindows)
              : nullptr;
    const auto& p = result.output.predictions;
    if (row == nullptr || p.size() != inference::kNumTargets) {
      ++accuracy.excluded;
      continue;
    }
    ++accuracy.scored;
    fpsPred.push_back(*p.get(inference::QoeTarget::kFrameRate));
    fpsTrue.push_back(row->fps);
    bitPred.push_back(*p.get(inference::QoeTarget::kBitrateKbps));
    bitTrue.push_back(row->bitrateKbps);
    jitPred.push_back(*p.get(inference::QoeTarget::kFrameJitterMs));
    jitTrue.push_back(row->frameJitterMs);
    const auto codec = core::resolutionCodecFor(call.profile.name);
    auto& [hits, total] = resolution[call.profile.name];
    hits += *p.get(inference::QoeTarget::kResolution) ==
                    codec.encode(row->frameHeight)
                ? 1
                : 0;
    ++total;
  }
  accuracy.fpsMae = core::summarizeErrors(fpsPred, fpsTrue).mae;
  accuracy.bitrateMrae =
      core::summarizeErrors(bitPred, bitTrue, /*relative=*/true).mrae;
  accuracy.jitterMaeMs = core::summarizeErrors(jitPred, jitTrue).mae;
  std::uint64_t hitsAll = 0;
  std::uint64_t totalAll = 0;
  for (const auto& [vca, counts] : resolution) {
    accuracy.resolutionAccByVca[vca] =
        static_cast<double>(counts.first) / static_cast<double>(counts.second);
    hitsAll += counts.first;
    totalAll += counts.second;
  }
  accuracy.resolutionAcc =
      totalAll > 0 ? static_cast<double>(hitsAll) / static_cast<double>(totalAll)
                   : 0.0;
  return accuracy;
}

}  // namespace perfbench
