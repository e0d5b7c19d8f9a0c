#pragma once

// Correctness gate and accuracy scoring.
//
// The gate holds the engine to its determinism contract: every window of
// every flow must equal, bit for bit, what a standalone per-flow
// `StreamingEstimator` (same options, same backend resolution) produces on
// the caller thread, and must carry all four predictions. Each reference
// window is one attempted operation; a window that is missing, differs,
// lacks a prediction, or that the reference never produced is one failure.
//
// Accuracy joins the engine's windows to the simulated calls' ground truth:
// engine window w of an instance offset by k windows is truth second w - k.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/streaming.hpp"
#include "engine/multi_flow_engine.hpp"
#include "harness/calls.hpp"

namespace perfbench {

class Tracer;

struct Reference {
  /// Per instance, the digest of each window in emission order (window
  /// indices start at 0 and are contiguous): the bit pattern of the
  /// per-output reduction `bench_engine_throughput`'s Digest adds.
  std::vector<std::vector<std::uint64_t>> digests;
  std::uint64_t windows = 0;
  std::uint64_t packets = 0;
};

/// Runs every instance's packets before `cutNs` through its own
/// `StreamingEstimator` on the caller thread, resolving its backend from
/// `options.registry` the way the engine does at admission. One
/// "core.estimator" span per instance.
Reference computeReference(const Inputs& inputs,
                           const engine::EngineOptions& options, TimeNs cutNs,
                           Tracer& tracer);

struct GateResult {
  std::uint64_t attempted = 0;
  std::uint64_t missing = 0;
  std::uint64_t differing = 0;
  std::uint64_t unpredicted = 0;
  std::uint64_t extra = 0;

  std::uint64_t failed() const {
    return missing + differing + unpredicted + extra;
  }
  GateResult& operator+=(const GateResult& other);
};

/// The 5-tuple of every flow id an engine run interned, indexed by id.
std::vector<netflow::FlowKey> flowKeysOf(const engine::MultiFlowEngine& engine);

/// Checks one engine run's complete output against the reference.
GateResult verify(const Inputs& inputs, const Reference& reference,
                  const std::vector<engine::EngineResult>& results,
                  const std::vector<netflow::FlowKey>& flowKeys);

struct Accuracy {
  double fpsMae = 0.0;
  double bitrateMrae = 0.0;
  double jitterMaeMs = 0.0;
  double resolutionAcc = 0.0;
  std::uint64_t scored = 0;
  /// Windows without valid truth: before an instance's call starts, after
  /// it ends or is cut, or seconds without a decoded frame.
  std::uint64_t excluded = 0;
  /// Resolution accuracy per VCA (each through its own ResolutionCodec).
  std::map<std::string, double> resolutionAccByVca;
};

Accuracy scoreAccuracy(const Inputs& inputs,
                       const std::vector<engine::EngineResult>& results,
                       const std::vector<netflow::FlowKey>& flowKeys);

}  // namespace perfbench
