#pragma once

// The measured loops. Each drives one `MultiFlowEngine` (options fixed by
// the caller) from the benchmark's own thread, which is also the engine's
// dispatcher, and times calls into the ingest and engine layers from the
// outside.
//
//  * Closed loop (replay_calls): one pass pulls the whole stream from
//    `PcapReplaySource` over the in-memory pcap as fast as the engine takes
//    it, polling every 1024 packets, then calls finish(). Passes repeat on
//    fresh engines for the run's measuring time; pkts_per_s and the window
//    latencies are medians over passes. A closed loop has no schedule, so
//    a window is due when the feed hands over the packet that crossed its
//    end (arith.hpp, `Crossings`).
//  * Open loop (live_calls): one pass feeds packets from memory on a
//    real-time schedule and drives pump on a fixed 1 ms tick, like a
//    capture timer; a window is due when the schedule crosses its end. The
//    traced run of replay_calls adds a short one over the pcap to measure
//    the generator's lag.
//
// Window latency is timed per (flow, window) from its due point to the
// poll() (or finish()) that handed the result over.

#include <cstdint>
#include <map>
#include <string>

#include "engine/multi_flow_engine.hpp"
#include "harness/calls.hpp"
#include "harness/gate.hpp"
#include "harness/models.hpp"
#include "harness/trace.hpp"

namespace perfbench {

struct RunContext {
  const Inputs& inputs;
  /// Reference of the whole stream, and of the prefix the traced run's
  /// real-time pass feeds on closed loops (the same for live_calls).
  const Reference& reference;
  const Reference& pacedReference;
  engine::EngineOptions options;
  /// Non-null in the traced run: the decorator timer of every forest.
  const InferenceTimer* timer = nullptr;
  bool trace = false;
  int seconds = 10;
};

struct RunOutcome {
  GateResult gate;
  Accuracy accuracy;
  /// Why an open-loop pass did not keep up with its schedule; empty when
  /// every pass did.
  std::string overload;
  /// pkts_per_s, window_latency_p50_ms, window_latency_p99_ms.
  std::map<std::string, double> endToEnd;
  /// Per-layer figures (filled in the traced run).
  std::map<std::string, double> layers;
  std::uint64_t latencySamples = 0;
  std::uint64_t passes = 0;
  /// Human-readable lines for the run log.
  std::vector<std::string> notes;
};

RunOutcome runClosedLoop(const RunContext& context, Tracer& tracer);
RunOutcome runLive(const RunContext& context, Tracer& tracer);

/// Traced run of live_calls, whose feed bypasses pcap: decodes the first
/// packets of its stream through `PcapReplaySource` so the ingest layer is
/// still timed on that traffic (off the end-to-end path).
void measureSideDecode(const Inputs& inputs, Tracer& tracer,
                       RunOutcome& outcome);

}  // namespace perfbench
