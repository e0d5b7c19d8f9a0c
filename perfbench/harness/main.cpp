// Repo benchmark entry point: runs one workload of simulated calls through the
// vcaqoe public API and prints its metrics.
//
//   perfbench_run --workload replay_calls|live_calls
//                 --seed N --seconds S --trace 0|1 [--trace-out FILE]
//
// A run generates its inputs from the seed, sets up (forest training,
// registry, engine construction) seven times and keeps the median time,
// computes the sequential per-flow reference, then measures for S seconds.
// Every window the engine delivers is checked against the reference. The
// last line of standard output is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// The exit code is 0 only when every window passed and every open-loop pass
// kept up with its schedule.

#include <charconv>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parse.hpp"
#include "common/simd.hpp"
#include "common/stats.hpp"
#include "harness/calls.hpp"
#include "harness/gate.hpp"
#include "harness/loops.hpp"
#include "harness/models.hpp"
#include "harness/proc.hpp"
#include "harness/trace.hpp"

namespace perfbench {
namespace {

struct Args {
  WorkloadKind kind = WorkloadKind::kReplay;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string traceOut;
};

std::optional<Args> parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false;
  bool haveSeed = false;
  bool haveSeconds = false;
  bool haveTrace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      bool known = false;
      for (auto kind : {WorkloadKind::kReplay, WorkloadKind::kLive}) {
        if (value == toString(kind)) {
          args.kind = kind;
          known = true;
        }
      }
      if (!known) return std::nullopt;
      haveWorkload = true;
    } else if (flag == "--seed") {
      const auto seed = vcaqoe::common::parseInt(value);
      if (!seed || *seed < 0) return std::nullopt;
      args.seed = static_cast<std::uint64_t>(*seed);
      haveSeed = true;
    } else if (flag == "--seconds") {
      const auto seconds = vcaqoe::common::parseInt(value);
      if (!seconds || *seconds < 1 || *seconds > 60) return std::nullopt;
      args.seconds = static_cast<int>(*seconds);
      haveSeconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      args.trace = value == "1";
      haveTrace = true;
    } else if (flag == "--trace-out") {
      args.traceOut = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || !haveWorkload || !haveSeed || !haveSeconds ||
      !haveTrace) {
    return std::nullopt;
  }
  return args;
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  return std::string(buffer, result.ptr);
}

struct Metric {
  double value;
  const char* unit;
};

/// Set-ups per run; `setup_s` is their median.
constexpr int kSetups = 7;

vcaqoe::engine::EngineOptions engineOptions(
    std::shared_ptr<vcaqoe::inference::ModelRegistry> registry) {
  vcaqoe::engine::EngineOptions options;
  // Caller thread + 3 workers = 4 threads. Everything else stays at the
  // engine's defaults: hash placement, no migration, no pinning,
  // per-window inference of all four targets.
  options.numWorkers = 3;
  options.registry = std::move(registry);
  return options;
}

int run(const Args& args) {
  std::printf("perfbench: workload %s, seed %llu, %d s, trace %d\n",
              toString(args.kind), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: %u hardware threads, SIMD arm %s\n",
              std::thread::hardware_concurrency(),
              vcaqoe::common::simd::toString(
                  vcaqoe::common::simd::activeLevel()));

  // ---- inputs (not timed)
  const TimeNs genStart = wallNs();
  const TrainingData training = makeTrainingData();
  Inputs inputs = makeInputs(args.kind, args.seed, args.seconds);
  std::printf(
      "inputs: %zu distinct calls, %zu flows, %llu packets (%.2f s to "
      "generate)\n",
      inputs.calls.size(), inputs.instances.size(),
      static_cast<unsigned long long>(inputs.packets),
      static_cast<double>(wallNs() - genStart) * 1e-9);

  // ---- set-up, kSetups times; the last registry serves the run
  Tracer tracer(args.trace);
  InferenceTimer timer;
  std::vector<double> setupS;
  std::vector<double> fitS;
  Models models;
  for (int r = 0; r < kSetups; ++r) {
    const TimeNs start = wallNs();
    const auto span = tracer.open("setup");
    models = buildModels(training, args.trace ? &timer : nullptr, tracer);
    {
      ScopedSpan construct(tracer, "engine.construct");
      vcaqoe::engine::MultiFlowEngine probe(
          engineOptions(models.registry));
      setupS.push_back(static_cast<double>(wallNs() - start) * 1e-9);
    }
    tracer.close(span);
    fitS.push_back(models.fitSeconds);
  }
  const auto options = engineOptions(models.registry);

  // ---- sequential reference (the correctness gate's expectation)
  const std::int64_t inferenceBefore = timer.ns.load();
  const TimeNs refStart = wallNs();
  const Reference reference =
      computeReference(inputs, options, inputs.cutNs, tracer);
  const std::int64_t referenceInferenceNs = timer.ns.load() - inferenceBefore;
  // Only the traced run of a closed loop feeds the shorter prefix.
  Tracer quiet(false);
  const Reference pacedReference =
      !args.trace || inputs.pacedCutNs == inputs.cutNs
          ? reference
          : computeReference(inputs, options, inputs.pacedCutNs, quiet);
  std::printf("reference: %llu windows over %llu packets (%.2f s)\n",
              static_cast<unsigned long long>(reference.windows),
              static_cast<unsigned long long>(reference.packets),
              static_cast<double>(wallNs() - refStart) * 1e-9);
  releaseCallPackets(inputs);
  // The memory mark covers the measured run: inputs as fed, the registry,
  // and everything the engine holds.
  if (!resetPeakRss()) {
    std::fprintf(stderr, "perfbench: cannot reset VmHWM via clear_refs\n");
    return 1;
  }

  // ---- measured run
  RunContext context{inputs,
                     reference,
                     pacedReference,
                     options,
                     args.trace ? &timer : nullptr,
                     args.trace,
                     args.seconds};
  // The run log prints how much CPU time the hypervisor gave other guests
  // during the measurement (`steal` in /proc/stat); the loops use it per
  // pass or per second to set measurements it slowed aside.
  const auto cpuBefore = hostCpu();
  RunOutcome outcome = args.kind == WorkloadKind::kLive
                           ? runLive(context, tracer)
                           : runClosedLoop(context, tracer);
  std::printf("host steal: %.1f%% of CPU time\n",
              100.0 * stealShare(cpuBefore, hostCpu()));
  if (args.trace && args.kind == WorkloadKind::kLive) {
    measureSideDecode(inputs, tracer, outcome);
  }
  const auto peakKb = peakRssKb();

  // ---- report
  const auto& a = outcome.accuracy;
  std::printf("passes: %llu; latency samples: %llu\n",
              static_cast<unsigned long long>(outcome.passes),
              static_cast<unsigned long long>(outcome.latencySamples));
  std::printf(
      "gate: %llu windows attempted, %llu failed (missing %llu, differing "
      "%llu, unpredicted %llu, extra %llu)\n",
      static_cast<unsigned long long>(outcome.gate.attempted),
      static_cast<unsigned long long>(outcome.gate.failed()),
      static_cast<unsigned long long>(outcome.gate.missing),
      static_cast<unsigned long long>(outcome.gate.differing),
      static_cast<unsigned long long>(outcome.gate.unpredicted),
      static_cast<unsigned long long>(outcome.gate.extra));
  std::printf("accuracy: %llu windows scored, %llu excluded (no valid truth)\n",
              static_cast<unsigned long long>(a.scored),
              static_cast<unsigned long long>(a.excluded));
  for (const auto& [vca, acc] : a.resolutionAccByVca) {
    std::printf("  resolution accuracy %s: %.4f\n", vca.c_str(), acc);
  }
  for (const auto& note : outcome.notes) std::printf("%s\n", note.c_str());
  if (!outcome.overload.empty()) {
    std::printf("OVERLOADED: %s\n", outcome.overload.c_str());
  }

  std::map<std::string, Metric> metrics;
  if (!args.trace) {
    metrics["pkts_per_s"] = {outcome.endToEnd["pkts_per_s"], "packets/s"};
    metrics["window_latency_p50_ms"] = {
        outcome.endToEnd["window_latency_p50_ms"], "ms"};
    metrics["window_latency_p99_ms"] = {
        outcome.endToEnd["window_latency_p99_ms"], "ms"};
    metrics["fps_mae"] = {a.fpsMae, "frames/s"};
    metrics["bitrate_mrae"] = {a.bitrateMrae, "ratio"};
    metrics["jitter_mae_ms"] = {a.jitterMaeMs, "ms"};
    metrics["resolution_acc"] = {a.resolutionAcc, "fraction"};
    metrics["setup_s"] = {vcaqoe::common::median(setupS), "s"};
    metrics["peak_rss_mb"] = {
        static_cast<double>(peakKb.value_or(0)) / 1024.0, "MiB"};
  } else {
    static const std::map<std::string, const char*> kUnits = {
        {"ingest.next_ns_per_pkt", "ns"},
        {"ingest.records_skipped", "count"},
        {"engine.on_packet_ns_per_pkt", "ns"},
        {"engine.poll_ns_per_result", "ns"},
        {"engine.finish_ms", "ms"},
        {"engine.dispatcher_busy_share", "fraction"},
        {"engine.worker_busy_share", "fraction"},
        {"engine.demux_cache_hit_ratio", "fraction"},
        {"engine.pkts_per_dispatch_batch", "packets"},
        {"engine.backlog_max_pkts", "packets"},
        {"engine.flows_admitted", "count"},
        {"engine.flows_evicted", "count"},
        {"engine.active_flows_max", "count"},
        {"inference.predict_ns_per_window", "ns"},
        {"inference.registry_hits", "count"},
        {"inference.registry_misses", "count"},
        {"gen.lag_p99_ms", "ms"},
        {"trace.overhead_share", "fraction"},
    };
    for (const auto& [name, unit] : kUnits) {
      const auto it = outcome.layers.find(name);
      if (it == outcome.layers.end()) {
        throw std::logic_error("per-layer metric not measured: " + name);
      }
      metrics[name] = {it->second, unit};
    }
    const TimeNs coreNs = tracer.totalNs("core.estimator") - referenceInferenceNs;
    metrics["core.on_packet_ns_per_pkt"] = {
        static_cast<double>(coreNs) / static_cast<double>(reference.packets),
        "ns"};
    metrics["core.windows"] = {static_cast<double>(reference.windows), "count"};
    metrics["ml.fit_s"] = {vcaqoe::common::median(fitS), "s"};
    metrics["accuracy.windows_excluded"] = {static_cast<double>(a.excluded),
                                            "count"};
    metrics["latency.samples"] = {
        static_cast<double>(outcome.latencySamples), "count"};

    std::printf("%-34s %8s %14s %14s\n", "span", "count", "total ms",
                "self ms");
    for (const auto& [name, totals] : tracer.totals()) {
      std::printf("%-34s %8zu %14.3f %14.3f\n", name.c_str(), totals.count,
                  static_cast<double>(totals.totalNs) * 1e-6,
                  static_cast<double>(totals.selfNs) * 1e-6);
    }
    if (!args.traceOut.empty()) {
      if (!tracer.writeJsonl(args.traceOut)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     args.traceOut.c_str());
        return 1;
      }
      std::printf("trace: %zu spans written to %s\n", tracer.spans().size(),
                  args.traceOut.c_str());
    }
  }

  const bool correct = outcome.gate.failed() == 0 && outcome.overload.empty() &&
                       outcome.gate.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.gate.attempted);
  json += ", \"failed\": " + std::to_string(outcome.gate.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + number(metric.value) +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const auto args = perfbench::parseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --workload replay_calls|live_calls "
                 "--seed N --seconds S(1-60) --trace 0|1 [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  try {
    return perfbench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
