#include "harness/loops.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>

#include "common/stats.hpp"
#include "harness/proc.hpp"
#include "ingest/pcap_replay.hpp"
#include "netflow/pcap.hpp"

namespace perfbench {
namespace {

/// Closed loop: packets fed between two polls.
constexpr std::size_t kPollEvery = 1024;
/// Open loop: wall-clock tick of the feed and `pump`, and the interval at
/// which results are polled.
constexpr TimeNs kLiveTickNs = 1'000'000;
constexpr TimeNs kLivePollNs = 100'000;
/// Closed loop: the feed waits while any shard holds more packets than this
/// (64 dispatch batches), as a capture ring of bounded size would.
constexpr std::uint64_t kMaxShardBacklog = 16384;
/// Closed loop: how long the feed sleeps before checking the backlog again.
constexpr TimeNs kBackpressureSleepNs = 20'000;
/// Open loop: the run fails when the generator's lag p99 exceeds this.
constexpr double kMaxLagP99Ms = 50.0;
/// Open loop: slack on the flat-backlog rule, in packets.
constexpr double kBacklogSlackPkts = 4096.0;
/// Latency percentiles are taken over segments of consecutive due-seconds
/// with at least this many samples beyond the percentile (see
/// segmentPercentiles): 20-sample segments for p50, 1000 for p99.
constexpr double kMinSamplesBeyond = 10.0;

double toMs(TimeNs ns) { return static_cast<double>(ns) * 1e-6; }

double percentileOf(std::vector<double> xs, double p) {
  return common::percentile(xs, p);
}

std::uint64_t maxBacklog(const engine::EngineStats& stats) {
  std::uint64_t backlog = 0;
  for (const auto& shard : stats.shardLoads) {
    backlog = std::max(backlog, shard.backlog);
  }
  return backlog;
}

std::uint64_t skippedRecords(const netflow::PcapParseStats& parse) {
  return parse.skippedNonUdp + parse.skippedBadUdpLength +
         parse.truncatedRecords;
}

std::string quartiles(std::vector<double> xs) {
  if (xs.empty()) return "none";
  std::sort(xs.begin(), xs.end());
  return "min " + std::to_string(xs.front()) + " q1 " +
         std::to_string(common::percentile(xs, 25.0)) + " median " +
         std::to_string(common::percentile(xs, 50.0)) + " q3 " +
         std::to_string(common::percentile(xs, 75.0)) + " max " +
         std::to_string(xs.back());
}

/// Reads a workload's stream in arrival order, up to `cutNs`, from wherever
/// the workload keeps it: replay_calls through `PcapReplaySource` over its
/// pcap, the others from memory.
class StreamCursor {
 public:
  StreamCursor(const Inputs& inputs, TimeNs cutNs)
      : inputs_(inputs), cutNs_(cutNs) {
    if (inputs.kind == WorkloadKind::kReplay) {
      source_ = std::make_unique<ingest::PcapReplaySource>(
          std::span<const std::uint8_t>(inputs.pcap));
    }
  }

  bool next(ingest::SourcePacket& out) {
    if (source_) {
      if (!source_->next(out)) return false;
    } else {
      if (next_ >= inputs_.packets) return false;
      out = inputs_.sourceAt(next_++);
    }
    return out.packet.arrivalNs < cutNs_;
  }

  /// Span name of the generator step: the ingest layer, or the benchmark's
  /// own copy from memory.
  const char* spanName() const {
    return source_ ? "ingest.next" : "gen.fill";
  }

  std::uint64_t skipped() const {
    return source_ ? skippedRecords(source_->parseStats()) : 0;
  }

 private:
  const Inputs& inputs_;
  TimeNs cutNs_;
  std::unique_ptr<ingest::PcapReplaySource> source_;
  std::size_t next_ = 0;
};

/// What one engine run measured.
struct Pass {
  bool traced = false;
  TimeNs wallNs = 0;
  std::uint64_t packets = 0;
  TimeNs callerCpuNs = 0;
  TimeNs processCpuNs = 0;
  LatencySamples latency;  // open loop only
  /// Open loop: host steal share of each wall second of the schedule.
  std::vector<double> stealBySecond;
  /// Closed loop: hand-over latency percentiles over the pass's windows.
  double handOverP50Ms = 0.0;
  double handOverP99Ms = 0.0;
  std::uint64_t handOverSamples = 0;
  std::uint64_t polledResults = 0;
  std::uint64_t results = 0;
  engine::EngineStats stats;
  std::uint64_t backlogMax = 0;
  std::size_t activeFlowsMax = 0;
  inference::RegistryStats registry;  // delta over the pass
  std::int64_t inferenceNs = 0;       // decorator time during the pass
  std::uint64_t skipped = 0;
  GateResult gate;
  // Open loop only.
  double lagP99Ms = 0.0;
  std::string overload;  // empty: the engine kept up
  std::string loadNote;
};

/// One engine and the results it delivers, with the accounting both loops
/// share.
class PassRun {
 public:
  PassRun(const RunContext& context, Tracer& tracer, bool traced,
          const Reference& reference)
      : t(tracer),
        eng(context.options),
        context_(context),
        reference_(reference) {
    pass.traced = traced;
    results_.reserve(reference.windows + kPollEvery);
    registryBefore_ = context.options.registry->stats();
    inferenceBefore_ =
        context.timer != nullptr ? context.timer->ns.load() : 0;
  }

  /// Starts the timed interval.
  void start() {
    startNs_ = wallNs();
    cpu0_ = threadCpuNs();
    proc0_ = processCpuNs();
    span_ = t.open("pass");
  }

  /// Drains available results; returns how many arrived.
  std::size_t poll() {
    const std::size_t before = results_.size();
    ScopedSpan span(t, "engine.poll");
    eng.poll(results_);
    return results_.size() - before;
  }

  const std::vector<engine::EngineResult>& results() const {
    return results_;
  }

  /// When finish() returned.
  TimeNs finishedNs() const { return finishedNs_; }
  /// The 5-tuple of every flow id, once finish() returned.
  const std::vector<netflow::FlowKey>& flowKeys() const { return keys_; }

  std::uint64_t sampleLoad() {
    const auto stats = eng.stats();
    const auto backlog = maxBacklog(stats);
    pass.backlogMax = std::max(pass.backlogMax, backlog);
    pass.activeFlowsMax = std::max(pass.activeFlowsMax, stats.activeFlows);
    return backlog;
  }

  /// finish() ends the timed interval; then the gate checks every window.
  Pass finish(std::optional<Accuracy>* accuracy) {
    pass.polledResults = results_.size();
    std::vector<engine::EngineResult> rest;
    {
      ScopedSpan span(t, "engine.finish");
      rest = eng.finish();
    }
    finishedNs_ = wallNs();
    pass.wallNs = finishedNs_ - startNs_;
    pass.callerCpuNs = threadCpuNs() - cpu0_;
    pass.processCpuNs = processCpuNs() - proc0_;
    t.close(span_);
    results_.insert(results_.end(), std::make_move_iterator(rest.begin()),
                    std::make_move_iterator(rest.end()));

    pass.results = results_.size();
    pass.stats = eng.stats();
    const auto registryAfter = context_.options.registry->stats();
    pass.registry.hits = registryAfter.hits - registryBefore_.hits;
    pass.registry.misses = registryAfter.misses - registryBefore_.misses;
    if (context_.timer != nullptr) {
      pass.inferenceNs = context_.timer->ns.load() - inferenceBefore_;
    }
    keys_ = flowKeysOf(eng);
    pass.gate = verify(context_.inputs, reference_, results_, keys_);
    if (accuracy != nullptr && !accuracy->has_value()) {
      *accuracy = scoreAccuracy(context_.inputs, results_, keys_);
    }
    return std::move(pass);
  }

  Tracer& t;
  engine::MultiFlowEngine eng;
  Pass pass;

 private:
  const RunContext& context_;
  const Reference& reference_;
  std::vector<engine::EngineResult> results_;
  std::vector<netflow::FlowKey> keys_;
  inference::RegistryStats registryBefore_;
  std::int64_t inferenceBefore_ = 0;
  TimeNs startNs_ = 0;
  TimeNs finishedNs_ = 0;
  TimeNs cpu0_ = 0;
  TimeNs proc0_ = 0;
  std::int32_t span_ = -1;
};

/// Closed loop: feeds the whole stream as fast as the engine takes it,
/// waiting only while a shard's queue is full.
Pass closedPass(const RunContext& context, Tracer& tracer, bool traced,
                std::optional<Accuracy>* accuracy) {
  Tracer quiet(false);
  PassRun run(context, traced ? tracer : quiet, traced, context.reference);
  Tracer& t = run.t;
  StreamCursor cursor(context.inputs, context.inputs.cutNs);
  std::vector<ingest::SourcePacket> batch(kPollEvery);
  // Interval k hands over stream positions [k * kPollEvery, (k + 1) *
  // kPollEvery); handedNs[k] is when its last onPacket returned. Each poll
  // that delivered results marks (results so far, when).
  std::vector<TimeNs> handedNs;
  handedNs.reserve(context.inputs.packets / kPollEvery + 1);
  std::vector<std::pair<std::size_t, TimeNs>> delivered;
  auto poll = [&run, &delivered]() {
    if (run.poll() > 0) delivered.emplace_back(run.results().size(), wallNs());
  };

  run.start();
  for (;;) {
    const auto interval = t.open("interval");
    std::size_t n = 0;
    {
      ScopedSpan span(t, cursor.spanName());
      while (n < kPollEvery && cursor.next(batch[n])) ++n;
    }
    {
      ScopedSpan span(t, "engine.on_packet");
      for (std::size_t i = 0; i < n; ++i) {
        run.eng.onPacket(batch[i].flow, batch[i].packet);
      }
    }
    handedNs.push_back(wallNs());
    poll();
    while (run.sampleLoad() > kMaxShardBacklog) {
      {
        ScopedSpan span(t, "gen.wait");
        sleepUntilNs(wallNs() + kBackpressureSleepNs);
      }
      poll();
    }
    t.close(interval);
    run.pass.packets += n;
    if (n < kPollEvery) break;
  }
  run.pass.skipped = cursor.skipped();
  Pass done = run.finish(accuracy);

  // Hand-over latency, off the clock: results past the last mark came
  // from finish().
  const auto& results = run.results();
  delivered.emplace_back(results.size(), run.finishedNs());
  const auto& keys = run.flowKeys();
  std::vector<double> latencyMs;
  latencyMs.reserve(results.size());
  std::size_t mark = 0;
  for (std::size_t r = 0; r < results.size(); ++r) {
    while (delivered[mark].first <= r) ++mark;
    const std::int64_t index = context.inputs.instanceOf(keys[results[r].flow]);
    if (index < 0) continue;
    const std::int64_t pos =
        context.inputs.instances[static_cast<std::size_t>(index)]
            .crossings.at(results[r].output.window);
    if (pos < 0) continue;
    const TimeNs handed =
        handedNs[static_cast<std::size_t>(pos) / kPollEvery];
    latencyMs.push_back(toMs(delivered[mark].second - handed));
  }
  done.handOverSamples = latencyMs.size();
  if (!latencyMs.empty()) {
    done.handOverP50Ms = percentileOf(latencyMs, 50.0);
    done.handOverP99Ms = percentileOf(std::move(latencyMs), 99.0);
  }
  return done;
}

/// Open loop: feeds the stream up to `cutNs` on a real-time schedule and
/// drives pump every `kLiveTickNs`, like a capture timer; the packets that
/// fell due since the last tick are handed over in one burst. Results are
/// polled every `kLivePollNs`.
Pass openPass(const RunContext& context, Tracer& tracer, bool traced,
              const Reference& reference, TimeNs cutNs,
              std::optional<Accuracy>* accuracy) {
  const Inputs& inputs = context.inputs;
  Tracer quiet(false);
  PassRun run(context, traced ? tracer : quiet, traced, reference);
  Tracer& t = run.t;
  Pass& pass = run.pass;
  StreamCursor cursor(inputs, cutNs);
  std::vector<ingest::SourcePacket> burst;
  burst.reserve(16 * kPollEvery);
  // Generator lag histogram, 1 us bins up to 1 s (the last bin overflows).
  std::vector<std::uint64_t> lagHistogram(1'000'001, 0);
  std::vector<double> backlogSeries;
  pass.latency.ms.reserve(reference.windows);
  pass.latency.dueSecond.reserve(reference.windows);

  const Schedule schedule{wallNs() + 20'000'000, 0};
  // Polls, then samples latency from each window's end on the schedule to
  // its hand-over, for windows whose end the flow's stream crossed once
  // every placement is on the link (`Inputs::fullLoadNs`).
  // Window ends sit on the feed tick grid, so polls run between ticks too:
  // latency resolves to the poll interval, not the tick.
  auto pollAndSample = [&]() {
    const std::size_t arrived = run.poll();
    const TimeNs now = wallNs();
    const auto& results = run.results();
    const auto& flows = run.eng.flowStats();
    for (std::size_t k = results.size() - arrived; k < results.size(); ++k) {
      const std::int64_t index = inputs.instanceOf(flows[results[k].flow].key);
      if (index < 0) continue;
      const auto& instance = inputs.instances[static_cast<std::size_t>(index)];
      const std::int64_t w = results[k].output.window;
      const TimeNs lastFed = std::min(instance.lastArrivalNs, cutNs - 1);
      if (!windowSampled(w, kWindowNs, instance.firstArrivalNs, lastFed) ||
          (w + 1) * kWindowNs < inputs.fullLoadNs) {
        continue;
      }
      const TimeNs due = schedule.wallAt((w + 1) * kWindowNs);
      pass.latency.ms.push_back(toMs(now - due));
      pass.latency.dueSecond.push_back((due - schedule.wallStartNs) /
                                       kWindowNs);
    }
    return now;
  };

  // Host steal per wall second of the schedule. A window due at second s
  // is processed in wall second s, so its latency pairs with that share.
  auto stealMark = hostCpu();
  auto markSteal = [&](TimeNs now) {
    const auto second = static_cast<std::size_t>(
        std::max<TimeNs>(0, (now - schedule.wallStartNs) / kWindowNs));
    if (second <= pass.stealBySecond.size()) return;
    const auto cpu = hostCpu();
    pass.stealBySecond.resize(second, stealShare(stealMark, cpu));
    stealMark = cpu;
  };

  ingest::SourcePacket pending;
  bool havePending = cursor.next(pending);
  TimeNs nextPoll = schedule.wallStartNs;
  sleepUntilNs(schedule.wallStartNs);
  run.start();
  for (std::int64_t poll = 0; havePending; ++poll) {
    sleepUntilNs(nextPoll);
    nextPoll += kLivePollNs;
    if (poll % (kLiveTickNs / kLivePollNs) != 0) {
      pollAndSample();
      continue;
    }
    const auto tick = t.open("tick");
    const TimeNs now = pollAndSample();
    markSteal(now);
    const TimeNs streamNow = schedule.streamAt(now);
    backlogSeries.push_back(static_cast<double>(run.sampleLoad()));
    burst.clear();
    {
      ScopedSpan span(t, cursor.spanName());
      while (havePending && pending.packet.arrivalNs <= streamNow) {
        burst.push_back(pending);
        havePending = cursor.next(pending);
      }
    }
    {
      ScopedSpan span(t, "engine.on_packet");
      for (const auto& sp : burst) run.eng.onPacket(sp.flow, sp.packet);
    }
    const TimeNs fed = wallNs();
    for (const auto& sp : burst) {
      const TimeNs lagNs = fed - schedule.wallAt(sp.packet.arrivalNs);
      ++lagHistogram[static_cast<std::size_t>(
          std::clamp<TimeNs>(lagNs / 1000, 0, 1'000'000))];
    }
    pass.packets += burst.size();
    {
      ScopedSpan span(t, "engine.pump");
      run.eng.pump(streamNow);
    }
    t.close(tick);
  }
  pollAndSample();
  pass.stealBySecond.push_back(stealShare(stealMark, hostCpu()));
  pass.skipped = cursor.skipped();
  Pass done = run.finish(accuracy);

  // Generator lag p99 from the histogram.
  const std::uint64_t target = (done.packets * 99 + 99) / 100;
  std::uint64_t seen = 0;
  for (std::size_t us = 0; us < lagHistogram.size(); ++us) {
    seen += lagHistogram[us];
    if (seen >= target) {
      done.lagP99Ms = static_cast<double>(us) * 1e-3;
      break;
    }
  }
  // Overload rules: the generator fell behind its schedule, or the backlog
  // grew across the pass (last quarter of the ticks against the second,
  // which is past the ramp of late-starting calls).
  const std::size_t q = backlogSeries.size() / 4;
  double q2 = 0.0;
  double q4 = 0.0;
  for (std::size_t i = q; i < 2 * q; ++i) q2 += backlogSeries[i];
  for (std::size_t i = backlogSeries.size() - q; i < backlogSeries.size();
       ++i) {
    q4 += backlogSeries[i];
  }
  if (q > 0) {
    q2 /= static_cast<double>(q);
    q4 /= static_cast<double>(q);
  }
  if (done.lagP99Ms > kMaxLagP99Ms) {
    done.overload = "generator lag p99 " + std::to_string(done.lagP99Ms) +
                    " ms > " + std::to_string(kMaxLagP99Ms) + " ms";
  } else if (q4 > 2.0 * q2 + kBacklogSlackPkts) {
    done.overload = "backlog grew: mean " + std::to_string(q4) +
                    " pkts in the last quarter vs " + std::to_string(q2) +
                    " in the second";
  }
  done.loadNote = "open loop: " + std::to_string(done.packets) +
                  " packets in " + std::to_string(toMs(done.wallNs)) +
                  " ms; generator lag p99 " + std::to_string(done.lagP99Ms) +
                  " ms; shard backlog mean " + std::to_string(q2) +
                  " (2nd quarter) -> " + std::to_string(q4) +
                  " (last quarter), max " + std::to_string(done.backlogMax) +
                  " pkts; " + std::to_string(backlogSeries.size()) + " ticks";
  return done;
}

/// Per-layer figures over the traced passes (shared by both loops).
void layerFigures(const RunContext& context, const std::vector<Pass>& passes,
                  const Tracer& tracer, RunOutcome& out) {
  std::uint64_t packets = 0;
  std::uint64_t polled = 0;
  std::uint64_t results = 0;
  TimeNs wall = 0;
  TimeNs caller = 0;
  TimeNs process = 0;
  std::int64_t inference = 0;
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t ingested = 0;
  std::uint64_t batches = 0;
  std::uint64_t backlogMax = 0;
  std::size_t activeMax = 0;
  std::uint64_t skipped = 0;
  const Pass* last = nullptr;
  for (const auto& pass : passes) {
    if (!pass.traced) continue;
    last = &pass;
    packets += pass.packets;
    polled += pass.polledResults;
    results += pass.results;
    wall += pass.wallNs;
    caller += pass.callerCpuNs;
    process += pass.processCpuNs;
    inference += pass.inferenceNs;
    lookups += pass.stats.demuxCacheLookups;
    hits += pass.stats.demuxCacheHits;
    ingested += pass.stats.packetsIngested;
    batches += pass.stats.batchesDispatched;
    backlogMax = std::max(backlogMax, pass.backlogMax);
    activeMax = std::max(activeMax, pass.activeFlowsMax);
    skipped += pass.skipped;
  }
  if (last == nullptr) return;
  const double workers = context.options.numWorkers;
  auto& l = out.layers;
  if (context.inputs.kind == WorkloadKind::kReplay) {
    l["ingest.next_ns_per_pkt"] =
        static_cast<double>(tracer.totalNs("ingest.next")) /
        static_cast<double>(packets);
    l["ingest.records_skipped"] = static_cast<double>(skipped);
  }
  l["engine.on_packet_ns_per_pkt"] =
      static_cast<double>(tracer.totalNs("engine.on_packet")) /
      static_cast<double>(packets);
  l["engine.poll_ns_per_result"] =
      static_cast<double>(tracer.totalNs("engine.poll")) /
      static_cast<double>(std::max<std::uint64_t>(polled, 1));
  std::vector<double> finishMs;
  for (const TimeNs d : tracer.durations("engine.finish")) {
    finishMs.push_back(toMs(d));
  }
  l["engine.finish_ms"] = percentileOf(finishMs, 50.0);
  l["engine.dispatcher_busy_share"] =
      static_cast<double>(caller) / static_cast<double>(wall);
  l["engine.worker_busy_share"] = static_cast<double>(process - caller) /
                                  (static_cast<double>(wall) * workers);
  l["engine.demux_cache_hit_ratio"] =
      static_cast<double>(hits) /
      static_cast<double>(std::max<std::uint64_t>(lookups, 1));
  l["engine.pkts_per_dispatch_batch"] =
      static_cast<double>(ingested) /
      static_cast<double>(std::max<std::uint64_t>(batches, 1));
  l["engine.backlog_max_pkts"] = static_cast<double>(backlogMax);
  l["engine.flows_admitted"] = static_cast<double>(last->stats.flows);
  l["engine.flows_evicted"] = static_cast<double>(last->stats.flowsEvicted);
  l["engine.active_flows_max"] = static_cast<double>(activeMax);
  l["inference.predict_ns_per_window"] =
      static_cast<double>(inference) / static_cast<double>(results);
  l["inference.registry_hits"] = static_cast<double>(last->registry.hits);
  l["inference.registry_misses"] = static_cast<double>(last->registry.misses);
  out.notes.push_back("demux cache: " + std::to_string(hits) + " hits of " +
                      std::to_string(lookups) + " lookups; " +
                      std::to_string(ingested) + " packets in " +
                      std::to_string(batches) + " dispatch batches");
}

/// Latency of one open-loop pass: per-segment percentiles, then their
/// median over the segments with the least host steal (`leastStolen`), so
/// a second of host interference moves one value of several rather than
/// the pooled tail. Returns {p50, p99}.
std::pair<double, double> latencyFigures(const Pass& pass, RunOutcome& out) {
  if (pass.latency.ms.empty()) {
    out.overload = "no window reached its due point at full load";
    return {0.0, 0.0};
  }
  auto segmented = [&pass](double p) {
    const auto minSamples =
        static_cast<std::size_t>(std::ceil(kMinSamplesBeyond / (1.0 - p / 100.0)));
    std::vector<double> values;
    std::vector<double> steal;
    for (const auto& segment : segmentPercentiles(pass.latency, p, minSamples)) {
      values.push_back(segment.value);
      double sum = 0.0;
      for (auto s = segment.firstSecond; s <= segment.lastSecond; ++s) {
        const auto k = static_cast<std::size_t>(std::max<std::int64_t>(s, 0));
        sum += k < pass.stealBySecond.size() ? pass.stealBySecond[k] : 0.0;
      }
      steal.push_back(
          sum / static_cast<double>(segment.lastSecond - segment.firstSecond + 1));
    }
    return std::pair{values, leastStolen(values, steal)};
  };
  const auto [p50, p50Kept] = segmented(50.0);
  const auto [p99, p99Kept] = segmented(99.0);
  out.notes.push_back(pass.loadNote);
  out.notes.push_back("host steal per second: " + quartiles(pass.stealBySecond));
  out.notes.push_back(
      "latency: " + std::to_string(pass.latency.ms.size()) + " windows; p50 over " +
      std::to_string(p50.size()) + " segments: " + quartiles(p50) + "; kept " +
      std::to_string(p50Kept.size()) + ": " + quartiles(p50Kept) + "; p99 over " +
      std::to_string(p99.size()) + " segments: " + quartiles(p99) + "; kept " +
      std::to_string(p99Kept.size()) + ": " + quartiles(p99Kept));
  if (!pass.overload.empty()) out.overload = pass.overload;
  return {percentileOf(p50Kept, 50.0), percentileOf(p99Kept, 50.0)};
}

/// Cost of one open/close span pair, measured on a scratch tracer.
double spanCostNs() {
  Tracer scratch(true);
  constexpr int kSpans = 100'000;
  const TimeNs start = wallNs();
  for (int i = 0; i < kSpans; ++i) scratch.close(scratch.open("probe"));
  return static_cast<double>(wallNs() - start) / kSpans;
}

}  // namespace

RunOutcome runClosedLoop(const RunContext& context, Tracer& tracer) {
  RunOutcome out;
  std::optional<Accuracy> accuracy;
  // Warm-up pass: lets allocator pools, page tables and caches settle.
  // Verified and scored, not timed.
  out.gate += closedPass(context, tracer, false, &accuracy).gate;
  out.accuracy = *accuracy;

  // Throughput: closed-loop passes for the run's measuring time. The traced
  // run alternates traced and untraced passes, so the gap between them is
  // the tracing overhead.
  std::vector<Pass> passes;
  std::vector<double> pps[2];  // untraced, traced
  std::vector<double> steal[2];
  std::vector<double> p50Ms;   // untraced passes
  std::vector<double> p99Ms;
  const TimeNs budget = static_cast<TimeNs>(context.seconds) * 1'000'000'000;
  TimeNs measured = 0;
  while (measured < budget || passes.size() < 4) {
    const bool traced = context.trace && passes.size() % 2 == 0;
    const auto cpu = hostCpu();
    passes.push_back(closedPass(context, tracer, traced, nullptr));
    const Pass& pass = passes.back();
    steal[traced ? 1 : 0].push_back(stealShare(cpu, hostCpu()));
    measured += pass.wallNs;
    out.gate += pass.gate;
    pps[traced ? 1 : 0].push_back(static_cast<double>(pass.packets) /
                                  (static_cast<double>(pass.wallNs) * 1e-9));
    if (!traced) {
      p50Ms.push_back(pass.handOverP50Ms);
      p99Ms.push_back(pass.handOverP99Ms);
      out.latencySamples += pass.handOverSamples;
    }
  }
  // Medians over the passes with the least host steal (`leastStolen`).
  const auto kept = [&steal](const std::vector<double>& values, int traced) {
    return leastStolen(values, steal[traced]);
  };
  out.passes = passes.size();
  out.endToEnd["pkts_per_s"] = percentileOf(kept(pps[0], 0), 50.0);
  out.endToEnd["window_latency_p50_ms"] = percentileOf(kept(p50Ms, 0), 50.0);
  out.endToEnd["window_latency_p99_ms"] = percentileOf(kept(p99Ms, 0), 50.0);
  out.notes.push_back("host steal per untraced pass: " + quartiles(steal[0]) +
                      "; " + std::to_string(kept(pps[0], 0).size()) + " of " +
                      std::to_string(pps[0].size()) + " passes kept");
  out.notes.push_back("closed-loop pkts/s per untraced pass: " +
                      quartiles(pps[0]) + "; kept: " + quartiles(kept(pps[0], 0)));
  out.notes.push_back("hand-over latency p50 ms per untraced pass: " +
                      quartiles(p50Ms) + "; kept: " + quartiles(kept(p50Ms, 0)));
  out.notes.push_back("hand-over latency p99 ms per untraced pass: " +
                      quartiles(p99Ms) + "; kept: " + quartiles(kept(p99Ms, 0)));

  if (context.trace) {
    // The generator's lag against a real-time schedule, on a short open-loop
    // pass over the stream's first seconds.
    const Pass paced =
        openPass(context, tracer, false, context.pacedReference,
                 context.inputs.pacedCutNs, nullptr);
    out.gate += paced.gate;
    latencyFigures(paced, out);
    layerFigures(context, passes, tracer, out);
    out.layers["gen.lag_p99_ms"] = paced.lagP99Ms;
    const double untraced = percentileOf(kept(pps[0], 0), 50.0);
    const double traced = percentileOf(kept(pps[1], 1), 50.0);
    out.layers["trace.overhead_share"] = untraced / traced - 1.0;
    out.notes.push_back("tracing overhead: traced passes median " +
                        std::to_string(traced) + " pkts/s vs untraced " +
                        std::to_string(untraced) + " pkts/s");
  }
  return out;
}

RunOutcome runLive(const RunContext& context, Tracer& tracer) {
  RunOutcome out;
  std::optional<Accuracy> accuracy;
  const std::size_t spansBefore = tracer.spans().size();
  Pass pass = openPass(context, tracer, context.trace, context.reference,
                       context.inputs.cutNs, &accuracy);
  out.gate = pass.gate;
  out.accuracy = *accuracy;
  out.passes = 1;
  out.endToEnd["pkts_per_s"] = static_cast<double>(pass.packets) /
                               (static_cast<double>(pass.wallNs) * 1e-9);
  const auto [p50, p99] = latencyFigures(pass, out);
  out.endToEnd["window_latency_p50_ms"] = p50;
  out.endToEnd["window_latency_p99_ms"] = p99;
  out.latencySamples = pass.latency.ms.size();

  if (context.trace) {
    const std::size_t spans = tracer.spans().size() - spansBefore;
    const double lagP99Ms = pass.lagP99Ms;
    const TimeNs wall = pass.wallNs;
    std::vector<Pass> passes;
    passes.push_back(std::move(pass));
    layerFigures(context, passes, tracer, out);
    out.layers["gen.lag_p99_ms"] = lagP99Ms;
    // One pass cannot be split into traced and untraced halves; estimate the
    // overhead from the spans it recorded and the measured cost of one.
    out.layers["trace.overhead_share"] =
        static_cast<double>(spans) * spanCostNs() / static_cast<double>(wall);
  }
  return out;
}

void measureSideDecode(const Inputs& inputs, Tracer& tracer,
                       RunOutcome& outcome) {
  netflow::PcapWriter writer;
  const std::size_t written = std::min<std::size_t>(inputs.packets, 500'000);
  for (std::size_t i = 0; i < written; ++i) {
    const auto source = inputs.sourceAt(i);
    writer.write(source.flow, source.packet);
  }
  ingest::PcapReplaySource source(
      std::span<const std::uint8_t>(writer.bytes()));
  std::vector<ingest::SourcePacket> batch(kPollEvery);
  std::size_t decoded = 0;
  const TimeNs before = tracer.totalNs("ingest.next");
  for (;;) {
    std::size_t n = 0;
    {
      ScopedSpan span(tracer, "ingest.next");
      while (n < kPollEvery && source.next(batch[n])) ++n;
    }
    decoded += n;
    if (n < kPollEvery) break;
  }
  if (decoded != written) {
    throw std::runtime_error("side decode returned " +
                             std::to_string(decoded) + " of " +
                             std::to_string(written) + " packets");
  }
  outcome.layers["ingest.next_ns_per_pkt"] =
      static_cast<double>(tracer.totalNs("ingest.next") - before) /
      static_cast<double>(decoded);
  outcome.layers["ingest.records_skipped"] =
      static_cast<double>(skippedRecords(source.parseStats()));
  outcome.notes.push_back("ingest timed on a side decode of the first " +
                          std::to_string(decoded) +
                          " stream packets (off the end-to-end path)");
}

}  // namespace perfbench
