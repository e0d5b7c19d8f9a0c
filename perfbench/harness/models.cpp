#include "harness/models.hpp"

#include "core/evaluation.hpp"
#include "core/session.hpp"
#include "datasets/generators.hpp"
#include "harness/proc.hpp"
#include "harness/trace.hpp"
#include "inference/backends.hpp"
#include "ml/random_forest.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kTrainingSeed = 0x7EA1CA11ULL;
constexpr std::uint64_t kForestSeed = 0xF0E57ULL;

/// Decorator that forwards to `inner` and adds each call's wall time to a
/// shared `InferenceTimer`.
class TimingBackend final : public inference::InferenceBackend {
 public:
  TimingBackend(std::shared_ptr<const inference::InferenceBackend> inner,
                InferenceTimer& timer)
      : inner_(std::move(inner)), timer_(timer) {}

  void predict(std::span<const double> features,
               inference::PredictionSet& out) const override;
  void predictWindow(const inference::WindowContext& context,
                     inference::PredictionSet& out) const override;
  void predictBatch(std::span<const inference::FeatureRow> rows,
                    std::span<inference::PredictionSet> out) const override;
  void predictWindowBatch(
      std::span<const inference::WindowContext> contexts,
      std::span<inference::PredictionSet> out) const override;
  std::vector<inference::QoeTarget> targets() const override {
    return inner_->targets();
  }
  const std::string& name() const override { return inner_->name(); }

 private:
  void add(std::int64_t startNs) const;

  std::shared_ptr<const inference::InferenceBackend> inner_;
  InferenceTimer& timer_;
};

/// The forest the paper-reproduction benches train (bench_common.hpp).
ml::ForestOptions forestOptions() {
  ml::ForestOptions options;
  options.numTrees = 40;
  return options;
}

void TimingBackend::add(std::int64_t startNs) const {
  timer_.ns.fetch_add(wallNs() - startNs, std::memory_order_relaxed);
}

void TimingBackend::predict(std::span<const double> features,
                            inference::PredictionSet& out) const {
  const auto start = wallNs();
  inner_->predict(features, out);
  add(start);
}

void TimingBackend::predictWindow(const inference::WindowContext& context,
                                  inference::PredictionSet& out) const {
  const auto start = wallNs();
  inner_->predictWindow(context, out);
  add(start);
}

void TimingBackend::predictBatch(
    std::span<const inference::FeatureRow> rows,
    std::span<inference::PredictionSet> out) const {
  const auto start = wallNs();
  inner_->predictBatch(rows, out);
  add(start);
}

void TimingBackend::predictWindowBatch(
    std::span<const inference::WindowContext> contexts,
    std::span<inference::PredictionSet> out) const {
  const auto start = wallNs();
  inner_->predictWindowBatch(contexts, out);
  add(start);
}

/// The rxstats metric a QoE target is trained on.
rxstats::Metric metricFor(inference::QoeTarget target) {
  switch (target) {
    case inference::QoeTarget::kFrameRate:
      return rxstats::Metric::kFrameRate;
    case inference::QoeTarget::kBitrateKbps:
      return rxstats::Metric::kBitrate;
    case inference::QoeTarget::kFrameJitterMs:
      return rxstats::Metric::kFrameJitter;
    case inference::QoeTarget::kResolution:
      return rxstats::Metric::kResolution;
  }
  return rxstats::Metric::kFrameRate;
}

}  // namespace

TrainingData makeTrainingData() {
  datasets::LabDatasetOptions options;
  options.callsPerVca = 10;
  options.minCallSec = 50.0;
  options.maxCallSec = 80.0;
  options.seed = kTrainingSeed;
  const auto sessions = datasets::generateLabDataset(options);
  TrainingData data;
  for (const char* vca : {"meet", "teams", "webex"}) {
    const auto records =
        datasets::recordsForSessions(datasets::sessionsForVca(sessions, vca));
    for (std::size_t t = 0; t < inference::kNumTargets; ++t) {
      data[vca][t] = core::buildMlDataset(
          records, features::FeatureSet::kIpUdp,
          metricFor(inference::kAllTargets[t]), core::resolutionCodecFor(vca));
    }
  }
  return data;
}

Models buildModels(const TrainingData& data, InferenceTimer* timer,
                   Tracer& tracer) {
  Models models;
  std::map<std::string, std::array<ml::RandomForest, inference::kNumTargets>>
      forests;
  for (const auto& [vca, datasets] : data) {
    for (std::size_t t = 0; t < inference::kNumTargets; ++t) {
      ScopedSpan span(tracer, "ml.fit");
      const auto start = wallNs();
      forests[vca][t].fit(datasets[t],
                          core::taskFor(metricFor(inference::kAllTargets[t])),
                          forestOptions(), kForestSeed + t);
      models.fitSeconds += static_cast<double>(wallNs() - start) * 1e-9;
    }
  }
  ScopedSpan span(tracer, "inference.registry_build");
  models.registry = std::make_shared<inference::ModelRegistry>();
  for (const auto& [vca, perTarget] : forests) {
    for (std::size_t t = 0; t < inference::kNumTargets; ++t) {
      const auto target = inference::kAllTargets[t];
      std::shared_ptr<const inference::InferenceBackend> backend =
          std::make_shared<inference::ForestBackend>(
              perTarget[t], target,
              "forest:" + vca + "/" + std::string(inference::toString(target)),
              features::featureCount(features::FeatureSet::kIpUdp));
      if (timer != nullptr) {
        backend = std::make_shared<TimingBackend>(std::move(backend), *timer);
      }
      models.registry->registerBackend(vca, target, std::move(backend));
    }
  }
  return models;
}

}  // namespace perfbench
