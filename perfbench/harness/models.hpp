#pragma once

// Set-up: per-VCA forests for the four QoE targets, trained on lab calls
// drawn from a fixed seed that no workload uses, registered as
// `ForestBackend`s in a `ModelRegistry`. In the traced run each forest is
// wrapped in a decorator that times every call into it.

#include <array>
#include <atomic>
#include <map>
#include <memory>
#include <string>

#include "harness/modules.hpp"
#include "inference/backend.hpp"
#include "inference/model_registry.hpp"
#include "ml/dataset.hpp"
#include "rxstats/qoe_metrics.hpp"

namespace perfbench {

class Tracer;

/// kIpUdp training rows per VCA, one dataset per target (in
/// `inference::kAllTargets` order).
using TrainingData =
    std::map<std::string, std::array<ml::Dataset, inference::kNumTargets>>;

/// Simulates the training calls and builds their rows. Input generation:
/// not part of the timed set-up.
TrainingData makeTrainingData();

/// Time spent inside decorated backends, summed over every thread.
struct InferenceTimer {
  std::atomic<std::int64_t> ns{0};
};

struct Models {
  std::shared_ptr<inference::ModelRegistry> registry;
  /// Summed `RandomForest::fit` wall time.
  double fitSeconds = 0.0;
};

/// Fits the 3 x 4 forests and registers them; with `timer`, each behind a
/// decorator that adds every call's wall time to it. Records one span per fit and one for the registry.
Models buildModels(const TrainingData& data, InferenceTimer* timer,
                   Tracer& tracer);

}  // namespace perfbench
