#include "ml/random_forest.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>

#include "common/load.hpp"

namespace vcaqoe::ml {

void RandomForest::fit(const Dataset& data, TreeTask task,
                       const ForestOptions& options, std::uint64_t seed) {
  if (data.rows() == 0) {
    throw std::invalid_argument("RandomForest::fit: empty dataset");
  }
  // Validates the data, then orders each feature once for every tree.
  const RankTable ranks(data);
  // Before any fit thread starts: a throw inside one would terminate.
  if (task == TreeTask::kClassification) validateClassLabels(data.y);
  task_ = task;
  featureNames_ = data.featureNames;

  const std::size_t p = data.cols();
  TreeOptions treeOptions = options.tree;
  if (options.maxFeatures > 0) {
    treeOptions.maxFeatures = options.maxFeatures;
  } else if (treeOptions.maxFeatures == 0) {
    treeOptions.maxFeatures =
        task == TreeTask::kClassification
            ? std::max(1, static_cast<int>(std::sqrt(static_cast<double>(p))))
            : std::max(1, static_cast<int>(p) / 3);
  }

  const int numTrees = std::max(1, options.numTrees);
  trees_.assign(static_cast<std::size_t>(numTrees), DecisionTree{});

  // Derive an independent seed per tree so training order / threading does
  // not change results.
  common::Rng seeder(seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(numTrees));
  for (auto& s : seeds) {
    s = static_cast<std::uint64_t>(seeder.engine()());
  }

  const int threads =
      options.threads > 0 ? options.threads
                          : static_cast<int>(common::hardwareThreadsOr(1));

  auto trainRange = [&](int from, int to) {
    for (int t = from; t < to; ++t) {
      common::Rng rng(seeds[static_cast<std::size_t>(t)]);
      // Bootstrap sample (with replacement) of the training rows.
      std::vector<std::size_t> sample(data.rows());
      for (auto& s : sample) {
        s = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(data.rows()) - 1));
      }
      trees_[static_cast<std::size_t>(t)].fit(ranks, sample, task,
                                              treeOptions, rng);
    }
  };

  if (threads <= 1 || numTrees == 1) {
    trainRange(0, numTrees);
  } else {
    std::vector<std::thread> pool;
    const int chunk = (numTrees + threads - 1) / threads;
    for (int from = 0; from < numTrees; from += chunk) {
      pool.emplace_back(trainRange, from, std::min(numTrees, from + chunk));
    }
    for (auto& th : pool) th.join();
  }

  // Aggregate and normalize importance.
  importance_.assign(p, 0.0);
  for (const auto& tree : trees_) {
    const auto& imp = tree.featureImportance();
    for (std::size_t f = 0; f < p; ++f) importance_[f] += imp[f];
  }
  double total = 0.0;
  for (const double v : importance_) total += v;
  if (total > 0.0) {
    for (double& v : importance_) v /= total;
  }
}

RandomForest RandomForest::fromParts(TreeTask task,
                                     std::vector<std::string> featureNames,
                                     std::vector<DecisionTree> trees,
                                     std::vector<double> importance) {
  RandomForest forest;
  forest.task_ = task;
  forest.featureNames_ = std::move(featureNames);
  forest.trees_ = std::move(trees);
  forest.importance_ = std::move(importance);
  return forest;
}

double RandomForest::predict(std::span<const double> x) const {
  if (trees_.empty()) {
    throw std::logic_error("RandomForest::predict before fit");
  }
  if (task_ == TreeTask::kRegression) {
    double sum = 0.0;
    for (const auto& tree : trees_) sum += tree.predict(x);
    return sum / static_cast<double>(trees_.size());
  }
  std::map<int, int> votes;
  for (const auto& tree : trees_) {
    ++votes[static_cast<int>(tree.predict(x))];
  }
  int best = 0;
  int bestVotes = -1;
  for (const auto& [cls, count] : votes) {
    if (count > bestVotes) {
      best = cls;
      bestVotes = count;
    }
  }
  return static_cast<double>(best);
}

std::vector<double> RandomForest::predictAll(const Dataset& data) const {
  std::vector<double> out;
  out.reserve(data.rows());
  for (const auto& row : data.x) out.push_back(predict(row));
  return out;
}

std::vector<double> RandomForest::featureImportance() const {
  return importance_;
}

std::vector<std::pair<std::string, double>> RandomForest::rankedImportance()
    const {
  std::vector<std::pair<std::string, double>> ranked;
  for (std::size_t f = 0; f < importance_.size(); ++f) {
    const std::string name = f < featureNames_.size()
                                 ? featureNames_[f]
                                 : "feature_" + std::to_string(f);
    ranked.emplace_back(name, importance_[f]);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return ranked;
}

CvPrediction crossValidate(const Dataset& data, TreeTask task,
                           const ForestOptions& options, int folds,
                           std::uint64_t seed) {
  data.validate();
  common::Rng rng(seed);
  const auto assignment = kFoldAssignment(data.rows(), folds, rng);

  CvPrediction result;
  result.predicted.assign(data.rows(), 0.0);
  result.truth = data.y;

  for (int fold = 0; fold < folds; ++fold) {
    const auto split = foldIndices(assignment, fold);
    if (split.test.empty() || split.train.empty()) continue;
    const Dataset trainSet = data.subset(split.train);
    RandomForest forest;
    forest.fit(trainSet, task, options,
               seed ^ (0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(
                                                   fold + 1)));
    for (const std::size_t i : split.test) {
      result.predicted[i] = forest.predict(data.x[i]);
    }
  }
  return result;
}

}  // namespace vcaqoe::ml
