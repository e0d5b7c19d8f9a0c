#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"

/// Random forests — the model family the paper settles on after comparing
/// SVMs, decision trees, and random forests (§4.3): bootstrap-bagged CART
/// trees with per-split feature subsampling, plus impurity-based feature
/// importance (Figs 5, 7, 9, A.4-A.9).
namespace vcaqoe::ml {

struct ForestOptions {
  int numTrees = 60;
  TreeOptions tree;
  /// Per-split feature subsample: 0 derives the usual default, sqrt(p) for
  /// classification and max(1, p/3) for regression.
  int maxFeatures = 0;
  /// Trees trained concurrently; 0 = hardware concurrency.
  int threads = 0;
};

class RandomForest {
 public:
  RandomForest() = default;

  /// Throws std::invalid_argument on an empty or invalid dataset
  /// (Dataset::validate: ragged rows, non-finite values).
  void fit(const Dataset& data, TreeTask task, const ForestOptions& options,
           std::uint64_t seed);

  /// Mean of tree outputs (regression) or majority vote (classification).
  double predict(std::span<const double> x) const;
  std::vector<double> predictAll(const Dataset& data) const;

  /// Impurity-decrease importance, normalized to sum to 1.
  std::vector<double> featureImportance() const;

  /// (name, importance) pairs sorted descending; requires the training
  /// dataset to have carried feature names.
  std::vector<std::pair<std::string, double>> rankedImportance() const;

  bool trained() const { return !trees_.empty(); }
  TreeTask task() const { return task_; }
  std::size_t treeCount() const { return trees_.size(); }
  const std::vector<std::string>& featureNames() const {
    return featureNames_;
  }
  const std::vector<DecisionTree>& trees() const { return trees_; }

  /// Persistence support: reconstructs a forest from its parts.
  static RandomForest fromParts(TreeTask task,
                                std::vector<std::string> featureNames,
                                std::vector<DecisionTree> trees,
                                std::vector<double> importance);

 private:
  TreeTask task_ = TreeTask::kRegression;
  std::vector<DecisionTree> trees_;
  std::vector<double> importance_;  // normalized
  std::vector<std::string> featureNames_;
};

/// One fold of cross-validated predictions.
struct CvPrediction {
  std::vector<double> predicted;  // aligned with Dataset rows
  std::vector<double> truth;
};

/// K-fold cross-validated out-of-fold predictions (the paper reports all
/// accuracy numbers over 5-fold CV). Returned vectors align with the
/// dataset's row order.
CvPrediction crossValidate(const Dataset& data, TreeTask task,
                           const ForestOptions& options, int folds,
                           std::uint64_t seed);

}  // namespace vcaqoe::ml
