#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "ml/dataset.hpp"

/// CART decision trees (regression via variance reduction, classification
/// via Gini impurity) — the base learner of the random forests the paper's
/// ML methods use (§4.3).
namespace vcaqoe::ml {

enum class TreeTask : std::uint8_t { kRegression, kClassification };

struct TreeOptions {
  int maxDepth = 18;
  int minSamplesLeaf = 2;
  int minSamplesSplit = 4;
  /// Number of features examined per split; 0 = all (single tree), forests
  /// pass sqrt(p) (classification) or p/3 (regression).
  int maxFeatures = 0;
};

/// Every dataset row ordered by (feature value, target), once per feature:
/// each row's rank, and the (value, target) pair at each rank. Built once
/// per fit and shared read-only by every tree grown on the same dataset, so
/// a node orders its rows by walking their ranks instead of sorting.
/// Memory: cols x rows x 20 B. Holds a reference to `data`.
class RankTable {
 public:
  /// Throws std::invalid_argument on an empty or invalid dataset
  /// (Dataset::validate: ragged rows, non-finite values).
  explicit RankTable(const Dataset& data);
  explicit RankTable(Dataset&&) = delete;

  const Dataset& data() const { return data_; }
  std::size_t rows() const { return data_.rows(); }
  /// Rank of `row` in feature `f`'s (value, target) order.
  std::uint32_t rank(std::size_t f, std::size_t row) const {
    return rank_[f * rows() + row];
  }
  /// (value, target) of feature `f` at rank `r`.
  const std::pair<double, double>& sorted(std::size_t f,
                                          std::uint32_t r) const {
    return sorted_[f * rows() + r];
  }

 private:
  const Dataset& data_;
  std::vector<std::uint32_t> rank_;               // [f * rows + row]
  std::vector<std::pair<double, double>> sorted_;  // [f * rows + rank]
};

/// Largest class label a classification fit accepts. Labels index per-class
/// counters, so they must be whole numbers in [0, kMaxClassLabel]; frame
/// heights, the largest labels the paper's targets use, fit.
inline constexpr double kMaxClassLabel = 65535.0;

/// Throws std::invalid_argument unless every label in `y` is a whole number
/// in [0, kMaxClassLabel] (NaN included among the rejected).
void validateClassLabels(std::span<const double> y);

class DecisionTree {
 public:
  /// Fits on the rows of `data` selected by `sampleIdx` (with repetition
  /// allowed — bagging passes bootstrap samples). Throws
  /// std::invalid_argument on empty or invalid data (Dataset::validate), a
  /// sample index out of range, or, for classification, a label
  /// `validateClassLabels` rejects.
  void fit(const Dataset& data, std::span<const std::size_t> sampleIdx,
           TreeTask task, const TreeOptions& options, common::Rng& rng);
  /// As above, on the rows of `ranks.data()`, reusing a prebuilt table.
  void fit(const RankTable& ranks, std::span<const std::size_t> sampleIdx,
           TreeTask task, const TreeOptions& options, common::Rng& rng);

  double predict(std::span<const double> x) const;

  /// Total impurity decrease credited to each feature during training
  /// (unnormalized; forests aggregate and normalize).
  const std::vector<double>& featureImportance() const { return importance_; }

  std::size_t nodeCount() const { return nodes_.size(); }
  bool trained() const { return !nodes_.empty(); }

  /// Serialized node layout (also the in-memory layout; exposed for model
  /// persistence).
  struct Node {
    // Leaf when featureIndex < 0.
    std::int32_t featureIndex = -1;
    double threshold = 0.0;  // go left when x[feature] <= threshold
    std::int32_t left = -1;
    std::int32_t right = -1;
    double value = 0.0;  // mean (regression) or majority class id

    friend bool operator==(const Node&, const Node&) = default;
  };

  /// Persistence support: raw node access and reconstruction.
  const std::vector<Node>& nodes() const { return nodes_; }
  static DecisionTree fromNodes(std::vector<Node> nodes, TreeTask task,
                                std::vector<double> importance);

 private:
  struct Builder;
  std::int32_t build(Builder& b, std::size_t begin, std::size_t end,
                     int depth);

  TreeTask task_ = TreeTask::kRegression;
  TreeOptions options_;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
  std::size_t totalSamples_ = 0;
};

}  // namespace vcaqoe::ml
