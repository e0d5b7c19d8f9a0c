#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "ml/dataset.hpp"
#include "ml/decision_tree.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace vcaqoe::ml {
namespace {

// ---------------------------------------------------------------- dataset

TEST(Dataset, AddRowChecksWidth) {
  Dataset d;
  d.featureNames = {"a", "b"};
  d.addRow({1.0, 2.0}, 3.0);
  EXPECT_EQ(d.rows(), 1u);
  EXPECT_THROW(d.addRow({1.0}, 3.0), std::invalid_argument);
}

TEST(Dataset, AppendChecksNames) {
  Dataset a;
  a.featureNames = {"x"};
  a.addRow({1.0}, 0.0);
  Dataset b;
  b.featureNames = {"x"};
  b.addRow({2.0}, 1.0);
  a.append(b);
  EXPECT_EQ(a.rows(), 2u);
  Dataset c;
  c.featureNames = {"y"};
  EXPECT_THROW(a.append(c), std::invalid_argument);
}

TEST(Dataset, SubsetSelectsRows) {
  Dataset d;
  d.featureNames = {"x"};
  for (int i = 0; i < 5; ++i) d.addRow({static_cast<double>(i)}, i * 10.0);
  const std::vector<std::size_t> pick = {4, 0, 2};
  const Dataset sub = d.subset(pick);
  ASSERT_EQ(sub.rows(), 3u);
  EXPECT_DOUBLE_EQ(sub.x[0][0], 4.0);
  EXPECT_DOUBLE_EQ(sub.y[1], 0.0);
  EXPECT_DOUBLE_EQ(sub.y[2], 20.0);
}

TEST(Dataset, ValidateCatchesMismatch) {
  Dataset d;
  d.featureNames = {"x"};
  d.addRow({1.0}, 2.0);
  d.y.push_back(99.0);
  EXPECT_THROW(d.validate(), std::invalid_argument);
}

TEST(KFold, BalancedAssignment) {
  common::Rng rng(1);
  const auto assignment = kFoldAssignment(100, 5, rng);
  std::vector<int> counts(5, 0);
  for (const int fold : assignment) {
    ASSERT_GE(fold, 0);
    ASSERT_LT(fold, 5);
    ++counts[static_cast<std::size_t>(fold)];
  }
  for (const int c : counts) EXPECT_EQ(c, 20);
}

TEST(KFold, FoldIndicesPartition) {
  common::Rng rng(2);
  const auto assignment = kFoldAssignment(53, 5, rng);
  std::vector<bool> seen(53, false);
  for (int fold = 0; fold < 5; ++fold) {
    const auto split = foldIndices(assignment, fold);
    EXPECT_EQ(split.train.size() + split.test.size(), 53u);
    for (const auto i : split.test) {
      EXPECT_FALSE(seen[i]);
      seen[i] = true;
    }
  }
  for (const bool s : seen) EXPECT_TRUE(s);
}

TEST(KFold, RejectsTinyK) {
  common::Rng rng(3);
  EXPECT_THROW(kFoldAssignment(10, 1, rng), std::invalid_argument);
}

// ---------------------------------------------------------------- tree

Dataset stepDataset(int n, std::uint64_t seed) {
  // y = 10 when x0 > 0.5 else 2; x1 is noise.
  Dataset d;
  d.featureNames = {"x0", "x1"};
  common::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    const double x0 = rng.uniform(0.0, 1.0);
    d.addRow({x0, rng.uniform(0.0, 1.0)}, x0 > 0.5 ? 10.0 : 2.0);
  }
  return d;
}

TEST(DecisionTree, LearnsStepFunction) {
  const Dataset d = stepDataset(500, 1);
  std::vector<std::size_t> idx(d.rows());
  std::iota(idx.begin(), idx.end(), 0);
  DecisionTree tree;
  common::Rng rng(2);
  tree.fit(d, idx, TreeTask::kRegression, TreeOptions{}, rng);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.9, 0.5}), 10.0, 0.5);
  EXPECT_NEAR(tree.predict(std::vector<double>{0.1, 0.5}), 2.0, 0.5);
}

TEST(DecisionTree, ImportanceOnInformativeFeature) {
  const Dataset d = stepDataset(500, 3);
  std::vector<std::size_t> idx(d.rows());
  std::iota(idx.begin(), idx.end(), 0);
  DecisionTree tree;
  common::Rng rng(4);
  tree.fit(d, idx, TreeTask::kRegression, TreeOptions{}, rng);
  const auto& imp = tree.featureImportance();
  EXPECT_GT(imp[0], 10.0 * std::max(imp[1], 1e-12));
}

TEST(DecisionTree, ClassificationXorNeedsDepth) {
  // XOR of two thresholds: no single split separates it, depth 2 does.
  Dataset d;
  d.featureNames = {"a", "b"};
  common::Rng rng(5);
  for (int i = 0; i < 800; ++i) {
    const double a = rng.uniform(0.0, 1.0);
    const double b = rng.uniform(0.0, 1.0);
    const int label = (a > 0.5) != (b > 0.5) ? 1 : 0;
    d.addRow({a, b}, label);
  }
  std::vector<std::size_t> idx(d.rows());
  std::iota(idx.begin(), idx.end(), 0);
  DecisionTree tree;
  common::Rng fitRng(6);
  tree.fit(d, idx, TreeTask::kClassification, TreeOptions{}, fitRng);
  int correct = 0;
  for (std::size_t i = 0; i < d.rows(); ++i) {
    if (tree.predict(d.x[i]) == d.y[i]) ++correct;
  }
  EXPECT_GT(static_cast<double>(correct) / d.rows(), 0.95);
}

TEST(DecisionTree, RespectsMaxDepth) {
  const Dataset d = stepDataset(500, 7);
  std::vector<std::size_t> idx(d.rows());
  std::iota(idx.begin(), idx.end(), 0);
  DecisionTree stump;
  TreeOptions opts;
  opts.maxDepth = 1;
  common::Rng rng(8);
  stump.fit(d, idx, TreeTask::kRegression, opts, rng);
  EXPECT_LE(stump.nodeCount(), 3u);
}

TEST(DecisionTree, ConstantTargetSingleLeaf) {
  Dataset d;
  d.featureNames = {"x"};
  for (int i = 0; i < 50; ++i) d.addRow({static_cast<double>(i)}, 7.0);
  std::vector<std::size_t> idx(d.rows());
  std::iota(idx.begin(), idx.end(), 0);
  DecisionTree tree;
  common::Rng rng(9);
  tree.fit(d, idx, TreeTask::kRegression, TreeOptions{}, rng);
  EXPECT_EQ(tree.nodeCount(), 1u);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{123.0}), 7.0);
}

TEST(DecisionTree, ThrowsOnEmptyFitAndEarlyPredict) {
  Dataset d;
  DecisionTree tree;
  common::Rng rng(10);
  EXPECT_THROW(tree.fit(d, {}, TreeTask::kRegression, TreeOptions{}, rng),
               std::invalid_argument);
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), std::logic_error);
}

// ---------------------------------------------------------------- forest

TEST(RandomForest, RegressionOnNoisyLinear) {
  Dataset d;
  d.featureNames = {"x", "noise"};
  common::Rng rng(11);
  for (int i = 0; i < 1500; ++i) {
    const double x = rng.uniform(0.0, 10.0);
    d.addRow({x, rng.uniform(0.0, 1.0)}, 3.0 * x + rng.normal(0.0, 0.5));
  }
  RandomForest forest;
  ForestOptions opts;
  opts.numTrees = 30;
  forest.fit(d, TreeTask::kRegression, opts, 12);
  double mae = 0.0;
  common::Rng testRng(13);
  const int n = 300;
  for (int i = 0; i < n; ++i) {
    const double x = testRng.uniform(0.5, 9.5);
    mae += std::abs(forest.predict(std::vector<double>{x, 0.5}) - 3.0 * x);
  }
  EXPECT_LT(mae / n, 0.6);
}

TEST(RandomForest, ClassificationMajorityVote) {
  Dataset d;
  d.featureNames = {"x"};
  common::Rng rng(14);
  for (int i = 0; i < 600; ++i) {
    const double x = rng.uniform(0.0, 1.0);
    d.addRow({x}, x > 0.6 ? 2.0 : (x > 0.3 ? 1.0 : 0.0));
  }
  RandomForest forest;
  ForestOptions opts;
  opts.numTrees = 25;
  forest.fit(d, TreeTask::kClassification, opts, 15);
  EXPECT_DOUBLE_EQ(forest.predict(std::vector<double>{0.1}), 0.0);
  EXPECT_DOUBLE_EQ(forest.predict(std::vector<double>{0.45}), 1.0);
  EXPECT_DOUBLE_EQ(forest.predict(std::vector<double>{0.9}), 2.0);
}

TEST(RandomForest, DeterministicAcrossThreadCounts) {
  const Dataset d = stepDataset(400, 16);
  RandomForest a;
  RandomForest b;
  ForestOptions single;
  single.numTrees = 12;
  single.threads = 1;
  ForestOptions multi = single;
  multi.threads = 8;
  a.fit(d, TreeTask::kRegression, single, 99);
  b.fit(d, TreeTask::kRegression, multi, 99);
  common::Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> x = {rng.uniform(0.0, 1.0),
                                   rng.uniform(0.0, 1.0)};
    EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
  }
}

TEST(RandomForest, ImportanceNormalized) {
  const Dataset d = stepDataset(400, 18);
  RandomForest forest;
  ForestOptions opts;
  opts.numTrees = 15;
  forest.fit(d, TreeTask::kRegression, opts, 19);
  const auto imp = forest.featureImportance();
  double sum = 0.0;
  for (const double v : imp) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  const auto ranked = forest.rankedImportance();
  EXPECT_EQ(ranked[0].first, "x0");
  EXPECT_GE(ranked[0].second, ranked[1].second);
}

TEST(RandomForest, PredictBeforeFitThrows) {
  RandomForest forest;
  EXPECT_THROW(forest.predict(std::vector<double>{1.0}), std::logic_error);
}

TEST(CrossValidation, OutOfFoldPredictionsReasonable) {
  const Dataset d = stepDataset(600, 20);
  ForestOptions opts;
  opts.numTrees = 15;
  const auto cv = crossValidate(d, TreeTask::kRegression, opts, 5, 21);
  ASSERT_EQ(cv.predicted.size(), d.rows());
  EXPECT_LT(common::meanAbsoluteError(cv.predicted, cv.truth), 0.8);
}

TEST(CrossValidation, RejectsNonFiniteData) {
  Dataset d = stepDataset(100, 22);
  d.x[40][1] = std::numeric_limits<double>::quiet_NaN();
  ForestOptions opts;
  opts.numTrees = 3;
  EXPECT_THROW(crossValidate(d, TreeTask::kRegression, opts, 5, 23),
               std::invalid_argument);
}

// ------------------------------------------------------- bad training input

TEST(Dataset, ValidateRejectsNonFiniteValues) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Dataset feature = stepDataset(20, 24);
    feature.x[7][0] = bad;
    EXPECT_THROW(feature.validate(), std::invalid_argument);
    Dataset target = stepDataset(20, 24);
    target.y[3] = bad;
    EXPECT_THROW(target.validate(), std::invalid_argument);
  }
}

/// Every way a fit must refuse `d`: forest (1 and 4 threads), single tree.
void expectFitsReject(const Dataset& d) {
  for (const int threads : {1, 4}) {
    RandomForest forest;
    ForestOptions opts;
    opts.numTrees = 4;
    opts.threads = threads;
    EXPECT_THROW(forest.fit(d, TreeTask::kRegression, opts, 1),
                 std::invalid_argument);
    EXPECT_THROW(forest.fit(d, TreeTask::kClassification, opts, 1),
                 std::invalid_argument);
  }
  std::vector<std::size_t> idx(d.rows());
  std::iota(idx.begin(), idx.end(), 0);
  DecisionTree tree;
  common::Rng rng(2);
  EXPECT_THROW(tree.fit(d, idx, TreeTask::kRegression, TreeOptions{}, rng),
               std::invalid_argument);
}

TEST(RandomForest, FitRejectsNonFiniteFeaturesAndTargets) {
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Dataset feature = stepDataset(50, 25);
    feature.x[10][1] = bad;
    expectFitsReject(feature);
    Dataset target = stepDataset(50, 25);
    target.y[49] = bad;
    expectFitsReject(target);
  }
}

TEST(RandomForest, FitRejectsClassLabelsThatCannotIndexACounter) {
  // Labels index per-class counters: a negative, fractional, too-large or
  // NaN label must be refused before anything is indexed or allocated.
  for (const double bad : {-1.0, 0.5, 65536.0,
                           std::numeric_limits<double>::quiet_NaN()}) {
    Dataset d = stepDataset(50, 28);
    d.y[7] = bad;
    for (const int threads : {1, 4}) {
      RandomForest forest;
      ForestOptions opts;
      opts.numTrees = 4;
      opts.threads = threads;
      EXPECT_THROW(forest.fit(d, TreeTask::kClassification, opts, 1),
                   std::invalid_argument)
          << bad;
    }
    std::vector<std::size_t> idx(d.rows());
    std::iota(idx.begin(), idx.end(), 0);
    DecisionTree tree;
    common::Rng rng(4);
    EXPECT_THROW(
        tree.fit(d, idx, TreeTask::kClassification, TreeOptions{}, rng),
        std::invalid_argument)
        << bad;
    if (!std::isnan(bad)) {
      // The regression task takes any finite target.
      RandomForest regression;
      ForestOptions opts;
      opts.numTrees = 2;
      EXPECT_NO_THROW(regression.fit(d, TreeTask::kRegression, opts, 1));
    }
  }
  // The bounds themselves are accepted.
  Dataset edges = stepDataset(50, 29);
  edges.y[0] = 0.0;
  edges.y[1] = 65535.0;
  RandomForest forest;
  ForestOptions opts;
  opts.numTrees = 2;
  EXPECT_NO_THROW(forest.fit(edges, TreeTask::kClassification, opts, 1));
}

TEST(RandomForest, FitRejectsRaggedRows) {
  Dataset shortRow = stepDataset(50, 26);
  shortRow.x[5].pop_back();
  expectFitsReject(shortRow);
  Dataset longRow = stepDataset(50, 26);
  longRow.x[0].push_back(1.0);
  expectFitsReject(longRow);
  Dataset missingTarget = stepDataset(50, 26);
  missingTarget.y.pop_back();
  expectFitsReject(missingTarget);
}

TEST(DecisionTree, FitRejectsSampleRowOutOfRange) {
  const Dataset d = stepDataset(30, 27);
  const std::vector<std::size_t> idx = {0, 5, 30};
  DecisionTree tree;
  common::Rng rng(3);
  EXPECT_THROW(tree.fit(d, idx, TreeTask::kRegression, TreeOptions{}, rng),
               std::invalid_argument);
}

// ------------------------------------------ rank-walk builder bit identity

/// The sort-per-node tree builder that the rank-table builder replaced,
/// verbatim: each node copies its rows' (value, target) pairs per candidate
/// feature and sorts them. Kept here as the bit-identity reference — the
/// fitted nodes and importances must not change by a bit.
class SortPerNodeTree {
 public:
  using Node = DecisionTree::Node;

  void fit(const Dataset& data, std::span<const std::size_t> sampleIdx,
           TreeTask task, const TreeOptions& options, common::Rng& rng) {
    task_ = task;
    options_ = options;
    nodes_.clear();
    importance_.assign(data.cols(), 0.0);
    totalSamples_ = sampleIdx.size();
    std::vector<std::size_t> idx(sampleIdx.begin(), sampleIdx.end());
    build(data, idx, 0, idx.size(), 0, rng);
  }

  DecisionTree release() {
    return DecisionTree::fromNodes(std::move(nodes_), task_,
                                   std::move(importance_));
  }

 private:
  struct GiniCounter {
    std::vector<double> counts;
    double total = 0.0;

    explicit GiniCounter(std::size_t numClasses) : counts(numClasses, 0.0) {}

    void add(int cls, double w = 1.0) {
      counts[static_cast<std::size_t>(cls)] += w;
      total += w;
    }
    void remove(int cls) {
      counts[static_cast<std::size_t>(cls)] -= 1.0;
      total -= 1.0;
    }
    double gini() const {
      if (total <= 0.0) return 0.0;
      double sumSq = 0.0;
      for (const double c : counts) sumSq += c * c;
      return 1.0 - sumSq / (total * total);
    }
    int majority() const {
      return static_cast<int>(
          std::max_element(counts.begin(), counts.end()) - counts.begin());
    }
  };

  std::int32_t build(const Dataset& data, std::vector<std::size_t>& idx,
                     std::size_t begin, std::size_t end, int depth,
                     common::Rng& rng) {
    const std::size_t n = end - begin;
    const std::size_t p = data.cols();

    // Node statistics and impurity.
    double leafValue = 0.0;
    double nodeImpurity = 0.0;
    std::size_t numClasses = 0;
    if (task_ == TreeTask::kRegression) {
      double sum = 0.0;
      double sumSq = 0.0;
      for (std::size_t i = begin; i < end; ++i) {
        const double y = data.y[idx[i]];
        sum += y;
        sumSq += y * y;
      }
      leafValue = sum / static_cast<double>(n);
      nodeImpurity = std::max(
          0.0, sumSq / static_cast<double>(n) - leafValue * leafValue);
    } else {
      for (std::size_t i = begin; i < end; ++i) {
        numClasses = std::max(
            numClasses, static_cast<std::size_t>(data.y[idx[i]]) + 1);
      }
      GiniCounter counter(numClasses);
      for (std::size_t i = begin; i < end; ++i) {
        counter.add(static_cast<int>(data.y[idx[i]]));
      }
      leafValue = static_cast<double>(counter.majority());
      nodeImpurity = counter.gini();
    }

    const auto makeLeaf = [&]() -> std::int32_t {
      Node leaf;
      leaf.value = leafValue;
      nodes_.push_back(leaf);
      return static_cast<std::int32_t>(nodes_.size() - 1);
    };

    if (depth >= options_.maxDepth || n < static_cast<std::size_t>(
                                              options_.minSamplesSplit) ||
        nodeImpurity <= 1e-12) {
      return makeLeaf();
    }

    // Candidate features: a random subset of maxFeatures (all when 0).
    std::vector<std::size_t> candidates(p);
    std::iota(candidates.begin(), candidates.end(), 0);
    if (options_.maxFeatures > 0 &&
        static_cast<std::size_t>(options_.maxFeatures) < p) {
      rng.shuffle(candidates);
      candidates.resize(static_cast<std::size_t>(options_.maxFeatures));
    }

    double bestGain = 0.0;
    std::size_t bestFeature = 0;
    double bestThreshold = 0.0;

    // (value, y or class) pairs sorted per candidate feature.
    std::vector<std::pair<double, double>> pairs;
    pairs.reserve(n);

    for (const std::size_t f : candidates) {
      pairs.clear();
      for (std::size_t i = begin; i < end; ++i) {
        pairs.emplace_back(data.x[idx[i]][f], data.y[idx[i]]);
      }
      std::sort(pairs.begin(), pairs.end());
      if (pairs.front().first == pairs.back().first) continue;  // constant

      const auto minLeaf = static_cast<std::size_t>(options_.minSamplesLeaf);
      if (task_ == TreeTask::kRegression) {
        double sumLeft = 0.0;
        double sumSqLeft = 0.0;
        double sumTotal = 0.0;
        double sumSqTotal = 0.0;
        for (const auto& [v, y] : pairs) {
          sumTotal += y;
          sumSqTotal += y * y;
        }
        for (std::size_t i = 0; i + 1 < n; ++i) {
          const double y = pairs[i].second;
          sumLeft += y;
          sumSqLeft += y * y;
          if (pairs[i].first == pairs[i + 1].first) continue;
          const std::size_t nl = i + 1;
          const std::size_t nr = n - nl;
          if (nl < minLeaf || nr < minLeaf) continue;
          const double meanL = sumLeft / static_cast<double>(nl);
          const double meanR =
              (sumTotal - sumLeft) / static_cast<double>(nr);
          const double sseL = sumSqLeft - static_cast<double>(nl) * meanL * meanL;
          const double sseR = (sumSqTotal - sumSqLeft) -
                              static_cast<double>(nr) * meanR * meanR;
          const double childImpurity =
              (sseL + sseR) / static_cast<double>(n);
          const double gain = nodeImpurity - childImpurity;
          if (gain > bestGain) {
            bestGain = gain;
            bestFeature = f;
            bestThreshold = (pairs[i].first + pairs[i + 1].first) / 2.0;
          }
        }
      } else {
        GiniCounter left(numClasses);
        GiniCounter right(numClasses);
        for (const auto& [v, y] : pairs) right.add(static_cast<int>(y));
        for (std::size_t i = 0; i + 1 < n; ++i) {
          const int cls = static_cast<int>(pairs[i].second);
          left.add(cls);
          right.remove(cls);
          if (pairs[i].first == pairs[i + 1].first) continue;
          const std::size_t nl = i + 1;
          const std::size_t nr = n - nl;
          if (nl < minLeaf || nr < minLeaf) continue;
          const double childImpurity =
              (left.total * left.gini() + right.total * right.gini()) /
              static_cast<double>(n);
          const double gain = nodeImpurity - childImpurity;
          if (gain > bestGain) {
            bestGain = gain;
            bestFeature = f;
            bestThreshold = (pairs[i].first + pairs[i + 1].first) / 2.0;
          }
        }
      }
    }

    if (bestGain <= 1e-12) return makeLeaf();

    // Credit the split to the feature, weighted by the node's sample share.
    importance_[bestFeature] +=
        bestGain * static_cast<double>(n) / static_cast<double>(totalSamples_);

    // Partition the index range around the threshold.
    const auto mid = std::stable_partition(
        idx.begin() + static_cast<std::ptrdiff_t>(begin),
        idx.begin() + static_cast<std::ptrdiff_t>(end),
        [&](std::size_t row) { return data.x[row][bestFeature] <= bestThreshold; });
    const std::size_t split =
        static_cast<std::size_t>(mid - idx.begin());
    if (split == begin || split == end) return makeLeaf();  // degenerate

    const std::int32_t nodeIndex = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
    nodes_[static_cast<std::size_t>(nodeIndex)].featureIndex =
        static_cast<std::int32_t>(bestFeature);
    nodes_[static_cast<std::size_t>(nodeIndex)].threshold = bestThreshold;
    nodes_[static_cast<std::size_t>(nodeIndex)].value = leafValue;

    const std::int32_t left = build(data, idx, begin, split, depth + 1, rng);
    const std::int32_t right = build(data, idx, split, end, depth + 1, rng);
    nodes_[static_cast<std::size_t>(nodeIndex)].left = left;
    nodes_[static_cast<std::size_t>(nodeIndex)].right = right;
    return nodeIndex;
  }

  TreeTask task_ = TreeTask::kRegression;
  TreeOptions options_;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
  std::size_t totalSamples_ = 0;
};

/// RandomForest::fit's seeding, bootstrap, feature subsampling and
/// importance normalization around the sort-per-node builder.
RandomForest sortPerNodeForest(const Dataset& data, TreeTask task,
                               const ForestOptions& options,
                               std::uint64_t seed) {
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
  common::Rng seeder(seed);
  std::vector<std::uint64_t> seeds(static_cast<std::size_t>(numTrees));
  for (auto& s : seeds) {
    s = static_cast<std::uint64_t>(seeder.engine()());
  }
  std::vector<DecisionTree> trees;
  std::vector<double> importance(p, 0.0);
  for (int t = 0; t < numTrees; ++t) {
    common::Rng rng(seeds[static_cast<std::size_t>(t)]);
    std::vector<std::size_t> sample(data.rows());
    for (auto& s : sample) {
      s = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(data.rows()) - 1));
    }
    SortPerNodeTree tree;
    tree.fit(data, sample, task, treeOptions, rng);
    trees.push_back(tree.release());
    const auto& imp = trees.back().featureImportance();
    for (std::size_t f = 0; f < p; ++f) importance[f] += imp[f];
  }
  double total = 0.0;
  for (const double v : importance) total += v;
  if (total > 0.0) {
    for (double& v : importance) v /= total;
  }
  return RandomForest::fromParts(task, data.featureNames, std::move(trees),
                                 std::move(importance));
}

void expectSameBits(std::span<const double> a, std::span<const double> b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a[i]),
              std::bit_cast<std::uint64_t>(b[i]))
        << "at " << i << ": " << a[i] << " vs " << b[i];
  }
}

void expectSameTree(const DecisionTree& a, const DecisionTree& b) {
  ASSERT_EQ(a.nodeCount(), b.nodeCount());
  for (std::size_t i = 0; i < a.nodeCount(); ++i) {
    const auto& x = a.nodes()[i];
    const auto& y = b.nodes()[i];
    EXPECT_EQ(x.featureIndex, y.featureIndex) << "node " << i;
    EXPECT_EQ(x.left, y.left) << "node " << i;
    EXPECT_EQ(x.right, y.right) << "node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.threshold),
              std::bit_cast<std::uint64_t>(y.threshold))
        << "node " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(x.value),
              std::bit_cast<std::uint64_t>(y.value))
        << "node " << i;
  }
  expectSameBits(a.featureImportance(), b.featureImportance());
}

void expectSameForest(const RandomForest& a, const RandomForest& b) {
  ASSERT_EQ(a.treeCount(), b.treeCount());
  for (std::size_t t = 0; t < a.treeCount(); ++t) {
    SCOPED_TRACE("tree " + std::to_string(t));
    expectSameTree(a.trees()[t], b.trees()[t]);
  }
  expectSameBits(a.featureImportance(), b.featureImportance());
}

/// Rows built to stress the order a node's pairs come in: exact duplicate
/// rows (equal (value, target) pairs), values that tie with different
/// targets, a constant column, and a column and targets mixing -0.0 and 0.0.
/// Classification labels run 0 .. classes - 1.
Dataset tieHeavyDataset(int n, TreeTask task, std::uint64_t seed,
                        int classes = 3) {
  Dataset d;
  d.featureNames = {"rounded", "continuous", "constant", "signed_zero",
                    "coarse"};
  common::Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    if (i >= 8 && rng.bernoulli(0.2)) {
      const auto src = static_cast<std::size_t>(rng.uniformInt(0, i - 1));
      d.addRow(d.x[src], d.y[src]);
      continue;
    }
    const double rounded = std::round(rng.normal(0.0, 2.0));
    const double continuous = rng.uniform(-5.0, 5.0);
    const int zeroPick = static_cast<int>(rng.uniformInt(0, 3));
    const double signedZero =
        zeroPick == 0 ? -0.0 : (zeroPick == 1 ? 0.0 : zeroPick - 1.5);
    const double coarse = std::floor(continuous / 2.5);
    const double signal =
        rounded + 0.5 * continuous - signedZero + rng.normal(0.0, 0.7);
    double y = 0.0;
    if (task == TreeTask::kRegression) {
      // Tenths are inexact in binary, so sums depend on summation order.
      y = std::round(signal * 10.0) / 10.0;
      if (y == 0.0 && rng.bernoulli(0.5)) y = -0.0;
    } else {
      y = std::clamp(std::floor(signal * classes / 8.0 + classes / 2.0), 0.0,
                     classes - 1.0);
    }
    d.addRow({rounded, continuous, 7.25, signedZero, coarse}, y);
  }
  return d;
}

TEST(RandomForest, RankWalkBitIdenticalToSortPerNodeBuilder) {
  for (const auto task : {TreeTask::kRegression, TreeTask::kClassification}) {
    for (const int n : {40, 300, 1500}) {
      const Dataset d =
          tieHeavyDataset(n, task, 31 + static_cast<std::uint64_t>(n));
      ForestOptions opts;
      opts.numTrees = 9;
      opts.tree.minSamplesLeaf = 1;
      opts.tree.minSamplesSplit = 2;
      const RandomForest reference = sortPerNodeForest(d, task, opts, 77);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE("task " + std::to_string(static_cast<int>(task)) +
                     " n " + std::to_string(n) + " threads " +
                     std::to_string(threads));
        opts.threads = threads;
        RandomForest forest;
        forest.fit(d, task, opts, 77);
        expectSameForest(forest, reference);
      }
    }
  }
}

TEST(RandomForest, RankWalkBitIdenticalWithManyClasses) {
  // Gini over hundreds of classes (resolution labels can be pixel heights).
  const Dataset d = tieHeavyDataset(900, TreeTask::kClassification, 51, 300);
  ForestOptions opts;
  opts.numTrees = 8;
  opts.threads = 4;
  RandomForest forest;
  forest.fit(d, TreeTask::kClassification, opts, 52);
  expectSameForest(
      forest, sortPerNodeForest(d, TreeTask::kClassification, opts, 52));
}

TEST(RandomForest, RankWalkBitIdenticalOnDefaultOptions) {
  // The options every caller uses (maxFeatures from p, default leaf sizes).
  const Dataset d = stepDataset(700, 28);
  ForestOptions opts;
  opts.numTrees = 6;
  opts.threads = 2;
  RandomForest forest;
  forest.fit(d, TreeTask::kRegression, opts, 29);
  expectSameForest(forest,
                   sortPerNodeForest(d, TreeTask::kRegression, opts, 29));
}

TEST(DecisionTree, RankWalkBitIdenticalToSortPerNodeBuilder) {
  // maxFeatures = 0 examines every feature at every node; a fully grown tree
  // over N >> 64 rows has deep nodes whose few rows' ranks sit words apart.
  for (const auto task : {TreeTask::kRegression, TreeTask::kClassification}) {
    const Dataset d = tieHeavyDataset(2000, task, 41);
    TreeOptions opts;
    opts.maxFeatures = 0;
    opts.maxDepth = 40;
    opts.minSamplesLeaf = 1;
    opts.minSamplesSplit = 2;
    common::Rng pick(42);
    std::vector<std::size_t> bootstrap(d.rows());
    for (auto& s : bootstrap) {
      s = static_cast<std::size_t>(
          pick.uniformInt(0, static_cast<std::int64_t>(d.rows()) - 1));
    }
    std::vector<std::size_t> all(d.rows());
    std::iota(all.begin(), all.end(), 0);
    for (const auto& sample : {all, bootstrap}) {
      SortPerNodeTree reference;
      common::Rng refRng(43);
      reference.fit(d, sample, task, opts, refRng);
      DecisionTree tree;
      common::Rng rng(43);
      tree.fit(d, sample, task, opts, rng);
      EXPECT_GT(tree.nodeCount(), 200u);
      expectSameTree(tree, reference.release());
    }
  }
}

// ---------------------------------------------------------------- metrics

TEST(Confusion, CountsAndAccuracy) {
  const std::vector<double> truth = {0, 0, 1, 1, 1, 2};
  const std::vector<double> pred = {0, 1, 1, 1, 0, 2};
  const ConfusionMatrix cm(truth, pred);
  EXPECT_EQ(cm.total(), 6u);
  EXPECT_NEAR(cm.accuracy(), 4.0 / 6.0, 1e-12);
  EXPECT_EQ(cm.count(0, 0), 1u);
  EXPECT_EQ(cm.count(0, 1), 1u);
  EXPECT_EQ(cm.count(1, 0), 1u);
  EXPECT_EQ(cm.rowTotal(1), 3u);
  EXPECT_NEAR(cm.rowFraction(1, 1), 2.0 / 3.0, 1e-12);
  EXPECT_EQ(cm.labels(), (std::vector<int>{0, 1, 2}));
}

TEST(Confusion, SizeMismatchThrows) {
  const std::vector<double> a = {0.0};
  const std::vector<double> b = {0.0, 1.0};
  EXPECT_THROW(ConfusionMatrix(a, b), std::invalid_argument);
}

TEST(Confusion, UnseenRowFractionZero) {
  const std::vector<double> truth = {0.0};
  const std::vector<double> pred = {0.0};
  const ConfusionMatrix cm(truth, pred);
  EXPECT_DOUBLE_EQ(cm.rowFraction(5, 0), 0.0);
}

TEST(TeamsBins, PaperThresholds) {
  // low <= 240 < medium <= 480 < high (§5.1.5).
  EXPECT_EQ(teamsResolutionBin(90), 0);
  EXPECT_EQ(teamsResolutionBin(240), 0);
  EXPECT_EQ(teamsResolutionBin(270), 1);
  EXPECT_EQ(teamsResolutionBin(404), 1);
  EXPECT_EQ(teamsResolutionBin(480), 1);
  EXPECT_EQ(teamsResolutionBin(540), 2);
  EXPECT_EQ(teamsResolutionBin(720), 2);
  EXPECT_EQ(teamsResolutionBinName(0), "Low");
  EXPECT_EQ(teamsResolutionBinName(2), "High");
}

// Property: forest regression never predicts outside the training target
// range (averaging of leaf means).
class ForestRange : public ::testing::TestWithParam<int> {};

TEST_P(ForestRange, PredictionsWithinTargetRange) {
  common::Rng rng(static_cast<std::uint64_t>(GetParam()));
  Dataset d;
  d.featureNames = {"a", "b", "c"};
  double lo = 1e18;
  double hi = -1e18;
  for (int i = 0; i < 300; ++i) {
    const double y = rng.uniform(-50.0, 50.0);
    lo = std::min(lo, y);
    hi = std::max(hi, y);
    d.addRow({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0),
              rng.uniform(0.0, 1.0)},
             y);
  }
  RandomForest forest;
  ForestOptions opts;
  opts.numTrees = 10;
  forest.fit(d, TreeTask::kRegression, opts,
             static_cast<std::uint64_t>(GetParam()));
  for (int i = 0; i < 100; ++i) {
    const double p = forest.predict(std::vector<double>{
        rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 2.0),
        rng.uniform(-1.0, 2.0)});
    EXPECT_GE(p, lo - 1e-9);
    EXPECT_LE(p, hi + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForestRange, ::testing::Range(1, 7));

}  // namespace
}  // namespace vcaqoe::ml
