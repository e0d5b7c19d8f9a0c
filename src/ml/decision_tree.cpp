#include "ml/decision_tree.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace vcaqoe::ml {

namespace {

/// Class count bookkeeping for Gini computations. Counts are whole numbers,
/// so the running sum of their squares is exact (below 2^53) and equals the
/// per-class sum gini() would otherwise recompute over every class.
struct GiniCounter {
  std::vector<double> counts;
  double total = 0.0;
  double sumSq = 0.0;

  explicit GiniCounter(std::size_t numClasses) : counts(numClasses, 0.0) {}

  void add(int cls) {
    double& c = counts[static_cast<std::size_t>(cls)];
    sumSq += 2.0 * c + 1.0;  // (c + 1)^2 - c^2
    c += 1.0;
    total += 1.0;
  }
  void remove(int cls) {
    double& c = counts[static_cast<std::size_t>(cls)];
    sumSq -= 2.0 * c - 1.0;  // c^2 - (c - 1)^2
    c -= 1.0;
    total -= 1.0;
  }
  double gini() const {
    if (total <= 0.0) return 0.0;
    return 1.0 - sumSq / (total * total);
  }
  int majority() const {
    return static_cast<int>(
        std::max_element(counts.begin(), counts.end()) - counts.begin());
  }
};

}  // namespace

void validateClassLabels(std::span<const double> y) {
  for (const double label : y) {
    // Written so that NaN fails every comparison and is rejected too.
    if (!(label >= 0.0 && label <= kMaxClassLabel &&
          label == std::floor(label))) {
      throw std::invalid_argument(
          "classification labels must be whole numbers in [0, 65535]");
    }
  }
}

RankTable::RankTable(const Dataset& data) : data_(data) {
  if (data.rows() == 0) {
    throw std::invalid_argument("RankTable: empty dataset");
  }
  data.validate();
  const std::size_t n = data.rows();
  const std::size_t p = data.cols();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("RankTable: too many rows");
  }
  rank_.resize(p * n);
  sorted_.resize(p * n);

  // Nodes need only the order of (value, target) pairs; the row index just
  // makes the table itself deterministic (rows tying on both are
  // interchangeable to every split statistic).
  struct Entry {
    double value;
    double target;
    std::uint32_t row;
  };
  std::vector<Entry> column(n);
  for (std::size_t f = 0; f < p; ++f) {
    for (std::size_t i = 0; i < n; ++i) {
      column[i] = {data.x[i][f], data.y[i], static_cast<std::uint32_t>(i)};
    }
    std::sort(column.begin(), column.end(),
              [](const Entry& a, const Entry& b) {
                if (a.value != b.value) return a.value < b.value;
                if (a.target != b.target) return a.target < b.target;
                return a.row < b.row;
              });
    for (std::size_t r = 0; r < n; ++r) {
      rank_[f * n + column[r].row] = static_cast<std::uint32_t>(r);
      sorted_[f * n + r] = {column[r].value, column[r].target};
    }
  }
}

/// State of one tree's recursive build: the shared rank table, the sample
/// rows (partitioned node by node), and scratch reused across nodes.
struct DecisionTree::Builder {
  const RankTable& ranks;
  common::Rng& rng;
  std::vector<std::size_t> idx;
  /// Per rank: how many of the node's rows hold it (bootstrap duplicates).
  std::vector<std::uint32_t> count;
  /// One bit per rank, set while its count is non-zero.
  std::vector<std::uint64_t> marked;
  /// One candidate feature's (value, target) pairs of the node, sorted;
  /// sized to the whole sample, the node uses its first n.
  std::vector<std::pair<double, double>> pairs;
  std::vector<std::size_t> candidates;

  /// Returns feature `f`'s (value, target) of the rows in idx[begin, end)
  /// in sorted order, by marking each row's rank and walking the marked
  /// ranks upward. Leaves `count` and `marked` zeroed.
  std::span<const std::pair<double, double>> orderNode(std::size_t f,
                                                       std::size_t begin,
                                                       std::size_t end) {
    std::uint32_t lo = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t hi = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const std::uint32_t r = ranks.rank(f, idx[i]);
      if (count[r] == 0) marked[r >> 6] |= std::uint64_t{1} << (r & 63);
      ++count[r];
      lo = std::min(lo, r);
      hi = std::max(hi, r);
    }
    auto* out = pairs.data();
    for (std::size_t w = lo >> 6; w <= (hi >> 6); ++w) {
      std::uint64_t bits = marked[w];
      marked[w] = 0;
      while (bits != 0) {
        const auto r = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        const auto& pair = ranks.sorted(f, r);
        for (std::uint32_t c = count[r]; c > 0; --c) *out++ = pair;
        count[r] = 0;
      }
    }
    return {pairs.data(), end - begin};
  }
};

void DecisionTree::fit(const Dataset& data,
                       std::span<const std::size_t> sampleIdx, TreeTask task,
                       const TreeOptions& options, common::Rng& rng) {
  if (data.rows() == 0 || sampleIdx.empty()) {
    throw std::invalid_argument("DecisionTree::fit: empty training data");
  }
  fit(RankTable(data), sampleIdx, task, options, rng);
}

void DecisionTree::fit(const RankTable& ranks,
                       std::span<const std::size_t> sampleIdx, TreeTask task,
                       const TreeOptions& options, common::Rng& rng) {
  if (sampleIdx.empty()) {
    throw std::invalid_argument("DecisionTree::fit: empty training data");
  }
  const std::size_t rows = ranks.rows();
  if (std::any_of(sampleIdx.begin(), sampleIdx.end(),
                  [rows](std::size_t row) { return row >= rows; })) {
    throw std::invalid_argument("DecisionTree::fit: sample row out of range");
  }
  if (task == TreeTask::kClassification) validateClassLabels(ranks.data().y);
  task_ = task;
  options_ = options;
  nodes_.clear();
  importance_.assign(ranks.data().cols(), 0.0);
  totalSamples_ = sampleIdx.size();

  Builder b{ranks, rng, {sampleIdx.begin(), sampleIdx.end()}, {}, {}, {}, {}};
  b.count.assign(rows, 0);
  b.marked.assign((rows + 63) / 64, 0);
  b.pairs.resize(sampleIdx.size());
  build(b, 0, b.idx.size(), 0);
}

std::int32_t DecisionTree::build(Builder& b, std::size_t begin,
                                 std::size_t end, int depth) {
  const Dataset& data = b.ranks.data();
  std::vector<std::size_t>& idx = b.idx;
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
  std::vector<std::size_t>& candidates = b.candidates;
  candidates.resize(p);
  std::iota(candidates.begin(), candidates.end(), 0);
  if (options_.maxFeatures > 0 &&
      static_cast<std::size_t>(options_.maxFeatures) < p) {
    b.rng.shuffle(candidates);
    candidates.resize(static_cast<std::size_t>(options_.maxFeatures));
  }

  double bestGain = 0.0;
  std::size_t bestFeature = 0;
  double bestThreshold = 0.0;

  for (const std::size_t f : candidates) {
    // (value, y or class) pairs in sorted order.
    const auto pairs = b.orderNode(f, begin, end);
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

  const std::int32_t left = build(b, begin, split, depth + 1);
  const std::int32_t right = build(b, split, end, depth + 1);
  nodes_[static_cast<std::size_t>(nodeIndex)].left = left;
  nodes_[static_cast<std::size_t>(nodeIndex)].right = right;
  return nodeIndex;
}

DecisionTree DecisionTree::fromNodes(std::vector<Node> nodes, TreeTask task,
                                     std::vector<double> importance) {
  DecisionTree tree;
  tree.task_ = task;
  tree.nodes_ = std::move(nodes);
  tree.importance_ = std::move(importance);
  tree.totalSamples_ = 1;
  return tree;
}

double DecisionTree::predict(std::span<const double> x) const {
  if (nodes_.empty()) {
    throw std::logic_error("DecisionTree::predict before fit");
  }
  std::size_t node = 0;
  while (nodes_[node].featureIndex >= 0) {
    const auto& nd = nodes_[node];
    const double v = x[static_cast<std::size_t>(nd.featureIndex)];
    node = static_cast<std::size_t>(v <= nd.threshold ? nd.left : nd.right);
  }
  return nodes_[node].value;
}

}  // namespace vcaqoe::ml
