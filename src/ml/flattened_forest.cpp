#include "ml/flattened_forest.hpp"

#include <algorithm>
#include <stdexcept>

namespace vcaqoe::ml {

namespace {

[[noreturn]] void invalid(const std::string& what) {
  throw std::invalid_argument("FlattenedForest: " + what);
}

/// Encodes a leaf index as a negative child reference.
constexpr std::int32_t leafRef(std::size_t leafIndex) {
  return -static_cast<std::int32_t>(leafIndex) - 1;
}

/// Decodes a negative child reference back to a leaf index. Widened before
/// negation: `-ref` would overflow (UB) for INT32_MIN, which a hostile
/// serialized file can carry into `fromParts`.
constexpr std::size_t leafIndex(std::int32_t ref) {
  return static_cast<std::size_t>(-(static_cast<std::int64_t>(ref) + 1));
}

/// Majority vote with ties to the smallest class id — the ascending
/// map-order tie-break of `RandomForest::predict`, computed over a sorted
/// scratch so the hot path never allocates. Sorts `votes` in place.
int majorityClass(std::vector<int>& votes) {
  std::sort(votes.begin(), votes.end());
  int best = 0;
  int bestVotes = -1;
  int run = 0;
  for (std::size_t i = 0; i < votes.size(); ++i) {
    run = (i > 0 && votes[i] == votes[i - 1]) ? run + 1 : 1;
    if (run > bestVotes) {
      bestVotes = run;
      best = votes[i];
    }
  }
  return best;
}

/// One tree level for one node ref: the shared step of every traversal
/// below, generic over the full-precision (int32/double) and quantized
/// (int16/float) column types. The float threshold widens back to double
/// for the compare, so quantized divergence is confined to feature values
/// inside the double->float rounding gap; NaN still goes right on both.
template <typename Feat, typename Thresh>
inline std::int32_t step(std::int32_t ref, FeatureRow x, const Feat* feature,
                         const Thresh* threshold,
                         const std::int32_t* children) {
  const auto node = static_cast<std::size_t>(ref);
  const double v = x[static_cast<std::size_t>(feature[node])];
  const auto t = static_cast<double>(threshold[node]);
  return children[2 * node + (v <= t ? 0u : 1u)];
}

template <typename Feat, typename Thresh>
double evalTreeImpl(std::int32_t ref, FeatureRow x, const Feat* feature,
                    const Thresh* threshold, const std::int32_t* children,
                    const double* leafValue) {
  while (ref >= 0) ref = step(ref, x, feature, threshold, children);
  return leafValue[leafIndex(ref)];
}

/// Lanes advanced together, one tree level per round.
constexpr std::size_t kLanes = 8;

/// Evaluates up to kLanes (root, row) lanes in lockstep — lane j walks the
/// tree at `roots[j * rootStride]` for the row `rows[j * rowStride]`, so
/// `predict` runs 8 trees over one row (row stride 0) and `predictBatch` one
/// tree over 8 rows (root stride 0) through the same kernel. Every live lane
/// takes one `step` per round, so their data-dependent arena/feature loads
/// are all in flight at once instead of serialized down one path. A lane
/// that reached its leaf keeps re-reading node 0 and discards the result
/// (branch-free; node 0 exists whenever any lane is still internal). Each
/// lane still walks exactly the path `evalTreeImpl` would, and
/// `leafOut[j]` receives lane j's leaf value.
template <typename Feat, typename Thresh>
void evalLanes(const std::int32_t* roots, std::size_t rootStride,
               const FeatureRow* rows, std::size_t rowStride, std::size_t m,
               const Feat* feature, const Thresh* threshold,
               const std::int32_t* children, const double* leafValue,
               double* leafOut) {
  // Unused lanes hold a leaf and lane 0's row, so every round runs a fixed
  // kLanes steps the compiler can unroll.
  std::int32_t ref[kLanes];
  const FeatureRow* row[kLanes];
  for (std::size_t j = 0; j < kLanes; ++j) {
    ref[j] = j < m ? roots[j * rootStride] : -1;
    row[j] = j < m ? &rows[j * rowStride] : rows;
  }
  for (;;) {
    // The sign bit of the AND is set iff every lane holds a leaf.
    std::int32_t all = -1;
    for (std::size_t j = 0; j < kLanes; ++j) all &= ref[j];
    if (all < 0) break;
    for (std::size_t j = 0; j < kLanes; ++j) {
      const std::int32_t r = ref[j];
      const std::int32_t next = step(std::max(r, std::int32_t{0}), *row[j],
                                     feature, threshold, children);
      ref[j] = r < 0 ? r : next;
    }
  }
  for (std::size_t j = 0; j < m; ++j) leafOut[j] = leafValue[leafIndex(ref[j])];
}

}  // namespace

FlattenedForest::FlattenedForest(const RandomForest& forest) {
  if (!forest.trained()) invalid("forest is untrained");
  task_ = forest.task();

  std::size_t maxFeature = 0;
  std::size_t internals = 0;
  std::size_t leaves = 0;
  for (const auto& tree : forest.trees()) {
    for (const auto& node : tree.nodes()) {
      if (node.featureIndex >= 0) {
        ++internals;
        maxFeature = std::max(
            maxFeature, static_cast<std::size_t>(node.featureIndex) + 1);
      } else {
        ++leaves;
      }
    }
  }
  featureCount_ = std::max(forest.featureNames().size(), maxFeature);
  roots_.reserve(forest.treeCount());
  feature_.reserve(internals);
  threshold_.reserve(internals);
  children_.reserve(2 * internals);
  leafValue_.reserve(leaves);

  std::vector<std::int32_t> ref;  // local node index -> encoded arena ref
  for (const auto& tree : forest.trees()) {
    const auto& nodes = tree.nodes();
    if (nodes.empty()) invalid("empty tree");
    ref.assign(nodes.size(), 0);
    // Pass 1: hand every local node its arena slot (internal) or leaf id.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& node = nodes[i];
      if (node.featureIndex >= 0) {
        ref[i] = static_cast<std::int32_t>(feature_.size());
        feature_.push_back(node.featureIndex);
        threshold_.push_back(node.threshold);
        children_.push_back(0);
        children_.push_back(0);
      } else {
        ref[i] = leafRef(leafValue_.size());
        leafValue_.push_back(node.value);
      }
    }
    // Pass 2: translate child links through the local->arena map.
    const auto limit = static_cast<std::int32_t>(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const auto& node = nodes[i];
      if (node.featureIndex < 0) continue;
      if (node.left < 0 || node.left >= limit || node.right < 0 ||
          node.right >= limit) {
        invalid("tree child reference out of range");
      }
      const auto arena = 2 * static_cast<std::size_t>(ref[i]);
      children_[arena] = ref[static_cast<std::size_t>(node.left)];
      children_[arena + 1] = ref[static_cast<std::size_t>(node.right)];
    }
    roots_.push_back(ref[0]);
  }
}

FlattenedForest FlattenedForest::fromParts(
    TreeTask task, std::size_t featureCount, std::vector<std::int32_t> roots,
    std::vector<std::int32_t> feature, std::vector<double> threshold,
    std::vector<std::int32_t> left, std::vector<std::int32_t> right,
    std::vector<double> leafValue) {
  const std::size_t internals = feature.size();
  if (threshold.size() != internals || left.size() != internals ||
      right.size() != internals) {
    invalid("internal-node arrays disagree in length");
  }
  if (roots.empty()) invalid("no trees");
  if (leafValue.empty()) invalid("no leaves");

  const auto checkRef = [&](std::int32_t ref) {
    if (ref >= 0) {
      if (static_cast<std::size_t>(ref) >= internals) {
        invalid("child reference past the node arena");
      }
    } else if (leafIndex(ref) >= leafValue.size()) {
      invalid("leaf reference past the leaf array");
    }
  };
  std::vector<std::int32_t> children(2 * internals);
  for (std::size_t i = 0; i < internals; ++i) {
    if (feature[i] < 0 ||
        static_cast<std::size_t>(feature[i]) >= featureCount) {
      invalid("split feature index out of range");
    }
    checkRef(left[i]);
    checkRef(right[i]);
    children[2 * i] = left[i];
    children[2 * i + 1] = right[i];
  }

  // Structural check: walking from the roots must visit every internal node
  // and every leaf exactly once. This both rejects truncated/garbled arenas
  // and proves traversal terminates (no cycles can survive exactly-once
  // visitation), so `predict` needs no step budget.
  std::vector<char> nodeSeen(internals, 0);
  std::vector<char> leafSeen(leafValue.size(), 0);
  std::vector<std::int32_t> stack;
  for (const auto root : roots) {
    checkRef(root);
    stack.push_back(root);
    while (!stack.empty()) {
      const auto ref = stack.back();
      stack.pop_back();
      if (ref < 0) {
        auto& seen = leafSeen[leafIndex(ref)];
        if (seen) invalid("leaf referenced twice");
        seen = 1;
        continue;
      }
      auto& seen = nodeSeen[static_cast<std::size_t>(ref)];
      if (seen) invalid("node referenced twice (cycle or shared subtree)");
      seen = 1;
      stack.push_back(children[2 * static_cast<std::size_t>(ref)]);
      stack.push_back(children[2 * static_cast<std::size_t>(ref) + 1]);
    }
  }
  if (std::find(nodeSeen.begin(), nodeSeen.end(), 0) != nodeSeen.end() ||
      std::find(leafSeen.begin(), leafSeen.end(), 0) != leafSeen.end()) {
    invalid("unreferenced arena entries (node/leaf counts exceed payload)");
  }

  FlattenedForest flat;
  flat.task_ = task;
  flat.featureCount_ = featureCount;
  flat.roots_ = std::move(roots);
  flat.feature_ = std::move(feature);
  flat.threshold_ = std::move(threshold);
  flat.children_ = std::move(children);
  flat.leafValue_ = std::move(leafValue);
  return flat;
}

double FlattenedForest::evalTree(std::int32_t ref, FeatureRow x) const {
  // `v <= t ? left : right`, phrased as index math inside `step`. The
  // negated form (`v > t`) would send NaN features left where the node
  // tree sends them right — the comparison must match DecisionTree::predict.
  if (quantized()) {
    return evalTreeImpl(ref, x, featureI16_.data(), thresholdF32_.data(),
                        children_.data(), leafValue_.data());
  }
  return evalTreeImpl(ref, x, feature_.data(), threshold_.data(),
                      children_.data(), leafValue_.data());
}

void FlattenedForest::walkLanes(const std::int32_t* roots,
                                std::size_t rootStride, const FeatureRow* rows,
                                std::size_t rowStride, std::size_t m,
                                double* leafOut) const {
  if (quantized()) {
    evalLanes(roots, rootStride, rows, rowStride, m, featureI16_.data(),
              thresholdF32_.data(), children_.data(), leafValue_.data(),
              leafOut);
  } else {
    evalLanes(roots, rootStride, rows, rowStride, m, feature_.data(),
              threshold_.data(), children_.data(), leafValue_.data(), leafOut);
  }
}

double FlattenedForest::predict(FeatureRow x) const {
  if (roots_.empty()) {
    throw std::logic_error("FlattenedForest::predict before flatten");
  }
  if (x.size() < featureCount_) {
    throw std::invalid_argument("FlattenedForest::predict: short feature row");
  }
  // Trees in lockstep, kLanes at a time over the one row; each block's leaf
  // values are consumed in tree order, so the regression sum and the vote
  // sequence are exactly those of a tree-by-tree walk.
  const std::size_t trees = roots_.size();
  double leaf[kLanes] = {};
  if (task_ == TreeTask::kRegression) {
    double sum = 0.0;
    for (std::size_t t0 = 0; t0 < trees; t0 += kLanes) {
      const std::size_t m = std::min(kLanes, trees - t0);
      walkLanes(roots_.data() + t0, 1, &x, 0, m, leaf);
      for (std::size_t j = 0; j < m; ++j) sum += leaf[j];
    }
    return sum / static_cast<double>(trees);
  }
  thread_local std::vector<int> votes;
  votes.clear();
  for (std::size_t t0 = 0; t0 < trees; t0 += kLanes) {
    const std::size_t m = std::min(kLanes, trees - t0);
    walkLanes(roots_.data() + t0, 1, &x, 0, m, leaf);
    for (std::size_t j = 0; j < m; ++j) {
      votes.push_back(static_cast<int>(leaf[j]));
    }
  }
  return static_cast<double>(majorityClass(votes));
}

void FlattenedForest::predictBatch(std::span<const FeatureRow> rows,
                                   std::span<double> out) const {
  // Blocked won the bench_perf_micro comparison (BM_PredictBatchRows vs
  // BM_PredictBatchBlocked) and both arms are bit-identical, so it is the
  // default.
  predictBatch(rows, out, BatchTraversal::kBlocked);
}

void FlattenedForest::predictBatch(std::span<const FeatureRow> rows,
                                   std::span<double> out,
                                   BatchTraversal traversal) const {
  if (roots_.empty()) {
    throw std::logic_error("FlattenedForest::predictBatch before flatten");
  }
  if (rows.size() != out.size()) {
    throw std::invalid_argument(
        "FlattenedForest::predictBatch: rows/out length mismatch");
  }
  for (const auto& row : rows) {
    if (row.size() < featureCount_) {
      throw std::invalid_argument(
          "FlattenedForest::predictBatch: short feature row");
    }
  }

  const std::size_t n = rows.size();
  // One tree's leaf values for a block of rows; whichever traversal filled
  // it, row r's contribution is added in tree order, so the accumulated
  // regression mean (and the vote sequence below) is bit-identical to the
  // single-row path.
  double treeVal[kLanes];

  if (task_ == TreeTask::kRegression) {
    // Tree-major: one tree's arena segment stays hot across the whole batch.
    std::fill(out.begin(), out.end(), 0.0);
    for (const auto root : roots_) {
      if (traversal == BatchTraversal::kRowWise) {
        for (std::size_t r = 0; r < n; ++r) out[r] += evalTree(root, rows[r]);
        continue;
      }
      for (std::size_t r0 = 0; r0 < n; r0 += kLanes) {
        const std::size_t m = std::min(kLanes, n - r0);
        walkLanes(&root, 0, rows.data() + r0, 1, m, treeVal);
        for (std::size_t j = 0; j < m; ++j) out[r0 + j] += treeVal[j];
      }
    }
    const double trees = static_cast<double>(roots_.size());
    for (auto& value : out) value /= trees;
    return;
  }

  // Classification, still tree-major into a reused scratch; vote counting
  // goes through the same sorted-run majorityClass as the single-row path.
  const std::size_t trees = roots_.size();
  thread_local std::vector<int> treeOut;  // tree-major, [t * n + r]
  treeOut.resize(trees * n);
  for (std::size_t t = 0; t < trees; ++t) {
    if (traversal == BatchTraversal::kRowWise) {
      for (std::size_t r = 0; r < n; ++r) {
        treeOut[t * n + r] = static_cast<int>(evalTree(roots_[t], rows[r]));
      }
      continue;
    }
    for (std::size_t r0 = 0; r0 < n; r0 += kLanes) {
      const std::size_t m = std::min(kLanes, n - r0);
      walkLanes(&roots_[t], 0, rows.data() + r0, 1, m, treeVal);
      for (std::size_t j = 0; j < m; ++j) {
        treeOut[t * n + r0 + j] = static_cast<int>(treeVal[j]);
      }
    }
  }
  thread_local std::vector<int> votes;
  for (std::size_t r = 0; r < n; ++r) {
    votes.clear();
    for (std::size_t t = 0; t < trees; ++t) votes.push_back(treeOut[t * n + r]);
    out[r] = static_cast<double>(majorityClass(votes));
  }
}

void FlattenedForest::applyLayout(const LayoutOptions& options) {
  if (roots_.empty()) {
    throw std::logic_error("FlattenedForest::applyLayout before flatten");
  }
  if (options.breadthBlockOrder) reorderBreadthBlocks();
  if (options.quantizeThresholds) quantizeThresholdArrays();
}

void FlattenedForest::reorderBreadthBlocks() {
  const std::size_t internals = feature_.size();
  if (internals == 0) return;

  // Top kBlockLevels levels of each (sub)tree become one contiguous block
  // in BFS order — up to 7 nodes, about one cache line of thresholds — and
  // the subtrees hanging below a block follow depth-first. fromParts proved
  // exactly-once reachability, so this permutation is total.
  constexpr int kBlockLevels = 3;
  std::vector<std::int32_t> newIndex(internals, -1);
  std::int32_t counter = 0;

  std::vector<std::int32_t> frontier;   // subtree roots awaiting a block
  std::vector<std::int32_t> blockRefs;  // BFS queue within one block
  for (auto it = roots_.rbegin(); it != roots_.rend(); ++it) {
    if (*it >= 0) frontier.push_back(*it);
  }
  while (!frontier.empty()) {
    const std::int32_t top = frontier.back();
    frontier.pop_back();
    blockRefs.clear();
    blockRefs.push_back(top);
    int levels = 0;
    std::size_t levelBegin = 0;
    while (levels < kBlockLevels) {
      const std::size_t levelEnd = blockRefs.size();
      for (std::size_t i = levelBegin; i < levelEnd; ++i) {
        const auto node = static_cast<std::size_t>(blockRefs[i]);
        newIndex[node] = counter++;
        if (levels + 1 == kBlockLevels) continue;  // children leave the block
        for (int side = 0; side < 2; ++side) {
          const std::int32_t child = children_[2 * node + side];
          if (child >= 0) blockRefs.push_back(child);
        }
      }
      if (levels + 1 == kBlockLevels) {
        // The last in-block level's internal children seed new blocks, right
        // child first so the left subtree's block lands adjacent.
        for (std::size_t i = levelEnd; i-- > levelBegin;) {
          const auto node = static_cast<std::size_t>(blockRefs[i]);
          for (int side = 1; side >= 0; --side) {
            const std::int32_t child = children_[2 * node + side];
            if (child >= 0) frontier.push_back(child);
          }
        }
      }
      if (levelEnd == blockRefs.size()) break;  // block bottomed out early
      levelBegin = levelEnd;
      ++levels;
    }
  }

  const auto remap = [&](std::int32_t ref) {
    return ref >= 0 ? newIndex[static_cast<std::size_t>(ref)] : ref;
  };
  std::vector<std::int32_t> feature(internals);
  std::vector<double> threshold(internals);
  std::vector<std::int32_t> children(2 * internals);
  for (std::size_t i = 0; i < internals; ++i) {
    const auto to = static_cast<std::size_t>(newIndex[i]);
    feature[to] = feature_[i];
    threshold[to] = threshold_[i];
    children[2 * to] = remap(children_[2 * i]);
    children[2 * to + 1] = remap(children_[2 * i + 1]);
  }
  for (auto& root : roots_) root = remap(root);
  feature_ = std::move(feature);
  threshold_ = std::move(threshold);
  children_ = std::move(children);
}

void FlattenedForest::quantizeThresholdArrays() {
  const std::size_t internals = feature_.size();
  featureI16_.resize(internals);
  thresholdF32_.resize(internals);
  for (std::size_t i = 0; i < internals; ++i) {
    if (feature_[i] > INT16_MAX) {
      featureI16_.clear();
      thresholdF32_.clear();
      invalid("split feature index exceeds the int16 quantized layout");
    }
    featureI16_[i] = static_cast<std::int16_t>(feature_[i]);
    thresholdF32_[i] = static_cast<float>(threshold_[i]);
  }
}

}  // namespace vcaqoe::ml
