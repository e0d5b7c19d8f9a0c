#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/random_forest.hpp"

/// Cache-friendly forest evaluation.
///
/// `ml::DecisionTree` keeps each tree as a vector of 40-byte AoS nodes and
/// `RandomForest::predict` chases them one window at a time — fine for
/// training and offline evaluation, but the per-window hot path of a
/// network-scale monitor (§7) is dominated by exactly that pointer chasing.
/// `FlattenedForest` re-lays an already-trained forest into one contiguous
/// structure-of-arrays arena shared by every tree:
///
///   feature[]    int32 per internal node — split feature
///   threshold[]  double per internal node — go left when x[f] <= t
///   children[]   int32 pair per internal node — [2n] left, [2n+1] right,
///                interleaved so one cache line serves both outcomes of a
///                split and the taken child is
///                `children[2n + (x[f] <= t ? 0 : 1)]` (branchless index
///                math — comparison sense matches the node tree, so NaN
///                features go right on both layouts)
///   leafValue[]  double per leaf
///
/// A child reference >= 0 is an internal-node index into the arena; a
/// negative reference encodes a leaf as `-(leafIndex + 1)`, so traversal is
/// a branch-free-ish loop over three flat streams with the leaf test folded
/// into the sign bit. Tree roots use the same encoding (a depth-0 tree is a
/// root that is itself a leaf).
///
/// `predict` is bit-exact with `RandomForest::predict` (tested property):
/// it walks 8 trees in lockstep over the row, so their dependent node loads
/// overlap, but consumes the leaf values in tree order — the regression mean
/// accumulates in the same order, and classification ties break toward the
/// smallest class id exactly as the node-tree form does. `predictBatch`
/// evaluates tree-major through the same lockstep kernel, 8 rows per tree —
/// one tree's arena segment stays hot across the whole batch — which is
/// where the cross-flow batched inference pipeline gets its win.
namespace vcaqoe::ml {

/// One feature vector, borrowed from the caller for the duration of a call.
using FeatureRow = std::span<const double>;

class FlattenedForest {
 public:
  /// Opt-in layout transforms applied on top of an already-built arena via
  /// `applyLayout`. Neither is ever on by default.
  struct LayoutOptions {
    /// Re-derive `float32` thresholds and `int16` split-feature indices and
    /// evaluate against those. Predictions may differ from the full-precision
    /// arena only for feature values falling inside a threshold's
    /// double->float rounding gap (at most 1 float ulp of the threshold, so
    /// regression outputs move by at most (max leaf - min leaf) and
    /// classification can flip only on such knife-edge rows — the tolerance
    /// contract tested by tests/simd_kernels_test.cpp). Throws
    /// std::invalid_argument when a split feature index exceeds int16.
    bool quantizeThresholds = false;
    /// Renumber internal nodes into breadth-limited blocks: each subtree's
    /// top levels become one contiguous block (about a cache line of
    /// thresholds), children blocks follow depth-first. A pure index
    /// permutation — predictions stay bit-identical.
    bool breadthBlockOrder = false;
  };

  /// How `predictBatch` walks the arena. Outputs are bit-identical either
  /// way; kBlocked advances a lane of rows one tree level per round so the
  /// data-dependent loads of ~8 rows overlap (memory-level parallelism).
  enum class BatchTraversal { kRowWise, kBlocked };

  FlattenedForest() = default;

  /// Flattens a trained forest. Throws std::invalid_argument when the forest
  /// is untrained.
  explicit FlattenedForest(const RandomForest& forest);

  /// Reconstruction from raw arrays (deserialization). Validates every child
  /// and root reference; throws std::invalid_argument on any out-of-range
  /// reference or inconsistent array sizes.
  static FlattenedForest fromParts(TreeTask task, std::size_t featureCount,
                                   std::vector<std::int32_t> roots,
                                   std::vector<std::int32_t> feature,
                                   std::vector<double> threshold,
                                   std::vector<std::int32_t> left,
                                   std::vector<std::int32_t> right,
                                   std::vector<double> leafValue);

  bool trained() const { return !roots_.empty(); }
  TreeTask task() const { return task_; }
  std::size_t treeCount() const { return roots_.size(); }
  /// Internal (split) nodes across all trees.
  std::size_t internalNodeCount() const { return feature_.size(); }
  std::size_t leafCount() const { return leafValue_.size(); }
  std::size_t featureCount() const { return featureCount_; }

  /// Mean of tree outputs (regression) or majority vote, ties to the
  /// smallest class id (classification) — bit-exact with
  /// `RandomForest::predict` on the source forest.
  double predict(FeatureRow x) const;

  /// Batched predict: `out[i]` receives the prediction for `rows[i]`.
  /// Evaluates tree-major over the whole batch (blocked traversal — the
  /// bench_perf_micro winner). Throws std::invalid_argument when the spans
  /// disagree in length.
  void predictBatch(std::span<const FeatureRow> rows,
                    std::span<double> out) const;

  /// Same, with the traversal order pinned (bench comparisons and the
  /// equivalence suite exercise both arms explicitly).
  void predictBatch(std::span<const FeatureRow> rows, std::span<double> out,
                    BatchTraversal traversal) const;

  /// Applies the opt-in layout transforms in place (reorder first, then
  /// quantize). Throws std::logic_error before flatten.
  void applyLayout(const LayoutOptions& options);

  /// True once applyLayout installed the float32/int16 arrays.
  bool quantized() const { return !thresholdF32_.empty(); }

  /// Raw array access for persistence.
  const std::vector<std::int32_t>& roots() const { return roots_; }
  const std::vector<std::int32_t>& feature() const { return feature_; }
  const std::vector<double>& threshold() const { return threshold_; }
  /// Interleaved child pairs: `children()[2n]` left, `children()[2n+1]`
  /// right (the on-disk format keeps separate left/right columns).
  const std::vector<std::int32_t>& children() const { return children_; }
  std::int32_t left(std::size_t node) const { return children_[2 * node]; }
  std::int32_t right(std::size_t node) const {
    return children_[2 * node + 1];
  }
  const std::vector<double>& leafValue() const { return leafValue_; }

 private:
  double evalTree(std::int32_t ref, FeatureRow x) const;
  /// Lockstep walk of up to 8 (root, row) lanes: lane j evaluates the tree
  /// at `roots[j * rootStride]` on `rows[j * rowStride]` and writes its leaf
  /// value to `leafOut[j]`.
  void walkLanes(const std::int32_t* roots, std::size_t rootStride,
                 const FeatureRow* rows, std::size_t rowStride, std::size_t m,
                 double* leafOut) const;
  void reorderBreadthBlocks();
  void quantizeThresholdArrays();

  TreeTask task_ = TreeTask::kRegression;
  std::size_t featureCount_ = 0;
  std::vector<std::int32_t> roots_;      // one child-encoded ref per tree
  std::vector<std::int32_t> feature_;    // per internal node
  std::vector<double> threshold_;        // per internal node
  std::vector<std::int32_t> children_;   // 2 per internal node, interleaved
  std::vector<double> leafValue_;        // per leaf
  // Quantized mirrors of feature_/threshold_, empty until applyLayout
  // installs them; eval reads these instead when non-empty.
  std::vector<std::int16_t> featureI16_;
  std::vector<float> thresholdF32_;
};

}  // namespace vcaqoe::ml
