#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"

/// Tabular datasets for the supervised models (one row per prediction
/// window, one column per feature).
namespace vcaqoe::ml {

struct Dataset {
  std::vector<std::string> featureNames;
  /// Row-major feature matrix; every row has featureNames.size() columns.
  std::vector<std::vector<double>> x;
  /// Regression target or class id (as double) per row.
  std::vector<double> y;

  std::size_t rows() const { return x.size(); }
  std::size_t cols() const { return featureNames.empty() && !x.empty()
                                 ? x.front().size()
                                 : featureNames.size(); }

  void addRow(std::vector<double> features, double target);
  /// Appends all rows of `other` (feature names must match or be empty).
  void append(const Dataset& other);
  /// Subset by row indices.
  Dataset subset(std::span<const std::size_t> indices) const;
  /// Throws std::invalid_argument if x/y lengths differ, any row width
  /// disagrees with cols(), or any feature or target is not finite.
  void validate() const;
};

/// K-fold assignment: returns per-row fold ids in [0, k), shuffled.
std::vector<int> kFoldAssignment(std::size_t rows, int k, common::Rng& rng);

/// Splits row indices into (train, test) for one fold.
struct FoldIndices {
  std::vector<std::size_t> train;
  std::vector<std::size_t> test;
};
FoldIndices foldIndices(const std::vector<int>& assignment, int fold);

}  // namespace vcaqoe::ml
