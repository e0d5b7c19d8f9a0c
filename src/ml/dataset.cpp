#include "ml/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace vcaqoe::ml {

void Dataset::addRow(std::vector<double> features, double target) {
  if (!featureNames.empty() && features.size() != featureNames.size()) {
    throw std::invalid_argument("Dataset::addRow: feature width mismatch");
  }
  x.push_back(std::move(features));
  y.push_back(target);
}

void Dataset::append(const Dataset& other) {
  if (!featureNames.empty() && !other.featureNames.empty() &&
      featureNames != other.featureNames) {
    throw std::invalid_argument("Dataset::append: feature names differ");
  }
  if (featureNames.empty()) featureNames = other.featureNames;
  x.insert(x.end(), other.x.begin(), other.x.end());
  y.insert(y.end(), other.y.begin(), other.y.end());
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out;
  out.featureNames = featureNames;
  out.x.reserve(indices.size());
  out.y.reserve(indices.size());
  for (const std::size_t i : indices) {
    out.x.push_back(x.at(i));
    out.y.push_back(y.at(i));
  }
  return out;
}

void Dataset::validate() const {
  if (x.size() != y.size()) {
    throw std::invalid_argument("Dataset: x/y row count mismatch");
  }
  const std::size_t width = cols();
  for (const auto& row : x) {
    if (row.size() != width) {
      throw std::invalid_argument("Dataset: row width mismatch");
    }
    if (!std::all_of(row.begin(), row.end(),
                     [](double v) { return std::isfinite(v); })) {
      throw std::invalid_argument("Dataset: non-finite feature value");
    }
  }
  if (!std::all_of(y.begin(), y.end(),
                   [](double v) { return std::isfinite(v); })) {
    throw std::invalid_argument("Dataset: non-finite target");
  }
}

std::vector<int> kFoldAssignment(std::size_t rows, int k, common::Rng& rng) {
  if (k < 2) throw std::invalid_argument("kFoldAssignment: k must be >= 2");
  std::vector<int> assignment(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    assignment[i] = static_cast<int>(i % static_cast<std::size_t>(k));
  }
  rng.shuffle(assignment);
  return assignment;
}

FoldIndices foldIndices(const std::vector<int>& assignment, int fold) {
  FoldIndices out;
  for (std::size_t i = 0; i < assignment.size(); ++i) {
    (assignment[i] == fold ? out.test : out.train).push_back(i);
  }
  return out;
}

}  // namespace vcaqoe::ml
