#include "common/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/simd.hpp"

namespace vcaqoe::common {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  return simd::sumF64(xs.data(), xs.size()) / static_cast<double>(xs.size());
}

namespace {
double centralMoment2(std::span<const double> xs, double mu) {
  return simd::centralMoment2F64(xs.data(), xs.size(), mu);
}

/// Sample standard deviation around an already computed mean `mu`.
double sampleStdevAround(std::span<const double> xs, double mu) {
  if (xs.size() < 2) return 0.0;
  return std::sqrt(centralMoment2(xs, mu) / static_cast<double>(xs.size() - 1));
}
}  // namespace

double sampleStdev(std::span<const double> xs) {
  return sampleStdevAround(xs, mean(xs));
}

double populationStdev(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  const double mu = mean(xs);
  return std::sqrt(centralMoment2(xs, mu) / static_cast<double>(xs.size()));
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double median(std::span<const double> xs) {
  // percentile(xs, 50.0) by selection instead of a full sort: the element
  // at rank `lo` comes from nth_element, the one above it is the minimum of
  // the partition above `lo`, and they combine through percentile's own
  // expression — the same two order statistics, so the same bits.
  const std::size_t n = xs.size();
  if (n == 0) return 0.0;
  if (n == 1) return xs.front();
  thread_local std::vector<double> scratch;
  scratch.assign(xs.begin(), xs.end());
  const double rank = 50.0 / 100.0 * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const auto loIt = scratch.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(scratch.begin(), loIt, scratch.end());
  // n >= 2 puts lo + 1 <= n - 1, so percentile's `hi` is always lo + 1.
  const double a = *loIt;
  const double b = *std::min_element(loIt + 1, scratch.end());
  return a + frac * (b - a);
}

FiveNumber fiveNumber(std::span<const double> xs) {
  FiveNumber f;
  if (xs.empty()) return f;
  f.mean = mean(xs);
  f.stdev = sampleStdevAround(xs, f.mean);
  f.median = median(xs);
  const auto [lo, hi] = simd::minMaxF64(xs.data(), xs.size());
  f.min = lo;
  f.max = hi;
  return f;
}

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStats::clear() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stdev() const { return std::sqrt(variance()); }

double empiricalCdf(std::span<const double> sortedXs, double x) {
  if (sortedXs.empty()) return 0.0;
  const auto it = std::upper_bound(sortedXs.begin(), sortedXs.end(), x);
  return static_cast<double>(it - sortedXs.begin()) /
         static_cast<double>(sortedXs.size());
}

namespace {
void requireSameSize(std::span<const double> a, std::span<const double> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("prediction/truth size mismatch");
  }
}
}  // namespace

double meanAbsoluteError(std::span<const double> predicted,
                         std::span<const double> truth) {
  requireSameSize(predicted, truth);
  if (predicted.empty()) return 0.0;
  double s = 0.0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    s += std::abs(predicted[i] - truth[i]);
  }
  return s / static_cast<double>(predicted.size());
}

double meanRelativeAbsoluteError(std::span<const double> predicted,
                                 std::span<const double> truth) {
  requireSameSize(predicted, truth);
  double s = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (truth[i] == 0.0) continue;
    s += std::abs(predicted[i] - truth[i]) / std::abs(truth[i]);
    ++n;
  }
  return n ? s / static_cast<double>(n) : 0.0;
}

double fractionWithinAbsolute(std::span<const double> predicted,
                              std::span<const double> truth, double tolerance) {
  requireSameSize(predicted, truth);
  if (predicted.empty()) return 0.0;
  std::size_t hit = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (std::abs(predicted[i] - truth[i]) <= tolerance) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(predicted.size());
}

double fractionWithinRelative(std::span<const double> predicted,
                              std::span<const double> truth, double frac) {
  requireSameSize(predicted, truth);
  if (predicted.empty()) return 0.0;
  std::size_t hit = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < predicted.size(); ++i) {
    if (truth[i] == 0.0) continue;
    ++n;
    if (std::abs(predicted[i] - truth[i]) <= frac * std::abs(truth[i])) ++hit;
  }
  return n ? static_cast<double>(hit) / static_cast<double>(n) : 0.0;
}

}  // namespace vcaqoe::common
