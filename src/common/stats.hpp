#pragma once

#include <cstddef>
#include <span>
#include <vector>

/// Descriptive statistics shared by the feature extractor, the evaluation
/// harness, and the bench reporters.
namespace vcaqoe::common {

/// The five order/moment statistics the paper computes over packet sizes and
/// inter-arrival times (Table 1).
struct FiveNumber {
  double mean = 0.0;
  double stdev = 0.0;
  double median = 0.0;
  double min = 0.0;
  double max = 0.0;
};

/// Computes mean of `xs`; 0 for an empty span.
double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator); 0 for fewer than two samples.
double sampleStdev(std::span<const double> xs);

/// Population standard deviation (n denominator); 0 for an empty span.
double populationStdev(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0, 100]. 0 for an empty span.
/// Sorts a copy — the reference `median` is tested against.
double percentile(std::span<const double> xs, double p);

/// Median: bit-identical to `percentile(xs, 50.0)` for NaN-free input (a
/// +0.0 and -0.0 tied at the median may trade places), by selection
/// (nth_element) over a reused thread-local copy rather than a sort — no
/// allocation in steady state.
double median(std::span<const double> xs);

/// All five statistics: one mean, shared by the standard deviation, plus
/// the median's selection and one min/max pass.
FiveNumber fiveNumber(std::span<const double> xs);

/// Streaming mean/variance/min/max via Welford's algorithm.
class RunningStats {
 public:
  void add(double x);
  void clear();

  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  /// Sample variance (n-1); 0 for fewer than two samples.
  double variance() const;
  double stdev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Empirical CDF evaluation helper used by the figure benches: returns the
/// fraction of samples <= x.
double empiricalCdf(std::span<const double> sortedXs, double x);

/// Mean absolute error between predictions and truth (sizes must match).
double meanAbsoluteError(std::span<const double> predicted,
                         std::span<const double> truth);

/// Mean relative absolute error: mean(|pred - truth| / truth) over samples
/// with truth != 0 (the paper's MRAE for bitrate).
double meanRelativeAbsoluteError(std::span<const double> predicted,
                                 std::span<const double> truth);

/// Fraction of samples with |pred - truth| <= tolerance (e.g. "within 2 FPS").
double fractionWithinAbsolute(std::span<const double> predicted,
                              std::span<const double> truth, double tolerance);

/// Fraction of samples with |pred - truth| <= frac * |truth| (e.g. "within
/// 25% of ground truth bitrate").
double fractionWithinRelative(std::span<const double> predicted,
                              std::span<const double> truth, double frac);

}  // namespace vcaqoe::common
