#pragma once
// Streaming and batch statistics used across the SCA toolkit.

#include <cmath>
#include <cstddef>
#include <vector>

#include "numeric/matrix.hpp"

namespace reveal::num {

/// Neumaier-compensated scalar accumulator: the compensation idiom of the
/// smoothing kernel in sca::smooth, packaged for reuse wherever a long
/// running sum must not drift (e.g. the DBDD log-volume over 10k+ hint
/// contributions). The running error term absorbs whichever addend loses
/// low bits; value() folds it back in.
class NeumaierSum {
 public:
  NeumaierSum() = default;
  explicit NeumaierSum(double initial) noexcept : sum_(initial) {}

  void add(double v) noexcept {
    const double t = sum_ + v;
    if (std::fabs(sum_) >= std::fabs(v)) {
      comp_ += (sum_ - t) + v;
    } else {
      comp_ += (v - t) + sum_;
    }
    sum_ = t;
  }

  [[nodiscard]] double value() const noexcept { return sum_ + comp_; }

 private:
  double sum_ = 0.0;
  double comp_ = 0.0;
};

/// Numerically stable streaming mean/variance (Welford's algorithm).
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return mean_; }
  /// Sample variance (n-1 denominator); 0 for fewer than 2 samples.
  [[nodiscard]] double variance() const noexcept;
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming per-dimension mean plus full covariance accumulation.
/// Feed vectors of identical dimension; query mean vector and the sample
/// covariance matrix at the end. Used to build power-trace templates.
class RunningCovariance {
 public:
  explicit RunningCovariance(std::size_t dim);

  void add(const std::vector<double>& x);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return mean_.size(); }
  [[nodiscard]] const std::vector<double>& mean() const noexcept { return mean_; }
  /// Sample covariance (n-1 denominator); zero matrix for < 2 samples.
  [[nodiscard]] Matrix covariance() const;
  /// Sum of outer products of deviations (useful for pooled covariance).
  [[nodiscard]] const Matrix& scatter() const noexcept { return scatter_; }

 private:
  std::size_t count_ = 0;
  std::vector<double> mean_;
  Matrix scatter_;
  std::vector<double> delta_;  // scratch
};

/// Mean of a vector (0 for empty input).
double mean_of(const std::vector<double>& xs) noexcept;

/// Sample variance of a vector (0 for fewer than 2 samples).
double variance_of(const std::vector<double>& xs) noexcept;

/// Pearson correlation of two equally sized vectors; 0 if degenerate.
double pearson_correlation(const std::vector<double>& a, const std::vector<double>& b);

/// Fixed-width histogram over [lo, hi) with `bins` buckets; out-of-range
/// samples clamp into the first/last bucket.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x) noexcept;
  [[nodiscard]] std::size_t bin_count() const noexcept { return counts_.size(); }
  [[nodiscard]] std::size_t count(std::size_t bin) const { return counts_.at(bin); }
  [[nodiscard]] std::size_t total() const noexcept { return total_; }
  [[nodiscard]] double bin_center(std::size_t bin) const;

 private:
  double lo_;
  double hi_;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace reveal::num
