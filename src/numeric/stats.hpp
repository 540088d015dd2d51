#pragma once
// Streaming and batch statistics used across the SCA toolkit.

#include <cmath>
#include <cstddef>
#include <vector>

#include "numeric/matrix.hpp"

namespace reveal::num {

/// Neumaier-compensated scalar accumulator, for a long running sum that
/// must not drift (e.g. the DBDD log-volume over 10k+ hint contributions).
/// The running error term absorbs whichever addend loses low bits; value()
/// folds it back in.
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

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Streaming per-dimension mean plus full covariance accumulation.
/// Feed vectors of identical dimension; query the mean vector and the
/// scatter matrix at the end. Used to build power-trace templates.
class RunningCovariance {
 public:
  explicit RunningCovariance(std::size_t dim);

  void add(const std::vector<double>& x);

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] std::size_t dim() const noexcept { return mean_.size(); }
  [[nodiscard]] const std::vector<double>& mean() const noexcept { return mean_; }
  /// Sum of outer products of deviations (useful for pooled covariance).
  [[nodiscard]] const Matrix& scatter() const noexcept { return scatter_; }

 private:
  std::size_t count_ = 0;
  std::vector<double> mean_;
  Matrix scatter_;
  std::vector<double> delta_;  // scratch
};

}  // namespace reveal::num
