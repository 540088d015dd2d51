#include "numeric/stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace reveal::num {

void RunningStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
  return count_ < 2 ? 0.0 : m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

RunningCovariance::RunningCovariance(std::size_t dim)
    : mean_(dim, 0.0), scatter_(dim, dim), delta_(dim, 0.0) {}

void RunningCovariance::add(const std::vector<double>& x) {
  if (x.size() != mean_.size())
    throw std::invalid_argument("RunningCovariance::add: dimension mismatch");
  ++count_;
  const double inv_n = 1.0 / static_cast<double>(count_);
  for (std::size_t i = 0; i < x.size(); ++i) {
    delta_[i] = x[i] - mean_[i];
    mean_[i] += delta_[i] * inv_n;
  }
  // scatter += delta_before * delta_after^T (Welford outer-product update).
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double after_i = x[i] - mean_[i];
    for (std::size_t j = 0; j < x.size(); ++j) {
      scatter_(i, j) += delta_[j] * after_i;
    }
  }
}

}  // namespace reveal::num
