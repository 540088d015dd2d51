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

void RunningStats::merge(const RunningStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

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

Matrix RunningCovariance::covariance() const {
  Matrix cov = scatter_;
  if (count_ >= 2) cov *= 1.0 / static_cast<double>(count_ - 1);
  else cov *= 0.0;
  return cov;
}

double mean_of(const std::vector<double>& xs) noexcept {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double variance_of(const std::vector<double>& xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean_of(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return acc / static_cast<double>(xs.size() - 1);
}

double pearson_correlation(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size() || a.size() < 2)
    throw std::invalid_argument("pearson_correlation: size mismatch or too short");
  const double ma = mean_of(a);
  const double mb = mean_of(b);
  double num = 0.0, da = 0.0, db = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double xa = a[i] - ma;
    const double xb = b[i] - mb;
    num += xa * xb;
    da += xa * xa;
    db += xb * xb;
  }
  const double denom = std::sqrt(da * db);
  return denom > 0.0 ? num / denom : 0.0;
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0) {
  if (!(hi > lo) || bins == 0)
    throw std::invalid_argument("Histogram: invalid range or zero bins");
}

void Histogram::add(double x) noexcept {
  const double t = (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size());
  auto idx = static_cast<std::ptrdiff_t>(std::floor(t));
  idx = std::clamp<std::ptrdiff_t>(idx, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  ++total_;
}

double Histogram::bin_center(std::size_t bin) const {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + (static_cast<double>(bin) + 0.5) * width;
}

}  // namespace reveal::num
