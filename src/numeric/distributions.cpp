#include "numeric/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

namespace reveal::num {

namespace {

/// P(lo < N(0,sigma) <= hi).
double normal_interval(double lo, double hi, double sigma) noexcept {
  return normal_cdf(hi / sigma) - normal_cdf(lo / sigma);
}

/// Total mass of the clipped (pre-rounding) normal: P(|X| <= max_dev).
double clip_mass(double sigma, double max_dev) noexcept {
  return normal_interval(-max_dev, max_dev, sigma);
}

}  // namespace

double normal_cdf(double x) noexcept {
  return 0.5 * std::erfc(-x * std::numbers::sqrt2 / 2.0);
}

double rounded_clipped_normal_pmf(int k, double sigma, double max_dev) noexcept {
  // SEAL rejects |x| > max_dev before rounding, so the support after
  // rounding is [-round(max_dev), round(max_dev)] and the mass of integer k
  // is the clipped-normal mass of the interval (k-1/2, k+1/2].
  const double kk = static_cast<double>(k);
  if (std::abs(kk) > max_dev + 0.5) return 0.0;
  const double lo = std::max(kk - 0.5, -max_dev);
  const double hi = std::min(kk + 0.5, max_dev);
  if (hi <= lo) return 0.0;
  return normal_interval(lo, hi, sigma) / clip_mass(sigma, max_dev);
}

double positive_tail_mean(double sigma, double max_dev) noexcept {
  double mass = 0.0;
  double acc = 0.0;
  const int kmax = static_cast<int>(std::ceil(max_dev));
  for (int k = 1; k <= kmax; ++k) {
    const double p = rounded_clipped_normal_pmf(k, sigma, max_dev);
    mass += p;
    acc += p * k;
  }
  return mass > 0.0 ? acc / mass : 0.0;
}

double positive_tail_variance(double sigma, double max_dev) noexcept {
  const double mu = positive_tail_mean(sigma, max_dev);
  double mass = 0.0;
  double acc = 0.0;
  const int kmax = static_cast<int>(std::ceil(max_dev));
  for (int k = 1; k <= kmax; ++k) {
    const double p = rounded_clipped_normal_pmf(k, sigma, max_dev);
    mass += p;
    acc += p * (k - mu) * (k - mu);
  }
  return mass > 0.0 ? acc / mass : 0.0;
}

std::vector<double> log_scores_to_posterior(const std::vector<double>& log_scores) {
  if (log_scores.empty()) return {};
  // Max-subtracted softmax. NaN scores (inf - inf in an upstream factored
  // quadratic form at extreme Mahalanobis distances) carry no usable mass
  // and are excluded from the max, so one poisoned class cannot NaN the
  // whole posterior.
  double max_score = -std::numeric_limits<double>::infinity();
  for (const double s : log_scores) {
    if (!std::isnan(s) && s > max_score) max_score = s;
  }
  if (!std::isfinite(max_score)) {
    // +inf best score: certainty concentrated on the (tied) +inf classes.
    // All scores -inf or NaN: every class underflowed — no information,
    // which is a uniform posterior, not the NaN that exp(-inf - -inf)
    // would produce.
    std::vector<double> probs(log_scores.size(), 0.0);
    std::size_t hits = 0;
    for (std::size_t i = 0; i < log_scores.size(); ++i) {
      if (log_scores[i] == max_score) ++hits;
    }
    if (hits == 0) {
      std::fill(probs.begin(), probs.end(),
                1.0 / static_cast<double>(log_scores.size()));
      return probs;
    }
    const double p = 1.0 / static_cast<double>(hits);
    for (std::size_t i = 0; i < log_scores.size(); ++i) {
      if (log_scores[i] == max_score) probs[i] = p;
    }
    return probs;
  }
  std::vector<double> probs(log_scores.size());
  double total = 0.0;
  for (std::size_t i = 0; i < log_scores.size(); ++i) {
    probs[i] = std::isnan(log_scores[i]) ? 0.0 : std::exp(log_scores[i] - max_score);
    total += probs[i];
  }
  // total >= exp(0) = 1 (the max survives the subtraction), so the divide
  // can never be 0/0 here.
  for (double& p : probs) p /= total;
  return probs;
}

}  // namespace reveal::num
