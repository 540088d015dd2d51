#pragma once
// Probability-distribution helpers used by the samplers, the template
// attack posterior computation, and the DBDD hint integration.

#include <cstddef>
#include <vector>

namespace reveal::num {

/// Standard normal cumulative distribution function.
double normal_cdf(double x) noexcept;

/// Probability mass function of the *rounded clipped* normal used by SEAL:
/// X = round(clip(N(0, sigma), +-max_dev)) evaluated at integer k.
/// Matches ClippedNormalDistribution followed by rounding to nearest int.
double rounded_clipped_normal_pmf(int k, double sigma, double max_dev) noexcept;

/// Mean of the distribution of |X| conditioned on X > 0 for the rounded
/// clipped normal (used to model sign-only hints).
double positive_tail_mean(double sigma, double max_dev) noexcept;

/// Variance of X conditioned on X > 0 for the rounded clipped normal.
double positive_tail_variance(double sigma, double max_dev) noexcept;

/// Converts log-likelihood scores to posterior probabilities with a
/// numerically stable softmax (uniform prior).
std::vector<double> log_scores_to_posterior(const std::vector<double>& log_scores);

}  // namespace reveal::num
