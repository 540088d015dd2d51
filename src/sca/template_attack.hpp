#pragma once
// Multivariate-Gaussian template attack (Chari et al., paper §III-D).
//
// TemplateBuilder accumulates POI vectors per class; build() produces a
// TemplateSet with per-class means and a pooled covariance (pooling keeps
// the estimate well-conditioned with modest profiling counts; a ridge term
// guards against degenerate POIs). TemplateSet::log_scores returns the
// per-class log-likelihoods of an observation; posterior() turns them into
// probabilities — the raw material for the "LWE with hints" integration.
//
// Scoring is factored for the single-trace hot path: with A = Σ⁻¹ the
// squared Mahalanobis distance expands to
//
//   (x-μ_c)ᵀ A (x-μ_c) = xᵀy - 2 u_cᵀx + t_c,   y = A x,
//
// where u_c = A μ_c and t_c = μ_cᵀ u_c are precomputed per class at
// construction. One O(d²) matvec (y) is shared by all classes; each class
// then scores in O(d) instead of O(d²). log_scores / mahalanobis /
// posterior / classify all route through this single kernel (scratch is
// thread-local, so concurrent scoring from campaign workers stays safe and
// allocation-free in steady state). The pre-factorization per-class loops
// survive only as *_reference — the anchor for the equivalence tests and
// the benchmark baseline.

#include <cstdint>
#include <map>
#include <vector>

#include "numeric/matrix.hpp"
#include "numeric/stats.hpp"
#include "sca/trace.hpp"

namespace reveal::sca {

class TemplateSet {
 public:
  struct ClassTemplate {
    std::int32_t label = 0;
    std::vector<double> mean;
    std::size_t count = 0;
  };

  TemplateSet(std::vector<ClassTemplate> classes, num::Matrix pooled_covariance);

  [[nodiscard]] const std::vector<ClassTemplate>& classes() const noexcept {
    return classes_;
  }
  [[nodiscard]] std::size_t dim() const noexcept { return dim_; }

  /// Log-likelihood of `observation` under each class template (same order
  /// as classes()).
  [[nodiscard]] std::vector<double> log_scores(const std::vector<double>& observation) const;

  /// Squared Mahalanobis distance of `observation` to each class mean under
  /// the pooled covariance (same order as classes()). Unlike the posterior —
  /// which only compares classes against each other — the absolute distance
  /// is a goodness-of-fit statistic: an observation far from *every*
  /// template (misaligned or corrupted window) is an outlier even when the
  /// posterior looks confident.
  [[nodiscard]] std::vector<double> mahalanobis(const std::vector<double>& observation) const;

  /// Posterior probabilities (uniform prior) aligned with classes().
  [[nodiscard]] std::vector<double> posterior(const std::vector<double>& observation) const;

  /// Label with maximal likelihood.
  [[nodiscard]] std::int32_t classify(const std::vector<double>& observation) const;

  /// Labels in template order.
  [[nodiscard]] std::vector<std::int32_t> labels() const;

  /// Pre-factorization O(d²)-per-class scoring (diff-then-quadratic-form,
  /// bit-for-bit the seed implementation). Kept as the differential-test
  /// anchor and the bench_perf baseline — not for production paths.
  [[nodiscard]] std::vector<double> mahalanobis_reference(
      const std::vector<double>& observation) const;
  [[nodiscard]] std::vector<double> log_scores_reference(
      const std::vector<double>& observation) const;

 private:
  /// The one shared scoring kernel: writes the squared Mahalanobis distance
  /// of `observation` to every class into `out` via the factored form above.
  void mahalanobis_into(const std::vector<double>& observation,
                        std::vector<double>& out) const;
  /// Shared kernel of the *_reference entry points (the seed loops).
  void mahalanobis_reference_into(const std::vector<double>& observation,
                                  std::vector<double>& out) const;

  std::vector<ClassTemplate> classes_;
  num::Matrix inv_covariance_;
  std::vector<double> sigma_inv_mu_;     ///< classes() x dim, row-major: u_c
  std::vector<double> mu_sigma_inv_mu_;  ///< per class: t_c
  double log_det_ = 0.0;
  std::size_t dim_ = 0;
};

class TemplateBuilder {
 public:
  /// `dim` = POI count of every observation.
  explicit TemplateBuilder(std::size_t dim);

  /// Adds one profiling observation for `label`.
  void add(std::int32_t label, const std::vector<double>& observation);

  /// Builds the template set; `ridge` is added to the pooled covariance
  /// diagonal. Throws std::runtime_error if any class has < 2 observations.
  [[nodiscard]] TemplateSet build(double ridge = 1e-6) const;

 private:
  std::size_t dim_;
  std::map<std::int32_t, num::RunningCovariance> per_class_;
};

}  // namespace reveal::sca
