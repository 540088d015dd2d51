#include "sca/template_attack.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "numeric/distributions.hpp"

namespace reveal::sca {

TemplateSet::TemplateSet(std::vector<ClassTemplate> classes, num::Matrix pooled_covariance)
    : classes_(std::move(classes)) {
  if (classes_.empty()) throw std::invalid_argument("TemplateSet: no classes");
  dim_ = classes_.front().mean.size();
  for (const auto& c : classes_) {
    if (c.mean.size() != dim_)
      throw std::invalid_argument("TemplateSet: inconsistent template dimensions");
  }
  if (pooled_covariance.rows() != dim_ || pooled_covariance.cols() != dim_)
    throw std::invalid_argument("TemplateSet: covariance shape mismatch");
  log_det_ = num::log_det_spd(pooled_covariance);  // throws if not SPD
  inv_covariance_ = num::invert_spd(pooled_covariance);

  // Shared-work factorization: u_c = Sigma^{-1} mu_c and t_c = mu_c^T u_c,
  // fixed at construction. The matvec uses the same i-major/j-inner loop
  // order as mahalanobis_into's y = Sigma^{-1} x, and t_c accumulates
  // left-to-right — the exact-equality tests mirror this order.
  sigma_inv_mu_.assign(classes_.size() * dim_, 0.0);
  mu_sigma_inv_mu_.assign(classes_.size(), 0.0);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const std::vector<double>& mean = classes_[c].mean;
    double* u = sigma_inv_mu_.data() + c * dim_;
    for (std::size_t i = 0; i < dim_; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < dim_; ++j) row += inv_covariance_(i, j) * mean[j];
      u[i] = row;
    }
    double t = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) t += mean[i] * u[i];
    mu_sigma_inv_mu_[c] = t;
  }
}

void TemplateSet::mahalanobis_into(const std::vector<double>& observation,
                                   std::vector<double>& out) const {
  if (observation.size() != dim_)
    throw std::invalid_argument("TemplateSet: observation dimension mismatch");
  // y = Sigma^{-1} x once per observation (the only O(d^2) work), then each
  // class in O(d):  (x-mu)^T Sigma^{-1} (x-mu) = x^T y - 2 u_c^T x + t_c
  // (valid because Sigma^{-1} is symmetric). Scratch is thread-local so
  // concurrent campaign workers scoring through one shared TemplateSet
  // neither race nor allocate in steady state.
  static thread_local std::vector<double> y;
  y.resize(dim_);
  double xy = 0.0;
  for (std::size_t i = 0; i < dim_; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < dim_; ++j) row += inv_covariance_(i, j) * observation[j];
    y[i] = row;
    xy += observation[i] * row;
  }
  out.resize(classes_.size());
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const double* u = sigma_inv_mu_.data() + c * dim_;
    double ux = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) ux += u[i] * observation[i];
    out[c] = xy - 2.0 * ux + mu_sigma_inv_mu_[c];
  }
}

void TemplateSet::mahalanobis_reference_into(const std::vector<double>& observation,
                                             std::vector<double>& out) const {
  if (observation.size() != dim_)
    throw std::invalid_argument("TemplateSet: observation dimension mismatch");
  out.clear();
  out.reserve(classes_.size());
  std::vector<double> diff(dim_);
  for (const auto& c : classes_) {
    for (std::size_t i = 0; i < dim_; ++i) diff[i] = observation[i] - c.mean[i];
    double maha = 0.0;
    for (std::size_t i = 0; i < dim_; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < dim_; ++j) row += inv_covariance_(i, j) * diff[j];
      maha += diff[i] * row;
    }
    out.push_back(maha);
  }
}

std::vector<double> TemplateSet::log_scores(const std::vector<double>& observation) const {
  std::vector<double> scores;
  mahalanobis_into(observation, scores);
  // -1/2 (x-mu)^T Sigma^{-1} (x-mu) - 1/2 log det Sigma (+ const dropped).
  for (double& s : scores) s = -0.5 * s - 0.5 * log_det_;
  return scores;
}

std::vector<double> TemplateSet::mahalanobis(const std::vector<double>& observation) const {
  std::vector<double> out;
  mahalanobis_into(observation, out);
  return out;
}

std::vector<double> TemplateSet::posterior(const std::vector<double>& observation) const {
  return num::log_scores_to_posterior(log_scores(observation));
}

std::int32_t TemplateSet::classify(const std::vector<double>& observation) const {
  // Argmax over the same affine map of the shared kernel that log_scores
  // applies, so classify stays consistent with posterior/log_scores even
  // where the affine map collapses nearly-equal distances in FP.
  static thread_local std::vector<double> scores;
  mahalanobis_into(observation, scores);
  for (double& s : scores) s = -0.5 * s - 0.5 * log_det_;
  std::size_t best = 0;
  for (std::size_t i = 1; i < scores.size(); ++i) {
    if (scores[i] > scores[best]) best = i;
  }
  return classes_[best].label;
}

std::vector<double> TemplateSet::mahalanobis_reference(
    const std::vector<double>& observation) const {
  std::vector<double> out;
  mahalanobis_reference_into(observation, out);
  return out;
}

std::vector<double> TemplateSet::log_scores_reference(
    const std::vector<double>& observation) const {
  std::vector<double> scores;
  mahalanobis_reference_into(observation, scores);
  for (double& s : scores) s = -0.5 * s - 0.5 * log_det_;
  return scores;
}

std::vector<std::int32_t> TemplateSet::labels() const {
  std::vector<std::int32_t> out;
  out.reserve(classes_.size());
  for (const auto& c : classes_) out.push_back(c.label);
  return out;
}

TemplateBuilder::TemplateBuilder(std::size_t dim) : dim_(dim) {
  if (dim == 0) throw std::invalid_argument("TemplateBuilder: dim must be >= 1");
}

void TemplateBuilder::add(std::int32_t label, const std::vector<double>& observation) {
  if (observation.size() != dim_)
    throw std::invalid_argument("TemplateBuilder::add: dimension mismatch");
  auto [it, inserted] = per_class_.try_emplace(label, dim_);
  it->second.add(observation);
}

TemplateSet TemplateBuilder::build(double ridge) const {
  if (per_class_.size() < 2)
    throw std::runtime_error("TemplateBuilder::build: need at least 2 classes");
  std::vector<TemplateSet::ClassTemplate> classes;
  num::Matrix pooled(dim_, dim_);
  std::size_t dof = 0;
  for (const auto& [label, cov] : per_class_) {
    if (cov.count() < 2)
      throw std::runtime_error("TemplateBuilder::build: class with < 2 observations");
    classes.push_back({label, cov.mean(), cov.count()});
    pooled = pooled + cov.scatter();
    dof += cov.count() - 1;
  }
  pooled *= 1.0 / static_cast<double>(dof);
  num::add_ridge(pooled, ridge);
  return TemplateSet(std::move(classes), std::move(pooled));
}

}  // namespace reveal::sca
