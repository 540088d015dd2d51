#include "lwe/dbdd_matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace reveal::lwe {

namespace {
constexpr double kDegenerate = 1e-12;

double init_logvol(const DbddParams& params, std::size_t d) {
  double half_log_det = 0.0;
  for (std::size_t i = 0; i < d; ++i) {
    const double var =
        i < params.error_dim ? params.error_variance : params.secret_variance;
    half_log_det += 0.5 * std::log(var);
  }
  return static_cast<double>(params.error_dim) * std::log(params.q) - half_log_det;
}

void validate_params(const DbddParams& params) {
  if (params.secret_dim == 0 || params.error_dim == 0 || params.q <= 1.0 ||
      params.secret_variance <= 0.0 || params.error_variance <= 0.0)
    throw std::invalid_argument("DbddMatrixEstimator: invalid parameters");
}
}  // namespace

DbddMatrixEstimatorReference::DbddMatrixEstimatorReference(const DbddParams& params)
    : error_dim_(params.error_dim), logvol_(0.0) {
  validate_params(params);
  const std::size_t d = params.error_dim + params.secret_dim;
  sigma_ = num::Matrix(d, d);
  for (std::size_t i = 0; i < d; ++i) {
    sigma_(i, i) =
        i < params.error_dim ? params.error_variance : params.secret_variance;
  }
  logvol_ = num::NeumaierSum(init_logvol(params, d));
}

double DbddMatrixEstimatorReference::quadratic_form(const std::vector<double>& v,
                                                    std::vector<double>& sigma_v) const {
  if (v.size() != sigma_.rows())
    throw std::invalid_argument("DbddMatrixEstimator: direction dimension mismatch");
  sigma_v = sigma_.apply(v);
  double q = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) q += v[i] * sigma_v[i];
  return q;
}

void DbddMatrixEstimatorReference::rank_one_downdate(const std::vector<double>& sigma_v,
                                                     double denom) {
  const std::size_t d = sigma_.rows();
  for (std::size_t i = 0; i < d; ++i) {
    const double scale = sigma_v[i] / denom;
    if (scale == 0.0) continue;
    for (std::size_t j = 0; j < d; ++j) {
      sigma_(i, j) -= scale * sigma_v[j];
    }
  }
}

HintOutcome DbddMatrixEstimatorReference::integrate_perfect_hint(
    const std::vector<double>& v) {
  std::vector<double> sigma_v;
  const double q = quadratic_form(v, sigma_v);
  if (q <= kDegenerate) {
    ++rejected_;
    return HintOutcome::kDegenerate;
  }
  if (removed_ + 1 >= sigma_.rows()) {
    ++rejected_;
    return HintOutcome::kExhausted;
  }
  logvol_.add(0.5 * std::log(q));
  rank_one_downdate(sigma_v, q);
  ++removed_;
  return HintOutcome::kApplied;
}

HintOutcome DbddMatrixEstimatorReference::integrate_approximate_hint(
    const std::vector<double>& v, double eps) {
  if (eps <= 0.0)
    throw std::invalid_argument("DbddMatrixEstimator: eps must be positive");
  std::vector<double> sigma_v;
  const double q = quadratic_form(v, sigma_v);
  if (q <= kDegenerate) {
    ++rejected_;
    return HintOutcome::kDegenerate;  // nothing left to learn along v
  }
  logvol_.add(0.5 * std::log((q + eps) / eps));
  rank_one_downdate(sigma_v, q + eps);
  return HintOutcome::kApplied;
}

HintOutcome DbddMatrixEstimatorReference::integrate_perfect_error_hint(std::size_t i) {
  if (i >= error_dim_)
    throw std::invalid_argument("DbddMatrixEstimator: error coordinate out of range");
  std::vector<double> v(sigma_.rows(), 0.0);
  v[i] = 1.0;
  return integrate_perfect_hint(v);
}

std::vector<HintOutcome>
DbddMatrixEstimatorReference::integrate_perfect_coordinate_hints(
    const std::vector<std::size_t>& coords) {
  std::vector<HintOutcome> out;
  out.reserve(coords.size());
  std::vector<double> v(sigma_.rows(), 0.0);
  for (const std::size_t c : coords) {
    if (c >= sigma_.rows())
      throw std::invalid_argument("DbddMatrixEstimator: coordinate out of range");
    v[c] = 1.0;
    out.push_back(integrate_perfect_hint(v));
    v[c] = 0.0;
  }
  return out;
}

SecurityEstimate DbddMatrixEstimatorReference::estimate() const {
  return estimate_from_dim_logvol(dim(), logvol());
}

}  // namespace reveal::lwe
