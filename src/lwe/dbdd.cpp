#include "lwe/dbdd.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace reveal::lwe {

double bkz_delta(double beta) {
  // Single definition lives with the profile simulator (the two must agree
  // on the root-Hermite model for its small-block regime).
  return lattice::root_hermite_delta(beta);
}

DbddEstimator::DbddEstimator(const DbddParams& params) {
  if (params.secret_dim == 0 || params.error_dim == 0 || params.q <= 1.0 ||
      params.secret_variance <= 0.0 || params.error_variance <= 0.0)
    throw std::invalid_argument("DbddEstimator: invalid parameters");
  log_vol_lattice_ = static_cast<double>(params.error_dim) * std::log(params.q);
  secret_vars_.assign(params.secret_dim, params.secret_variance);
  error_vars_.assign(params.error_dim, params.error_variance);
}

std::size_t DbddEstimator::dim() const noexcept {
  return secret_vars_.size() + error_vars_.size() + 1;  // + homogenization
}

double DbddEstimator::logvol() const noexcept {
  double half_log_det = 0.0;
  for (const double v : secret_vars_) half_log_det += 0.5 * std::log(v);
  for (const double v : error_vars_) half_log_det += 0.5 * std::log(v);
  return log_vol_lattice_ - half_log_det;
}

std::size_t DbddEstimator::live_error_coords() const noexcept { return error_vars_.size(); }

std::span<double> DbddEstimator::take_fresh_error_coords(std::size_t count) {
  if (count > error_vars_.size() - hinted_errors_)
    throw std::logic_error("DbddEstimator: not enough fresh error coordinates for hints");
  const std::span<double> taken(error_vars_.data() + hinted_errors_, count);
  hinted_errors_ += count;
  return taken;
}

void DbddEstimator::integrate_perfect_error_hints(std::size_t count) {
  // A perfect hint on coordinate i: Vol(Lambda ∩ e_i^⊥) = Vol(Lambda) for
  // e_i in the dual, and the coordinate's 1/2 ln(var) leaves the det term —
  // realized here simply by dropping the live coordinate. Fresh coordinates
  // sit at the back, so they go first; the hinted prefix shrinks only once
  // none is left.
  if (count > error_vars_.size())
    throw std::logic_error("DbddEstimator: no error coordinates left to hint");
  error_vars_.resize(error_vars_.size() - count);
  hinted_errors_ = std::min(hinted_errors_, error_vars_.size());
}

void DbddEstimator::integrate_posterior_error_hints(double new_variance,
                                                    std::size_t count) {
  if (new_variance <= 0.0)
    throw std::invalid_argument("DbddEstimator: posterior variance must be positive");
  for (double& v : take_fresh_error_coords(count)) v = new_variance;
}

SecurityEstimate estimate_from_dim_logvol(std::size_t dim, double logvol) {
  SecurityEstimate out;
  out.dim = dim;
  out.beta = lattice::gsa_intersect_beta(dim, logvol);
  out.delta = bkz_delta(out.beta);
  out.bits = out.beta / kBikzPerBit;
  return out;
}

SecurityEstimate DbddEstimator::estimate() const {
  return estimate_from_dim_logvol(dim(), logvol());
}

std::vector<double> DbddEstimator::normalized_log_profile() const {
  std::vector<double> profile;
  profile.reserve(dim());
  if (!error_vars_.empty()) {
    const double vol_share =
        log_vol_lattice_ / static_cast<double>(error_vars_.size());
    for (const double v : error_vars_) {
      profile.push_back(vol_share - 0.5 * std::log(v));
    }
    for (const double v : secret_vars_) profile.push_back(-0.5 * std::log(v));
    profile.push_back(0.0);  // homogenization row
  } else {
    // Degenerate: every error coordinate eliminated — spread the lattice
    // volume evenly so the profile still sums to logvol().
    const double vol_share =
        log_vol_lattice_ / static_cast<double>(secret_vars_.size() + 1);
    for (const double v : secret_vars_) {
      profile.push_back(vol_share - 0.5 * std::log(v));
    }
    profile.push_back(vol_share);
  }
  std::sort(profile.begin(), profile.end(), std::greater<double>());
  return profile;
}

SecurityEstimate DbddEstimator::estimate_simulated(
    const lattice::BkzSimParams& params) const {
  const double beta =
      lattice::simulated_intersect_beta(normalized_log_profile(), params);
  SecurityEstimate out;
  out.dim = dim();
  out.beta = beta;
  out.delta = bkz_delta(beta);
  out.bits = beta / kBikzPerBit;
  return out;
}

SecurityEstimate DbddEstimator::estimate_simulated_reference(
    const lattice::BkzSimParams& params) const {
  const double beta = lattice::simulated_intersect_beta_reference(
      normalized_log_profile(), params);
  SecurityEstimate out;
  out.dim = dim();
  out.beta = beta;
  out.delta = bkz_delta(beta);
  out.bits = beta / kBikzPerBit;
  return out;
}

SecurityEstimate estimate_lwe_security(const DbddParams& params) {
  return DbddEstimator(params).estimate();
}

}  // namespace reveal::lwe
