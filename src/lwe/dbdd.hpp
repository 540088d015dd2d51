#pragma once
// Lightweight DBDD security estimator — the C++ equivalent of the
// "LWE with side information" framework of Dachman-Soled, Ducas, Gong &
// Rossi (CRYPTO 2020) that the paper applies to its measurements
// (§IV-C, Tables II-IV).
//
// The estimator embeds the LWE instance into a Distorted Bounded Distance
// Decoding (DBDD) instance described by a lattice volume and a per-
// coordinate variance profile, integrates hints by updating (dim, volume,
// variances), and reports the BKZ block size beta ("bikz") at which the
// GSA-intersect condition predicts the primal uSVP attack succeeds:
//
//     sqrt(beta) <= delta(beta)^(2*beta - dim - 1) * Vol^(1/dim)
//
// with Vol the Sigma-normalized volume. Hint rules (DDGR20 §4, specialized
// to coordinate hints v = e_i on the error, which is all the side channel
// produces and all core/hints.cpp routes):
//   perfect hint      : coordinate removed; dim -= 1; volume gains
//                       sqrt(var_i) (normalization loses the coordinate)
//   posterior hint    : distribution replacement var_i -> new_var (a value
//                       posterior's variance, or for sign-only information
//                       the half-Gaussian conditional variance)
//
// Every posterior hint lands on its own, still-unhinted ("fresh") error
// coordinate, so n single-hint calls equal one n-count call. A perfect hint
// removes a fresh coordinate while one is left, and a hinted one after that
// (guessing a coordinate that already carries a hint).
//
// Hints along arbitrary directions need the full covariance; the dense
// DbddMatrixEstimatorReference (dbdd_matrix.hpp) does that and is the
// anchor these rules are tested against.
//
// bikz -> bits uses the paper's footnote 3 anchor: 382.25 bikz = 128 bits.

#include <cstddef>
#include <span>
#include <vector>

#include "lattice/bkz_sim.hpp"

namespace reveal::lwe {

/// bikz per bit of security (382.25 / 128, paper footnote 3).
inline constexpr double kBikzPerBit = 382.25 / 128.0;

/// Root-Hermite factor delta(beta). Uses the asymptotic formula
/// ((pi*beta)^(1/beta) * beta / (2*pi*e))^(1/(2*(beta-1))) for beta >= 36
/// and a log-linear interpolation down to delta(2) = 1.0219 below.
[[nodiscard]] double bkz_delta(double beta);

struct DbddParams {
  std::size_t secret_dim = 0;   ///< n
  std::size_t error_dim = 0;    ///< m (samples)
  double q = 0.0;
  double secret_variance = 0.0; ///< per-coordinate prior variance of s
  double error_variance = 0.0;  ///< per-coordinate prior variance of e
};

struct SecurityEstimate {
  double beta = 0.0;   ///< bikz
  double delta = 0.0;  ///< delta(beta)
  double bits = 0.0;   ///< beta / kBikzPerBit
  std::size_t dim = 0; ///< dimension of the estimated uSVP instance
};

/// GSA-intersect estimate shared by the estimators: the smallest beta with
/// (2*beta - dim - 1)*ln(delta(beta)) + logvol/dim - 0.5*ln(beta) >= 0
/// (lattice::gsa_intersect_beta).
[[nodiscard]] SecurityEstimate estimate_from_dim_logvol(std::size_t dim,
                                                        double logvol);

class DbddEstimator {
 public:
  explicit DbddEstimator(const DbddParams& params);

  /// Current DBDD dimension (live coordinates + homogenization).
  [[nodiscard]] std::size_t dim() const noexcept;
  /// Normalized log-volume ln Vol - 1/2 ln det Sigma over live coordinates.
  [[nodiscard]] double logvol() const noexcept;

  /// Number of error coordinates not yet eliminated.
  [[nodiscard]] std::size_t live_error_coords() const noexcept;

  /// Integrates `count` perfect hints on error coordinates (e_i known):
  /// fresh coordinates first, then hinted ones. Throws std::logic_error
  /// when fewer than `count` live coordinates are left.
  void integrate_perfect_error_hints(std::size_t count);
  /// A-posteriori replacement: e_i's distribution replaced by one with
  /// variance `new_variance` (e.g. sign-conditioned half-Gaussian), one
  /// fresh coordinate each. Throws std::logic_error when fewer than `count`
  /// fresh coordinates are left.
  void integrate_posterior_error_hints(double new_variance, std::size_t count);

  /// Solves the GSA-intersect condition for the smallest viable beta.
  [[nodiscard]] SecurityEstimate estimate() const;

  /// Sigma-normalized per-coordinate log profile (sorted descending) of the
  /// current DBDD instance — the BKZ simulator's input. Live error
  /// coordinates carry an even share of the lattice log-volume on top of
  /// their -1/2 ln(var) normalization, secret coordinates carry
  /// -1/2 ln(var), the homogenization row is 0; the entries sum to
  /// logvol(), so the simulated and closed-form estimates see the same
  /// normalized volume.
  [[nodiscard]] std::vector<double> normalized_log_profile() const;

  /// BKZ-simulator bikz estimate (CN11 profile simulation + 2016-estimate
  /// intersect) — the fast path for full paper-scale hint curves. The
  /// closed-form estimate() and estimate_simulated_reference() are its
  /// anchors.
  [[nodiscard]] SecurityEstimate estimate_simulated(
      const lattice::BkzSimParams& params = {}) const;

  /// Same predicate through the naive-summation simulator and a linear
  /// block-size scan (differential anchor for estimate_simulated).
  [[nodiscard]] SecurityEstimate estimate_simulated_reference(
      const lattice::BkzSimParams& params = {}) const;

 private:
  /// The next `count` fresh error coordinates (throws if there are fewer).
  std::span<double> take_fresh_error_coords(std::size_t count);

  double log_vol_lattice_;              // ln Vol(Lambda) = m ln q
  std::vector<double> secret_vars_;     // live secret coordinate variances
  std::vector<double> error_vars_;      // live error coordinate variances:
                                        // [hinted | fresh (at the prior)]
  std::size_t hinted_errors_ = 0;       // size of the hinted prefix
};

/// Convenience: estimate for a fresh (hint-free) LWE instance.
[[nodiscard]] SecurityEstimate estimate_lwe_security(const DbddParams& params);

}  // namespace reveal::lwe
