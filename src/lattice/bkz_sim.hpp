#pragma once
// Chen-Nguyen-style BKZ profile simulation (CN11, "BKZ 2.0" simulator)
// over log Gram-Schmidt norms, and the "2016 estimate" intersect search
// built on it.
//
// The closed-form GSA estimator (gsa_intersect_beta below, which
// src/lwe/dbdd.cpp calls) assumes a perfectly geometric profile; the
// simulator instead evolves an explicit profile l_i = ln ||b*_i|| tour by
// tour: position k is replaced by the Gaussian heuristic log-radius of the
// projected block [k, k+b) whose volume is what remains after the
// already-fixed prefix (so total log-volume is conserved), the final
// position absorbing the exact remainder. The fast path keeps per-tour
// prefix sums (O(d) per tour), a per-call table of the rank constants of
// the update, and runs each tour's untouched head as a loop of its own;
// the reference path recomputes every block volume naively. Both evaluate
// the same per-position update in the same order, so their profiles are
// bit-identical (fuzzed).
//
// Success predicate (primal uSVP "2016 estimate", profile normalized so
// the target has unit per-coordinate norm): BKZ-beta succeeds iff
//     0.5*ln(beta) <= l_{d-beta}   (0-indexed, post-simulation profile).

#include <cstddef>
#include <vector>

namespace reveal::lattice {

struct BkzSimParams {
  /// Tour budget per block size. Smooth profiles converge (and break out)
  /// within tens of tours; the cliff-shaped profiles produced by many
  /// perfect hints need ~1000 tours for the reduction wave to cross the
  /// cliff, hence the generous default.
  std::size_t max_tours = 2048;
  double convergence = 1e-12;     ///< stop tours when no l_i moves more
};

/// Root-Hermite factor delta(beta). Uses the asymptotic formula
/// ((pi*beta)^(1/beta) * beta / (2*pi*e))^(1/(2*(beta-1))) for beta >= 36
/// and a log-linear interpolation down to delta(2) = 1.0219 below (the
/// experimental root-Hermite factor of LLL-ish reduction). This is the
/// single definition; lwe::bkz_delta forwards here.
[[nodiscard]] double root_hermite_delta(double beta);

/// GSA-intersect block size of a dim-dimensional instance with normalized
/// log-volume `logvol`: the smallest beta in [2, dim] with
///     (2*beta - dim - 1)*ln(delta(beta)) + logvol/dim - 0.5*ln(beta) >= 0,
/// bisected to 1e-3. Returns 2 when beta = 2 already succeeds and dim when
/// no beta does. The closed form behind lwe::estimate_from_dim_logvol, and
/// the seed of simulated_intersect_beta's search.
[[nodiscard]] double gsa_intersect_beta(std::size_t dim, double logvol);

/// Natural-log Gaussian-heuristic radius of a rank-`b` lattice with
/// log-volume `log_vol`: ln( (Gamma(b/2+1) e^{log_vol})^{1/b} / sqrt(pi) ).
[[nodiscard]] double log_gaussian_heuristic(std::size_t b, double log_vol);

/// Expected log-norm of the first vector of a (BKZ-)reduced rank-`b` block
/// of log-volume `log_vol` — the simulator's per-position update. Blocks of
/// rank >= 45 follow the Gaussian heuristic (the CN11 regime); smaller
/// blocks follow the root-Hermite model (b-1)*ln(delta(b)) + log_vol/b,
/// where the GH constant is known to overshoot badly (the two models agree
/// to ~1% at the b = 45 crossover).
[[nodiscard]] double log_block_head(std::size_t b, double log_vol);

/// Simulates up to `params.max_tours` BKZ-`beta` tours on `log_profile`
/// (l_i = ln ||b*_i||). Fast path: prefix-summed block volumes, tabulated
/// rank constants and a separate loop over each tour's untouched head.
[[nodiscard]] std::vector<double> simulate_bkz_profile(
    std::vector<double> log_profile, std::size_t beta,
    const BkzSimParams& params = {});

/// The pre-optimization simulation: naive per-position block-volume sums.
/// Differential anchor for simulate_bkz_profile.
[[nodiscard]] std::vector<double> simulate_bkz_profile_reference(
    std::vector<double> log_profile, std::size_t beta,
    const BkzSimParams& params = {});

/// Smallest integer block size beta in [2, d] whose simulated profile
/// satisfies the success predicate above; returns d if none does. pred(2)
/// is checked first. Then the search gallops outwards from the GSA closed
/// form of the profile's dimension and volume (up by 8, down by 1, doubling
/// the step) until it holds a failing and a succeeding beta, and bisects
/// between them. The result equals the linear scan's wherever the predicate
/// is monotone in beta above 2; the differential fuzz pins that equality.
[[nodiscard]] double simulated_intersect_beta(
    const std::vector<double>& log_profile, const BkzSimParams& params = {});

/// Linear-scan anchor for simulated_intersect_beta (first successful beta
/// counting up from 2, reference simulation per candidate).
[[nodiscard]] double simulated_intersect_beta_reference(
    const std::vector<double>& log_profile, const BkzSimParams& params = {});

}  // namespace reveal::lattice
