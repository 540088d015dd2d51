#pragma once
// Bridges the side-channel results into the "LWE with hints" estimator:
// per-coefficient posteriors become perfect or approximate hints exactly as
// in paper §IV-C (near-deterministic posteriors -> perfect hints; the rest
// -> approximate/posterior hints with the measured variance).

#include <cstddef>
#include <vector>

#include "core/attack.hpp"
#include "lwe/dbdd.hpp"

namespace reveal::core {

struct HintSummary {
  std::size_t perfect = 0;      ///< coefficients integrated as perfect hints
  std::size_t approximate = 0;  ///< integrated with residual variance
  double mean_residual_variance = 0.0;  ///< over the approximate ones
  std::size_t sign_only = 0;  ///< abstained values demoted to sign-only hints
  std::size_t skipped = 0;    ///< abstained without a trusted sign: no hint
};

/// Degradation-aware hint routing (paper §IV-C's perfect/approximate split,
/// extended with fallbacks for degraded captures). Perfect hints require a
/// full-confidence guess AND a near-zero posterior variance — a corrupted
/// window can therefore never poison the estimator with a wrong "exact"
/// coefficient; it degrades into a wider approximate hint, a sign-only
/// hint, or no hint at all, raising bikz instead of breaking correctness.
/// With zero_hint_variance = 0, full-confidence guesses route exactly as in
/// the paper: perfect at posterior variance <= perfect_threshold, otherwise
/// approximate with the posterior variance (Table III).
struct HintPolicy {
  /// Posterior-variance cutoff for perfect hints (full-confidence only).
  double perfect_threshold = 1e-6;
  /// Low-confidence guesses keep their posterior but the hint variance is
  /// inflated: max(variance * inflation, min_inflated_variance).
  double low_confidence_inflation = 4.0;
  double min_inflated_variance = 0.25;
  /// Sampler parameters for the sign-only fallback (half-Gaussian variance).
  double sigma = 3.19;
  double max_deviation = 41.0;
  /// Residual variance of an abstained-value "zero" detection (the branch
  /// said zero but the window was degraded: close to exact, never perfect).
  double abstained_zero_variance = 0.25;
  /// Variance assigned to full-confidence zero detections. Zeros are decided
  /// by the branch classifier alone — the template stage (whose absolute
  /// Mahalanobis fit exposes corrupted windows) never sees them — so under
  /// acquisition faults a time-warped +-1 window can classify as zero while
  /// passing every margin and fit gate. The robust policy therefore never
  /// grants zeros perfect status: they integrate at this (small) variance,
  /// which covers an off-by-one truth at two sigma. Set to 0 to restore the
  /// clean-pipeline behaviour where zero detections are exact (Table III).
  double zero_hint_variance = 0.25;
};

/// One routed hint: what a single coefficient guess contributes to the
/// estimator under a HintPolicy. Routing is a pure function of the guess —
/// no estimator, no shared state — so campaign workers can route their
/// captures concurrently and the (ordered) records are the ground truth the
/// equivalence suite compares byte-for-byte.
struct HintRecord {
  enum class Kind : std::uint8_t {
    kPerfect,      ///< integrate_perfect_error_hints(1)
    kApproximate,  ///< integrate_posterior_error_hints(variance, 1)
    kSignOnly,     ///< posterior replacement by the sign-conditioned variance
    kSkipped,      ///< no trusted information: no hint
  };
  Kind kind = Kind::kSkipped;
  double variance = 0.0;  ///< hint variance (0 for perfect/skipped)

  friend bool operator==(const HintRecord&, const HintRecord&) = default;
};

/// Routes one guess under `policy`. integrate_guess_hints is exactly
/// route_guess + apply_hint over the guesses in order.
[[nodiscard]] HintRecord route_guess(const CoefficientGuess& g, const HintPolicy& policy);

/// Applies a routed hint to the estimator (no-op for kSkipped).
void apply_hint(lwe::DbddEstimator& estimator, const HintRecord& record);

/// Hint counters that accumulate per worker and merge exactly.
///
/// HintSummary's counters must never be mutated from several workers at
/// once (lost updates under contention); instead each worker owns a
/// HintTally and the campaign merges them in worker-index order. The tally
/// keeps the *raw* variance sum rather than the mean so that merging is
/// associative and exact for the integer counters; the final
/// mean_residual_variance is computed once at summary() time.
struct HintTally {
  std::size_t perfect = 0;
  std::size_t approximate = 0;
  std::size_t sign_only = 0;
  std::size_t skipped = 0;
  double approximate_variance_sum = 0.0;

  void add(const HintRecord& record);
  void merge(const HintTally& other) noexcept;
  [[nodiscard]] HintSummary summary() const;

  friend bool operator==(const HintTally&, const HintTally&) = default;
};

/// True if `g` would be integrated as a *perfect* hint under `policy` —
/// the exact predicate used by integrate_guess_hints, exported so tests and
/// benches can count (and cross-check) perfect hints without duplicating
/// the routing rules.
[[nodiscard]] bool routes_as_perfect(const CoefficientGuess& g, const HintPolicy& policy);

/// Integrates full-attack guesses (sign + value posteriors) for the error
/// coordinates of `estimator`: route_guess + apply_hint in guess order.
HintSummary integrate_guess_hints(lwe::DbddEstimator& estimator,
                                  const std::vector<CoefficientGuess>& guesses,
                                  const HintPolicy& policy);

/// Branch-only adversary (paper Table IV): only the sign / zero information
/// is used. Zero coefficients become perfect hints; signed ones are
/// replaced by the sign-conditioned (half-Gaussian) distribution whose
/// variance is computed from the sampler parameters.
HintSummary integrate_sign_only_hints(lwe::DbddEstimator& estimator,
                                      const std::vector<CoefficientGuess>& guesses,
                                      double sigma, double max_deviation);

}  // namespace reveal::core
