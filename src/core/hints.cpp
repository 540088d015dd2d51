#include "core/hints.hpp"

#include <algorithm>

#include "numeric/distributions.hpp"

namespace reveal::core {

HintRecord route_guess(const CoefficientGuess& g, const HintPolicy& policy) {
  switch (g.quality) {
    case GuessQuality::kOk: {
      if (g.sign == 0 && policy.zero_hint_variance > 0.0)
        return {HintRecord::Kind::kApproximate, policy.zero_hint_variance};
      const double variance = g.posterior_variance();
      if (variance <= policy.perfect_threshold) return {HintRecord::Kind::kPerfect, 0.0};
      return {HintRecord::Kind::kApproximate, variance};
    }
    case GuessQuality::kLowConfidence: {
      const double variance =
          std::max(g.posterior_variance() * policy.low_confidence_inflation,
                   policy.min_inflated_variance);
      return {HintRecord::Kind::kApproximate, variance};
    }
    case GuessQuality::kAbstained: {
      if (!g.sign_trusted) return {HintRecord::Kind::kSkipped, 0.0};
      const double variance =
          g.sign == 0 ? policy.abstained_zero_variance
                      : num::positive_tail_variance(policy.sigma, policy.max_deviation);
      return {HintRecord::Kind::kSignOnly, variance};
    }
  }
  return {HintRecord::Kind::kSkipped, 0.0};  // unreachable
}

void apply_hint(lwe::DbddEstimator& estimator, const HintRecord& record) {
  switch (record.kind) {
    case HintRecord::Kind::kPerfect:
      estimator.integrate_perfect_error_hints(1);
      break;
    case HintRecord::Kind::kApproximate:
    case HintRecord::Kind::kSignOnly:
      estimator.integrate_posterior_error_hints(record.variance, 1);
      break;
    case HintRecord::Kind::kSkipped:
      break;
  }
}

void HintTally::add(const HintRecord& record) {
  switch (record.kind) {
    case HintRecord::Kind::kPerfect: ++perfect; break;
    case HintRecord::Kind::kApproximate:
      ++approximate;
      approximate_variance_sum += record.variance;
      break;
    case HintRecord::Kind::kSignOnly: ++sign_only; break;
    case HintRecord::Kind::kSkipped: ++skipped; break;
  }
}

void HintTally::merge(const HintTally& other) noexcept {
  perfect += other.perfect;
  approximate += other.approximate;
  sign_only += other.sign_only;
  skipped += other.skipped;
  approximate_variance_sum += other.approximate_variance_sum;
}

HintSummary HintTally::summary() const {
  HintSummary s;
  s.perfect = perfect;
  s.approximate = approximate;
  s.sign_only = sign_only;
  s.skipped = skipped;
  if (approximate > 0)
    s.mean_residual_variance = approximate_variance_sum / static_cast<double>(approximate);
  return s;
}

bool routes_as_perfect(const CoefficientGuess& g, const HintPolicy& policy) {
  return route_guess(g, policy).kind == HintRecord::Kind::kPerfect;
}

HintSummary integrate_guess_hints(lwe::DbddEstimator& estimator,
                                  const std::vector<CoefficientGuess>& guesses,
                                  const HintPolicy& policy) {
  HintTally tally;
  for (const auto& g : guesses) {
    const HintRecord record = route_guess(g, policy);
    apply_hint(estimator, record);
    tally.add(record);
  }
  return tally.summary();
}

HintSummary integrate_sign_only_hints(lwe::DbddEstimator& estimator,
                                      const std::vector<CoefficientGuess>& guesses,
                                      double sigma, double max_deviation) {
  // Knowing only the sign, the adversary's belief about a nonzero
  // coefficient is the one-sided rounded clipped Gaussian; its variance is
  // what remains to be searched. Zero detections are exact.
  const double side_variance = num::positive_tail_variance(sigma, max_deviation);
  HintSummary summary;
  for (const auto& g : guesses) {
    if (g.sign == 0) {
      estimator.integrate_perfect_error_hints(1);
      ++summary.perfect;
    } else {
      estimator.integrate_posterior_error_hints(side_variance, 1);
      ++summary.approximate;
    }
  }
  summary.mean_residual_variance = summary.approximate > 0 ? side_variance : 0.0;
  return summary;
}

}  // namespace reveal::core
