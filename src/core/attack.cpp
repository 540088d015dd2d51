#include "core/attack.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

#include "numeric/distributions.hpp"
#include "sca/poi.hpp"

namespace reveal::core {

namespace {

int sign_of(std::int32_t v) { return v > 0 ? 1 : (v < 0 ? -1 : 0); }

}  // namespace

double CoefficientGuess::posterior_mean() const {
  double acc = 0.0;
  for (std::size_t i = 0; i < support.size(); ++i) acc += posterior[i] * support[i];
  return acc;
}

double CoefficientGuess::posterior_variance() const {
  const double mu = posterior_mean();
  double acc = 0.0;
  for (std::size_t i = 0; i < support.size(); ++i) {
    const double d = support[i] - mu;
    acc += posterior[i] * d * d;
  }
  return acc;
}

RevealAttack::RevealAttack(AttackConfig config) : config_(config) {
  if (config_.sign_prefix == 0)
    throw std::invalid_argument("RevealAttack: zero-sized configuration");
}

void RevealAttack::train(const std::vector<WindowRecord>& profiling) {
  if (profiling.empty()) throw std::invalid_argument("RevealAttack::train: no windows");

  // Both stages read window prefixes in place, in window order, so the
  // classifier, POIs and templates match a fit on whole-window copies bit for
  // bit. The sign prefix is clamped to the window: a window too short for the
  // classifier still fails in PatternClassifier::fit, never read past its end.

  // --- sign classifier (vulnerability 1) ---
  std::vector<sca::WindowView> sign_views;
  sign_views.reserve(profiling.size());
  for (const auto& w : profiling) {
    if (w.samples.size() < config_.value_prefix)
      throw std::invalid_argument("RevealAttack::train: window shorter than value_prefix");
    const std::size_t prefix = std::min(config_.sign_prefix, w.samples.size());
    sign_views.push_back({std::span(w.samples).first(prefix), sign_of(w.true_value)});
  }
  sign_classifier_.fit(sign_views, config_.sign_prefix);

  // --- sign-conditioned value templates (vulnerabilities 2 + 3) ---
  auto build_side = [this, &profiling](int sign, std::vector<std::size_t>& pois_out)
      -> std::optional<sca::TemplateSet> {
    // Drop values too rare to template (outside the observed range).
    std::map<std::int32_t, std::size_t> counts;
    for (const auto& w : profiling) {
      if (sign_of(w.true_value) == sign) ++counts[w.true_value];
    }
    std::vector<sca::WindowView> side;
    for (const auto& w : profiling) {
      if (sign_of(w.true_value) != sign) continue;
      if (counts[w.true_value] < std::max<std::size_t>(config_.min_class_count, 2))
        continue;
      side.push_back({std::span(w.samples).first(config_.value_prefix), w.true_value});
    }
    if (side.empty()) return std::nullopt;
    const sca::ClassMeans means = sca::class_means(side);
    if (means.size() < 2) return std::nullopt;  // a lone value: nothing to template
    const std::vector<double> sosd = sca::sosd_curve(means);
    pois_out = sca::select_pois(sosd, config_.poi_count, config_.poi_min_spacing);

    sca::TemplateBuilder builder(pois_out.size());
    for (const auto& v : side) builder.add(v.label, sca::extract_pois(v.samples, pois_out));
    return builder.build();
  };

  pos_templates_ = build_side(+1, pos_pois_);
  neg_templates_ = build_side(-1, neg_pois_);
  if (!pos_templates_ || !neg_templates_)
    throw std::runtime_error(
        "RevealAttack::train: profiling set lacks positive or negative examples");
}

CoefficientGuess RevealAttack::attack_window(std::span<const double> window,
                                             double window_quality) const {
  if (!trained()) throw std::logic_error("RevealAttack: train() first");
  CoefficientGuess guess;

  // A window the classifier cannot even read is a total loss, not an error.
  if (window.size() < config_.sign_prefix) {
    guess.quality = GuessQuality::kAbstained;
    guess.sign_trusted = false;
    return guess;
  }

  // Sign decision with its decision margin: distance gap between the two
  // closest branch patterns, relative to the winner.
  const std::map<std::int32_t, double> dists = sign_classifier_.distances(window);
  std::int32_t best_label = 0;
  double d1 = std::numeric_limits<double>::infinity();
  double d2 = std::numeric_limits<double>::infinity();
  for (const auto& [label, d] : dists) {
    if (d < d1) {
      d2 = d1;
      d1 = d;
      best_label = label;
    } else if (d < d2) {
      d2 = d;
    }
  }
  guess.sign = static_cast<int>(best_label);
  guess.sign_margin = std::isinf(d2) ? d2 : (d2 - d1) / std::max(d1, 1e-12);

  if (config_.abstain_margin > 0.0 && guess.sign_margin < config_.abstain_margin) {
    guess.quality = GuessQuality::kAbstained;
    guess.sign_trusted = false;
    return guess;
  }
  // Absolute fit: a window far from *every* branch pattern is corrupted,
  // however clear the relative margin looks.
  if (config_.sign_fit_threshold > 0.0 &&
      d1 * d1 > config_.sign_fit_threshold * static_cast<double>(config_.sign_prefix)) {
    guess.quality = GuessQuality::kAbstained;
    guess.sign_trusted = false;
    return guess;
  }
  if (config_.low_confidence_margin > 0.0 &&
      guess.sign_margin < config_.low_confidence_margin)
    guess.quality = GuessQuality::kLowConfidence;

  // Segmentation quality gates (only bite when the robust pipeline passes a
  // score below 1): a suspect window cannot carry a full-confidence hint,
  // and a junk window cannot be trusted at all.
  if (window_quality < 0.5 * config_.min_window_quality) {
    guess.quality = GuessQuality::kAbstained;
    guess.sign_trusted = false;
    return guess;
  }
  if (window_quality < config_.min_window_quality &&
      guess.quality == GuessQuality::kOk)
    guess.quality = GuessQuality::kLowConfidence;

  if (guess.sign == 0) {
    guess.value = 0;
    guess.support = {0};
    guess.posterior = {1.0};
    return guess;
  }
  const sca::TemplateSet& templates = guess.sign > 0 ? *pos_templates_ : *neg_templates_;
  const std::vector<std::size_t>& pois = guess.sign > 0 ? pos_pois_ : neg_pois_;
  // Truncated windows that no longer cover the POIs keep the (trusted) sign
  // but cannot support a value guess.
  for (const std::size_t p : pois) {
    if (p >= window.size()) {
      guess.quality = GuessQuality::kAbstained;
      return guess;
    }
  }
  const std::vector<double> observation = sca::extract_pois(window, pois);
  if (config_.value_fit_threshold > 0.0) {
    const std::vector<double> maha = templates.mahalanobis(observation);
    double best_fit = std::numeric_limits<double>::infinity();
    for (const double m : maha) best_fit = std::min(best_fit, m);
    if (best_fit > config_.value_fit_threshold * static_cast<double>(pois.size())) {
      // The observation matches no template: any posterior computed from it
      // would be an overconfident artifact of the softmax. Keep the sign.
      guess.quality = GuessQuality::kAbstained;
      return guess;
    }
  }
  guess.support = templates.labels();
  guess.posterior = templates.posterior(observation);
  std::size_t best = 0;
  for (std::size_t i = 1; i < guess.posterior.size(); ++i) {
    if (guess.posterior[i] > guess.posterior[best]) best = i;
  }
  guess.value = guess.support[best];
  if (config_.value_commit_threshold > 0.0 &&
      guess.posterior[best] < config_.value_commit_threshold)
    guess.quality = GuessQuality::kAbstained;  // sign stays trusted
  return guess;
}

RobustCaptureResult RevealAttack::attack_capture_robust(
    const std::vector<double>& trace, std::size_t expected_windows,
    const sca::SegmentationConfig& seg_config) const {
  obs::NullSpanTracer null_tracer;
  return attack_capture_robust_traced(trace, expected_windows, seg_config, null_tracer);
}

}  // namespace reveal::core
