#pragma once
// The RevEAL attack pipeline (paper §III):
//   1. segment the single trace into per-coefficient windows (Fig. 3a)
//   2. classify the taken branch -> sign / zero (vulnerability 1, Fig. 3b)
//   3. template attack on the value within the sign class, combining the
//      assignment leakage (vulnerability 2) with the negation/store leakage
//      (vulnerability 3) — realized as sign-conditioned template sets
//   4. emit per-coefficient posteriors, which become perfect/approximate
//      hints for the DBDD estimator (src/lwe/dbdd.hpp).

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/acquisition.hpp"
#include "obs/span_tracer.hpp"
#include "sca/classifier.hpp"
#include "sca/template_attack.hpp"

namespace reveal::core {

struct AttackConfig {
  std::size_t sign_prefix = 60;   ///< samples used by the branch classifier (must end
                                  ///< before the loop-exit branch diverges)
  std::size_t value_prefix = 110; ///< window region searched for value POIs
                                  ///< (covers the whole negative branch body)
  std::size_t poi_count = 12;
  std::size_t poi_min_spacing = 2;
  /// Values seen fewer than this many times during profiling get no
  /// template (they fall outside the observed range, like the paper's
  /// "values between -14 and 14 with 220,000 tests").
  std::size_t min_class_count = 5;

  // --- degradation awareness (all 0 = disabled: exact seed behaviour) ---
  /// Relative Fisher-distance margin (d2 - d1) / d1 between the two closest
  /// sign patterns below which the branch classifier abstains entirely
  /// (the guess carries no trusted information).
  double abstain_margin = 0.0;
  /// Margin below which a committed guess is flagged low-confidence (its
  /// hint variance gets inflated instead of trusted verbatim).
  double low_confidence_margin = 0.0;
  /// Maximum-posterior probability below which the value stage abstains;
  /// the sign remains trusted (sign-only hint fallback).
  double value_commit_threshold = 0.0;
  /// Segmentation window quality below which a guess is capped at
  /// low-confidence; below half of it the window is abstained untrusted.
  /// Only consulted when a quality score is supplied (robust pipeline).
  double min_window_quality = 0.5;
  /// Absolute goodness-of-fit gates. The margin gates above are *relative*
  /// (distance gap between the two closest classes) and miss corrupted
  /// windows that drift far from every class but closer to a wrong one —
  /// the overconfident-posterior failure mode. These gates bound how far an
  /// observation may sit from its best-matching class at all.
  /// Sign stage: abstain (untrusted) when the squared Fisher distance to the
  /// closest branch pattern exceeds `sign_fit_threshold` per prefix sample
  /// (clean windows score ~1, the within-class expectation).
  double sign_fit_threshold = 0.0;
  /// Value stage: abstain the value (sign stays trusted) when the best
  /// template's squared Mahalanobis distance exceeds `value_fit_threshold`
  /// per POI (clean observations score ~1 by the chi-square law).
  double value_fit_threshold = 0.0;
};

/// How much of a coefficient guess survives acquisition degradation.
enum class GuessQuality {
  kOk,             ///< full-confidence guess (seed-pipeline behaviour)
  kLowConfidence,  ///< committed, but hint variance must be inflated
  kAbstained,      ///< no committed value; sign-only or no information
};

/// Outcome for one coefficient window.
struct CoefficientGuess {
  int sign = 0;                       ///< -1 / 0 / +1 from the branch classifier
  std::int32_t value = 0;             ///< maximum-likelihood value
  std::vector<std::int32_t> support;  ///< candidate values (empty if sign==0)
  std::vector<double> posterior;      ///< probabilities aligned with support
  GuessQuality quality = GuessQuality::kOk;
  bool sign_trusted = true;  ///< false: even the sign is unreliable (no hint)
  double sign_margin = 0.0;  ///< relative margin of the sign decision
  [[nodiscard]] double posterior_variance() const;
  [[nodiscard]] double posterior_mean() const;
};

/// Robust single-capture attack outcome: the segmentation diagnosis plus
/// the per-window guesses (empty when segmentation failed outright).
struct RobustCaptureResult {
  sca::SegmentationResult segmentation;
  std::vector<CoefficientGuess> guesses;
};

class RevealAttack {
 public:
  explicit RevealAttack(AttackConfig config = {});

  /// Trains the sign classifier and the sign-conditioned template sets from
  /// labelled profiling windows, adding them to the pooled-covariance
  /// builders in window order. Reads only the first `sign_prefix` and
  /// `value_prefix` samples of each window, in place: `profiling` is not
  /// copied. Throws if a window is shorter than either prefix, or if a sign
  /// class is missing or too small.
  void train(const std::vector<WindowRecord>& profiling);

  [[nodiscard]] bool trained() const noexcept { return sign_classifier_.fitted(); }
  [[nodiscard]] const AttackConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<std::size_t>& positive_pois() const noexcept {
    return pos_pois_;
  }
  [[nodiscard]] const std::vector<std::size_t>& negative_pois() const noexcept {
    return neg_pois_;
  }
  [[nodiscard]] const sca::PatternClassifier& sign_classifier() const noexcept {
    return sign_classifier_;
  }
  [[nodiscard]] const std::optional<sca::TemplateSet>& positive_templates() const noexcept {
    return pos_templates_;
  }
  [[nodiscard]] const std::optional<sca::TemplateSet>& negative_templates() const noexcept {
    return neg_templates_;
  }

  /// Attacks one window. `window_quality` (from robust segmentation) caps
  /// the guess quality; 1.0 means "trust the window fully". Degraded
  /// windows (too short for the classifier or the POIs) abstain instead of
  /// throwing.
  [[nodiscard]] CoefficientGuess attack_window(std::span<const double> window,
                                               double window_quality = 1.0) const;

  /// The single-trace attack — the one capture-level entry point: robust
  /// segmentation with the expected window count, burst-edge anchoring,
  /// then per-window attacks gated by the segmentation quality scores. On a
  /// clean trace the first segmentation attempt succeeds and every window
  /// is read at full quality. Never throws on a bad trace; a failed
  /// segmentation returns zero guesses with the diagnosis attached. Windows
  /// are attacked in order on the calling thread (campaigns parallelize
  /// over captures instead).
  [[nodiscard]] RobustCaptureResult attack_capture_robust(
      const std::vector<double>& trace, std::size_t expected_windows,
      const sca::SegmentationConfig& seg_config) const;

  /// attack_capture_robust with pipeline-stage spans (segmentation /
  /// classification) recorded into `tracer`, tagged with `capture_index`.
  /// Templated on the tracer so the untraced entry point above — which
  /// delegates here with obs::NullSpanTracer — compiles the instrumentation
  /// away entirely: one body, two instantiations, byte-identical results
  /// by construction (spans observe; no decision reads them).
  template <typename TracerT>
  [[nodiscard]] RobustCaptureResult attack_capture_robust_traced(
      const std::vector<double>& trace, std::size_t expected_windows,
      const sca::SegmentationConfig& seg_config, TracerT& tracer,
      std::uint32_t capture_index = 0) const;

 private:
  AttackConfig config_;
  sca::PatternClassifier sign_classifier_;
  std::optional<sca::TemplateSet> pos_templates_;
  std::optional<sca::TemplateSet> neg_templates_;
  std::vector<std::size_t> pos_pois_;
  std::vector<std::size_t> neg_pois_;
};

template <typename TracerT>
RobustCaptureResult RevealAttack::attack_capture_robust_traced(
    const std::vector<double>& trace, std::size_t expected_windows,
    const sca::SegmentationConfig& seg_config, TracerT& tracer,
    std::uint32_t capture_index) const {
  if (!trained()) throw std::logic_error("RevealAttack: train() first");
  RobustCaptureResult out;
  {
    [[maybe_unused]] auto span = tracer.span(obs::Stage::kSegmentation, capture_index);
    out.segmentation = sca::segment_trace_robust(trace, expected_windows, seg_config);
    if (out.segmentation.status != sca::SegmentationStatus::kFailed) {
      const double threshold = out.segmentation.config.threshold > 0.0
                                   ? out.segmentation.config.threshold
                                   : sca::auto_threshold(trace);
      anchor_windows_at_burst_edge(trace, out.segmentation.segments, threshold);
    }
  }
  if (out.segmentation.status == sca::SegmentationStatus::kFailed) return out;

  [[maybe_unused]] auto span = tracer.span(obs::Stage::kClassification, capture_index);
  const std::span<const double> samples(trace);
  out.guesses.reserve(out.segmentation.segments.size());
  for (std::size_t i = 0; i < out.segmentation.segments.size(); ++i) {
    const sca::Segment& seg = out.segmentation.segments[i];
    out.guesses.push_back(
        attack_window(samples.subspan(seg.window_begin, seg.window_end - seg.window_begin),
                      out.segmentation.window_quality[i]));
  }
  return out;
}

}  // namespace reveal::core
