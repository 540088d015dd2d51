#pragma once
// Shared internals of the campaign engine (core::detail).
//
// Both campaign drivers — live and checkpointed — run the one campaign fold
// (accumulate_campaign_range, campaign_checkpoint.hpp).
// This header holds the pieces the fold and CampaignRunner's acquisition
// helpers share: per-worker SamplerCampaign replicas and the per-worker
// counter schema. Everything here preserves the campaign determinism
// contract: per-capture work is a pure function of (config, seed), all
// outputs land in index slots, and per-worker partials are merged in
// worker-index order by the caller.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/hints.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "sca/report.hpp"

namespace reveal::core::detail {

/// Lazily constructed per-worker SamplerCampaign replicas. Captures are
/// history-independent (run_victim resets the machine and reloads the
/// firmware), so a replica produces bit-identical captures to a shared
/// sequential campaign; each worker touches only its own slot.
class CampaignReplicas {
 public:
  CampaignReplicas(const CampaignConfig& config, std::size_t workers)
      : config_(config),
        replicas_(std::max<std::size_t>(workers, 1)),
        scratch_(replicas_.size()) {}

  SamplerCampaign& for_worker(std::size_t w) {
    if (!replicas_[w]) replicas_[w] = std::make_unique<SamplerCampaign>(config_);
    return *replicas_[w];
  }

  /// Per-worker capture scratch: capture_into() reuses its buffers, so a
  /// worker's acquisition stops allocating after its first few captures.
  FullCapture& scratch_for(std::size_t w) { return scratch_[w]; }

  /// Replica-level fault activation counts folded in worker-index order.
  [[nodiscard]] power::FaultStats merged_fault_stats() const noexcept {
    power::FaultStats faults;
    for (const auto& replica : replicas_) {
      if (replica) faults.merge(replica->fault_stats());
    }
    return faults;
  }

 private:
  CampaignConfig config_;
  std::vector<std::unique_ptr<SamplerCampaign>> replicas_;
  std::vector<FullCapture> scratch_;
};

/// One worker's private observability partial (merged in worker order).
/// The metric handles are resolved once, right after `registry` is built,
/// so the capture loop never does string lookups; resolving them registers
/// the full counter schema, so even idle workers contribute stable
/// (zero-valued) names to the merged report.
struct WorkerObs {
  obs::Registry registry;
  obs::SpanTracer tracer;
  sca::ConfusionMatrix confusion;

  obs::Registry::Id capture_count = registry.counter("capture.count");
  obs::Registry::Id capture_faulted = registry.counter("capture.faulted");
  obs::Registry::Id seg_attempts = registry.counter("segmentation.attempts");
  obs::Registry::Id seg_retries = registry.counter("segmentation.retries");
  obs::Registry::Id seg_ok = registry.counter("segmentation.ok");
  obs::Registry::Id seg_recovered = registry.counter("segmentation.recovered");
  obs::Registry::Id seg_degraded = registry.counter("segmentation.degraded");
  obs::Registry::Id seg_failed = registry.counter("segmentation.failed");
  obs::Registry::Id guess_ok = registry.counter("classify.ok");
  obs::Registry::Id guess_low = registry.counter("classify.low_confidence");
  obs::Registry::Id guess_abstained = registry.counter("classify.abstained");
  obs::Registry::Id sign_correct = registry.counter("classify.sign_correct");
  obs::Registry::Id hints_perfect = registry.counter("hints.perfect");
  obs::Registry::Id hints_approximate = registry.counter("hints.approximate");
  obs::Registry::Id hints_sign_only = registry.counter("hints.sign_only");
  obs::Registry::Id hints_skipped = registry.counter("hints.skipped");
  obs::Registry::Id wrong_perfect = registry.counter("hints.wrong_perfect");
  obs::Registry::Id trace_samples_max = registry.gauge("capture.trace_samples.max");
  obs::Registry::Id window_quality =
      registry.histogram("segmentation.window_quality", 0.0, 1.0, 20);
};

/// Folds one finished capture's outcome into the worker's counters.
inline void count_capture(WorkerObs& o, const CampaignConfig& config,
                          const FullCapture& cap, const RobustCaptureResult& res,
                          const std::vector<HintRecord>& records) {
  obs::Registry& reg = o.registry;
  reg.add(o.capture_count);
  if (config.faults.any()) reg.add(o.capture_faulted);
  reg.set_max(o.trace_samples_max, static_cast<double>(cap.trace.size()));

  reg.add(o.seg_attempts, res.segmentation.attempts);
  if (res.segmentation.attempts > 1)
    reg.add(o.seg_retries, res.segmentation.attempts - 1);
  switch (res.segmentation.status) {
    case sca::SegmentationStatus::kOk: reg.add(o.seg_ok); break;
    case sca::SegmentationStatus::kRecovered: reg.add(o.seg_recovered); break;
    case sca::SegmentationStatus::kDegraded: reg.add(o.seg_degraded); break;
    case sca::SegmentationStatus::kFailed: reg.add(o.seg_failed); break;
  }
  for (const double q : res.segmentation.window_quality) reg.observe(o.window_quality, q);

  for (const CoefficientGuess& g : res.guesses) {
    switch (g.quality) {
      case GuessQuality::kOk: reg.add(o.guess_ok); break;
      case GuessQuality::kLowConfidence: reg.add(o.guess_low); break;
      case GuessQuality::kAbstained: reg.add(o.guess_abstained); break;
    }
  }
  for (const HintRecord& r : records) {
    switch (r.kind) {
      case HintRecord::Kind::kPerfect: reg.add(o.hints_perfect); break;
      case HintRecord::Kind::kApproximate: reg.add(o.hints_approximate); break;
      case HintRecord::Kind::kSignOnly: reg.add(o.hints_sign_only); break;
      case HintRecord::Kind::kSkipped: reg.add(o.hints_skipped); break;
    }
  }

  // Ground truth travels with a live capture, so the per-class confusion of
  // the paper's Table I, the sign accuracy and the wrong-perfect-hint count
  // (the invariant the degradation-aware routing must hold at zero) fall
  // out of the campaign for free — but only when every window produced a
  // guess (a shorted segmentation loses the window <-> coefficient
  // correspondence). A guess exists only when segmentation did not fail,
  // so records[j] is guess j's hint.
  if (!res.guesses.empty() && res.guesses.size() == cap.noise.size()) {
    std::uint64_t sign_correct = 0;
    std::uint64_t wrong_perfect = 0;
    for (std::size_t j = 0; j < res.guesses.size(); ++j) {
      const CoefficientGuess& g = res.guesses[j];
      const std::int64_t truth = cap.noise[j];
      o.confusion.add(static_cast<std::int32_t>(truth), g.value);
      sign_correct += g.sign == (truth > 0) - (truth < 0);
      wrong_perfect += records[j].kind == HintRecord::Kind::kPerfect && g.value != truth;
    }
    reg.add(o.sign_correct, sign_correct);
    reg.add(o.wrong_perfect, wrong_perfect);
  }
}

}  // namespace reveal::core::detail
