#include "core/campaign_runner.hpp"

#include <algorithm>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace reveal::core {

namespace {

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

/// The diagnostics sink's metric handles, resolved once per campaign so the
/// recount pass does no string lookups. Resolving them registers the whole
/// schema, so a stage no capture reached still reports its counters at zero.
struct SinkIds {
  obs::Registry& registry;

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

/// Adds what capture i tells the sink beyond the report's fields: its
/// segmentation outcome, window qualities and trace length, and its
/// ground-truth confusion.
void count_capture(const SinkIds& ids, sca::ConfusionMatrix& confusion,
                   const CampaignConfig& config, std::size_t trace_samples,
                   const std::vector<std::int64_t>& truth, const RobustCaptureResult& res,
                   const std::vector<HintRecord>& records) {
  obs::Registry& reg = ids.registry;
  reg.add(ids.capture_count);
  if (config.faults.any()) reg.add(ids.capture_faulted);
  reg.set_max(ids.trace_samples_max, static_cast<double>(trace_samples));

  if (res.segmentation.attempts > 1)
    reg.add(ids.seg_retries, res.segmentation.attempts - 1);
  switch (res.segmentation.status) {
    case sca::SegmentationStatus::kOk: reg.add(ids.seg_ok); break;
    case sca::SegmentationStatus::kRecovered: reg.add(ids.seg_recovered); break;
    case sca::SegmentationStatus::kDegraded: reg.add(ids.seg_degraded); break;
    case sca::SegmentationStatus::kFailed: reg.add(ids.seg_failed); break;
  }
  for (const double q : res.segmentation.window_quality) reg.observe(ids.window_quality, q);

  // Ground truth travels with every capture, so the per-class confusion of
  // the paper's Table I, the sign accuracy and the wrong-perfect-hint count
  // (the invariant the degradation-aware routing must hold at zero) fall
  // out of the campaign for free — but only when every window produced a
  // guess (a shorted segmentation loses the window <-> coefficient
  // correspondence). A guess exists only when segmentation did not fail,
  // so records[j] is guess j's hint.
  if (res.guesses.empty() || res.guesses.size() != truth.size()) return;
  std::uint64_t sign_correct = 0;
  std::uint64_t wrong_perfect = 0;
  for (std::size_t j = 0; j < res.guesses.size(); ++j) {
    const CoefficientGuess& g = res.guesses[j];
    confusion.add(static_cast<std::int32_t>(truth[j]), g.value);
    sign_correct += g.sign == (truth[j] > 0) - (truth[j] < 0);
    wrong_perfect += records[j].kind == HintRecord::Kind::kPerfect && g.value != truth[j];
  }
  reg.add(ids.sign_correct, sign_correct);
  reg.add(ids.wrong_perfect, wrong_perfect);
}

/// The per-capture stage of a campaign, templated on whether anything
/// observes it: kDiag=false instantiates with obs::NullSpanTracer and no
/// instrumentation code at all, so "observability off changes nothing"
/// holds by construction; kDiag=true adds spans on per-worker tracers and
/// each capture's trace length in `trace_samples[i]`. Captures seeds[i],
/// runs the robust attack and routes its guesses on the pool's workers,
/// writing out.captures, out.truth and out.hints into index slots. Returns
/// the per-worker hint tallies merged in worker-index order.
template <bool kDiag>
HintTally capture_attack_route(WorkerPool& pool, const RevealAttack& attack,
                               const CampaignConfig& config,
                               const std::vector<std::uint64_t>& seeds,
                               const HintPolicy& policy, RecoveryCampaignResult& out,
                               std::vector<std::size_t>& trace_samples,
                               CampaignDiagnostics* diag) {
  const std::size_t count = seeds.size();
  const std::size_t worker_slots = std::max<std::size_t>(pool.num_workers(), 1);
  out.captures.resize(count);
  out.truth.resize(count);
  out.hints.resize(count);
  std::vector<HintTally> tallies(worker_slots);
  std::vector<obs::SpanTracer> tracers(kDiag ? worker_slots : 0);
  if constexpr (kDiag) trace_samples.resize(count);
  CampaignReplicas replicas(config, pool.num_workers());

  // Each capture is one task whose windows are attacked in order inside it:
  // captures outnumber workers in every campaign-shaped sweep.
  pool.run_indexed(count, [&](std::size_t i, std::size_t w) {
    FullCapture& cap = replicas.scratch_for(w);
    RobustCaptureResult& res = out.captures[i];
    std::vector<HintRecord>& records = out.hints[i];
    auto route = [&] {
      if (res.segmentation.status == sca::SegmentationStatus::kFailed) return;
      records.reserve(res.guesses.size());
      for (const CoefficientGuess& g : res.guesses) {
        records.push_back(route_guess(g, policy));
        tallies[w].add(records.back());
      }
    };
    if constexpr (kDiag) {
      obs::SpanTracer& tracer = tracers[w];
      const auto span_index = static_cast<std::uint32_t>(i);
      {
        auto span = tracer.span(obs::Stage::kCapture, span_index);
        replicas.for_worker(w).capture_into(seeds[i], cap);
      }
      res = attack.attack_capture_robust_traced(cap.trace, config.n, config.segmentation,
                                                tracer, span_index);
      {
        auto span = tracer.span(obs::Stage::kHints, span_index);
        route();
      }
      trace_samples[i] = cap.trace.size();
    } else {
      replicas.for_worker(w).capture_into(seeds[i], cap);
      res = attack.attack_capture_robust(cap.trace, config.n, config.segmentation);
      route();
    }
    out.truth[i] = cap.noise;
  });

  HintTally merged;
  for (const HintTally& t : tallies) merged.merge(t);
  if constexpr (kDiag) {
    for (const obs::SpanTracer& t : tracers) diag->tracer.merge(t);
    const power::FaultStats faults = replicas.merged_fault_stats();
    obs::Registry& reg = diag->registry;
    reg.add(reg.counter("faults.captures"), faults.captures);
    reg.add(reg.counter("faults.dropped_samples"), faults.dropped_samples);
    reg.add(reg.counter("faults.glitch_samples"), faults.glitch_samples);
    reg.add(reg.counter("faults.burst_windows"), faults.burst_windows);
    reg.add(reg.counter("faults.drifted_captures"), faults.drifted_captures);
    reg.add(reg.counter("faults.clipped_samples"), faults.clipped_samples);
    reg.add(reg.counter("faults.misaligned_captures"), faults.misaligned_captures);
    reg.add(reg.counter("faults.warped_captures"), faults.warped_captures);
  }
  return merged;
}

}  // namespace

CampaignRunner::CampaignRunner(std::size_t num_workers) : pool_(num_workers) {}

std::vector<std::uint64_t> CampaignRunner::stream_seeds(std::uint64_t base_seed,
                                                        std::size_t count) {
  std::vector<std::uint64_t> seeds(count);
  for (std::size_t i = 0; i < count; ++i) seeds[i] = stream_seed(base_seed, i);
  return seeds;
}

std::vector<WindowRecord> CampaignRunner::collect_windows(const CampaignConfig& config,
                                                          std::size_t runs,
                                                          std::uint64_t seed_base,
                                                          std::size_t* rejected) {
  // Each slot holds one capture's windows (empty + !ok when the
  // segmentation missed the expected count); the windows of accepted
  // captures are appended in capture order afterwards, exactly like the
  // sequential loop in SamplerCampaign::collect_windows.
  struct Slot {
    std::vector<WindowRecord> windows;
    bool ok = false;
  };
  std::vector<Slot> slots(runs);
  CampaignReplicas replicas(config, pool_.num_workers());
  pool_.run_indexed(runs, [&](std::size_t r, std::size_t w) {
    FullCapture& cap = replicas.scratch_for(w);
    replicas.for_worker(w).capture_into(seed_base + r, cap);
    if (cap.segments.size() != config.n) return;
    windows_from_capture(cap, slots[r].windows);
    slots[r].ok = true;
  });

  std::vector<WindowRecord> out;
  out.reserve(runs * config.n);
  std::size_t skipped = 0;
  for (Slot& slot : slots) {
    if (!slot.ok) {
      ++skipped;
      continue;
    }
    for (WindowRecord& w : slot.windows) out.push_back(std::move(w));
  }
  if (rejected != nullptr) *rejected = skipped;
  return out;
}

RecoveryCampaignResult CampaignRunner::run_recovery_campaign(
    const RevealAttack& attack, const CampaignConfig& config,
    const std::vector<std::uint64_t>& seeds, const HintPolicy& policy,
    const lwe::DbddParams& params, CampaignDiagnostics* diag) {
  // Every hint takes an error coordinate of its own in the estimator
  // replay: captures x windows > error_dim, without the product overflowing.
  if (config.n != 0 && seeds.size() > params.error_dim / config.n)
    throw std::invalid_argument(
        "campaign: " + std::to_string(seeds.size()) + " captures x " +
        std::to_string(config.n) + " windows can route more hints than the " +
        std::to_string(params.error_dim) + " error coordinates of the estimator");
  if (config.firmware == Firmware::kShuffled)
    throw std::invalid_argument(
        "run_recovery_campaign: shuffled firmware hides the coefficient order "
        "(2n - 1 bursts, no positional hints)");

  RecoveryCampaignResult out;
  std::vector<std::size_t> trace_samples;  // filled by instrumented workers only
  const HintTally worker_tally =
      diag != nullptr ? capture_attack_route<true>(pool_, attack, config, seeds, policy, out,
                                                   trace_samples, diag)
                      : capture_attack_route<false>(pool_, attack, config, seeds, policy, out,
                                                    trace_samples, nullptr);

  // Everything below runs in capture order on this thread: the one order
  // that exists for every worker count. One pass recounts the report, the
  // hint tally and, with a sink, its counters, histogram and confusion.
  sca::RecoveryReport& rep = out.report;
  rep.expected_windows = seeds.size() * config.n;
  rep.segmentation_status = sca::SegmentationStatus::kOk;
  double consistency_sum = 0.0;
  HintTally recount;
  std::optional<SinkIds> ids;
  if (diag != nullptr) ids.emplace(SinkIds{diag->registry});
  for (std::size_t i = 0; i < out.captures.size(); ++i) {
    const RobustCaptureResult& res = out.captures[i];
    rep.recovered_windows += res.segmentation.segments.size();
    rep.segmentation_attempts += res.segmentation.attempts;
    rep.segmentation_status = std::max(rep.segmentation_status, res.segmentation.status);
    consistency_sum += res.segmentation.burst_consistency;
    for (const CoefficientGuess& g : res.guesses) {
      switch (g.quality) {
        case GuessQuality::kOk: ++rep.ok_guesses; break;
        case GuessQuality::kLowConfidence: ++rep.low_confidence_guesses; break;
        case GuessQuality::kAbstained: ++rep.abstained_guesses; break;
      }
    }
    for (const HintRecord& r : out.hints[i]) recount.add(r);
    if (ids)
      count_capture(*ids, diag->confusion, config, trace_samples[i], out.truth[i], res,
                    out.hints[i]);
  }
  if (recount.perfect != worker_tally.perfect ||
      recount.approximate != worker_tally.approximate ||
      recount.sign_only != worker_tally.sign_only || recount.skipped != worker_tally.skipped) {
    throw std::logic_error(
        "run_recovery_campaign: merged worker tallies diverge from the ordered recount "
        "(lost update in shared accumulation)");
  }
  // The variance sum is taken from the recount: the worker tallies add it
  // up in schedule order.
  out.hint_totals = recount.summary();
  if (!seeds.empty()) rep.burst_consistency = consistency_sum / static_cast<double>(seeds.size());
  rep.perfect_hints = out.hint_totals.perfect;
  rep.approximate_hints = out.hint_totals.approximate;
  rep.sign_only_hints = out.hint_totals.sign_only;
  rep.dropped_hints = out.hint_totals.skipped;
  if (ids) {
    // The counters that duplicate report fields take the report's totals.
    obs::Registry& reg = diag->registry;
    reg.add(ids->seg_attempts, rep.segmentation_attempts);
    reg.add(ids->guess_ok, rep.ok_guesses);
    reg.add(ids->guess_low, rep.low_confidence_guesses);
    reg.add(ids->guess_abstained, rep.abstained_guesses);
    reg.add(ids->hints_perfect, rep.perfect_hints);
    reg.add(ids->hints_approximate, rep.approximate_hints);
    reg.add(ids->hints_sign_only, rep.sign_only_hints);
    reg.add(ids->hints_skipped, rep.dropped_hints);
  }

  // Estimator integration replays the routed hints — its state update is
  // floating-point order-sensitive.
  auto integrate = [&] {
    lwe::DbddEstimator estimator(params);
    for (const auto& records : out.hints) {
      for (const HintRecord& r : records) apply_hint(estimator, r);
    }
    return estimator.estimate();
  };
  lwe::SecurityEstimate estimate;
  if (diag != nullptr) {
    auto span = diag->tracer.span(obs::Stage::kEstimation);
    estimate = integrate();
  } else {
    estimate = integrate();
  }
  rep.bikz = estimate.beta;
  rep.bits = estimate.bits;
  return out;
}

}  // namespace reveal::core
