#pragma once
// Parallel attack-campaign engine.
//
// A "campaign" is the unit of every Table I/III-style experiment: many
// seeded firmware captures, template building over the collected windows,
// per-window classification, and hint integration into the DBDD estimator.
// CampaignRunner drives the stages through one WorkerPool
// (core/parallel.hpp) while guaranteeing results that are *byte-identical*
// for every worker count:
//
//   * acquisition: capture i is a pure function of (config, seeds[i]) — the
//     firmware PRNG, measurement-noise, and fault streams all derive from
//     the capture seed. Each worker runs its own SamplerCampaign replica
//     (captures are history-independent), and results land in index slots.
//   * hints: workers *route* their captures' guesses into HintRecord lists
//     (a pure function); the estimator integration — whose floating-point
//     state is order-sensitive — replays those records in capture order on
//     the calling thread. Counters accumulate in per-worker HintTally
//     partials merged in worker-index order, then are cross-checked against
//     an ordered recount: a data race that loses an update is detected, not
//     silently reported.
//
// run_recovery_campaign is the campaign fold (accumulate_campaign_range)
// over the whole seed list plus finalize_campaign — the same two steps the
// checkpointed driver runs batch by batch (campaign_checkpoint.hpp). With
// num_workers == 0 the pool spawns no threads;
// tests/test_campaign_equivalence.cpp pins workers ∈ {0, 1, 4} to
// byte-identical RecoveryReports and hint sets.

#include <cstdint>
#include <vector>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/hints.hpp"
#include "core/parallel.hpp"
#include "lwe/dbdd.hpp"
#include "obs/diagnostics.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"
#include "sca/report.hpp"

namespace reveal::core {

/// Everything a recovery campaign produced, in deterministic order.
struct RecoveryCampaignResult {
  /// One per capture, in capture order (the live driver keeps them; the
  /// checkpointed driver does not).
  std::vector<RobustCaptureResult> captures;
  /// Ground truth of each capture — the sampled coefficients, one per
  /// window — in capture order, kept alongside `captures`.
  std::vector<std::vector<std::int64_t>> truth;
  std::vector<std::vector<HintRecord>> hints;  ///< per capture, in window order
  HintSummary hint_totals;                     ///< over all captures
  sca::RecoveryReport report;  ///< aggregate stage counters + residual estimate
};

/// Observability sink of the campaign drivers. Passing one enables the
/// instrumented pipeline instantiation: per-stage spans land in `tracer`,
/// retry/abstention/downgrade/fault counters in `registry`, and — when the
/// ground-truth noise is available — per-class confusion tallies in
/// `confusion` (the same (truth, predicted-value) tally bench_table1_
/// confusion prints) plus the `classify.sign_correct` and
/// `hints.wrong_perfect` counters over the same aligned windows.
/// Everything here is *derived* from the campaign's outputs: the
/// RecoveryCampaignResult is byte-identical with or without a sink,
/// enforced by tests/test_campaign_equivalence.cpp. Counters,
/// histogram buckets and confusion counts are integers accumulated per
/// worker and merged in worker-index order, so they are worker-count
/// invariant; span timings are wall-clock observations and are not.
struct CampaignDiagnostics {
  obs::Registry registry;
  obs::SpanTracer tracer;
  sca::ConfusionMatrix confusion;

  [[nodiscard]] obs::DiagnosticsReport report() const {
    return obs::make_report(registry, &tracer, &confusion);
  }
};

class CampaignRunner {
 public:
  /// `num_workers == 0` is the single-threaded reference path; the default
  /// uses every hardware thread.
  explicit CampaignRunner(std::size_t num_workers = default_num_workers());

  [[nodiscard]] WorkerPool& pool() noexcept { return pool_; }

  /// Counter-split per-capture seeds: {stream_seed(base_seed, 0..count)}.
  [[nodiscard]] static std::vector<std::uint64_t> stream_seeds(std::uint64_t base_seed,
                                                               std::size_t count);

  // --- profiling acquisition ---------------------------------------------

  /// Parallel counterpart of SamplerCampaign::collect_windows: capture r
  /// uses seed `seed_base + r` (the legacy profiling schedule), captures
  /// fan out over the pool, and windows are appended in capture order.
  [[nodiscard]] std::vector<WindowRecord> collect_windows(const CampaignConfig& config,
                                                          std::size_t runs,
                                                          std::uint64_t seed_base,
                                                          std::size_t* rejected = nullptr);

  // --- full campaign ------------------------------------------------------

  /// Runs the complete degradation-aware campaign over `seeds`: capture ->
  /// robust segmentation -> classification -> hint routing per capture on
  /// the workers, then ordered hint integration and the security estimate
  /// on the calling thread — accumulate_campaign_range over [0, N) plus
  /// finalize_campaign. Throws std::invalid_argument, before any capture,
  /// when seeds.size() x config.n exceeds params.error_dim
  /// (require_hint_capacity), and std::logic_error if the merged per-worker
  /// tallies disagree with the ordered recount (a lost-update symptom).
  ///
  /// `diag` (optional) collects observability data — spans, counters,
  /// confusion — without changing a single output byte; when null, the
  /// pipeline runs the NullSpanTracer instantiation and no instrumentation
  /// code executes at all.
  [[nodiscard]] RecoveryCampaignResult run_recovery_campaign(
      const RevealAttack& attack, const CampaignConfig& config,
      const std::vector<std::uint64_t>& seeds, const HintPolicy& policy,
      const lwe::DbddParams& params, CampaignDiagnostics* diag = nullptr);

 private:
  WorkerPool pool_;
};

}  // namespace reveal::core
