#pragma once
// The campaign fold, and checkpoint/resume on top of it (DESIGN.md §6c, §8).
//
// Every recovery campaign is one fold plus one tail:
// accumulate_campaign_range runs capture -> robust attack -> hint routing
// over an index range of a seed schedule and folds the outcomes into a
// CampaignAccumulator; finalize_campaign cross-checks the tallies, replays
// the estimator and assembles the report. The two drivers differ only in
// how they split the range: CampaignRunner::run_recovery_campaign folds it
// in one call, run_recovery_campaign_checkpointed batch by batch.
//
// run_recovery_campaign_checkpointed persists the accumulator after every
// batch with an atomic write-to-temp + rename. A killed campaign restarts
// from the last completed batch and finishes with a *byte-identical* final
// RecoveryReport, hint set, and diagnostics JSON — identical both to an
// uninterrupted checkpointed run and to the live campaign. A checkpoint
// resumes only the campaign that wrote it: its digest covers the schedule,
// the capture config, the trained attack, the hint policy and the
// estimator parameters.
//
// Why this works (the determinism ledger):
//   * Every per-capture output is a pure function of (config, seed); batch
//     boundaries only group work, they never reorder it.
//   * All floating-point accumulations that feed the report (hint-variance
//     recount, burst-consistency sum, estimator integration) replay in
//     capture order on the calling thread — the one order that exists for
//     every batch size and worker count.
//   * Integer counters (registry, confusion, tallies) are associative, and
//     histogram value sums accumulate through obs::ExactSum, whose
//     serialized normalized form makes save/load exact. Hence the final
//     diagnostics are batch-partition invariant too.
//   * Wall-clock spans are the one non-deterministic observation, so they
//     never enter the accumulator or a checkpoint: a checkpointed call
//     reports the spans of the batches it ran itself.
//
// The accumulator and its binary snapshot are exposed because the
// checkpoint file is that snapshot, and the binary-hardening suite fuzzes
// its loader directly.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/campaign_runner.hpp"

namespace reveal::core {

/// Running partial state of a campaign: everything needed to continue from
/// capture `next_index` and later finalize a report that is byte-identical
/// to an unbroken run.
struct CampaignAccumulator {
  std::uint64_t next_index = 0;  ///< captures [0, next_index) are folded in

  /// Routed hint records per capture, in capture order. Kept verbatim
  /// because estimator integration is floating-point order-sensitive: it
  /// replays the full sequence once, at finalize.
  std::vector<std::vector<HintRecord>> hints;

  /// Per-worker tallies merged in worker order — an integer cross-check
  /// against the finalize-time recount. Only the four counts are saved: the
  /// variance sum follows the worker schedule, and finalize takes it from
  /// the capture-order recount instead.
  HintTally worker_tally;

  // Report partials, accumulated in capture order. The burst-consistency
  // values stay per-capture (not pre-summed): finalize sums them in capture
  // order, so the one float reduction in the report is identical for every
  // batch size.
  std::uint64_t recovered_windows = 0;
  std::uint64_t segmentation_attempts = 0;
  sca::SegmentationStatus worst_status = sca::SegmentationStatus::kOk;
  std::vector<double> capture_consistency;  ///< one per capture, capture order
  std::uint64_t ok_guesses = 0;
  std::uint64_t low_confidence_guesses = 0;
  std::uint64_t abstained_guesses = 0;

  // Deterministic observability partials (no spans — see header comment).
  obs::Registry registry;
  sca::ConfusionMatrix confusion;

  /// Per-capture attack results and their ground truth, in capture order,
  /// collected only when keep_captures is set (the live driver returns
  /// them). Never saved: checkpoints do without them.
  bool keep_captures = false;
  std::vector<RobustCaptureResult> captures;
  std::vector<std::vector<std::int64_t>> truth;

  /// Folds one capture's report-feeding outcome (call in capture order).
  void fold_capture(const RobustCaptureResult& res);

  /// Bounds-checked binary snapshot (numeric/binary_io framing).
  void save(std::ostream& out) const;
  [[nodiscard]] static CampaignAccumulator load(std::istream& in);
};

/// The campaign fold: captures seeds[i] under `config` for i in
/// [begin, end), runs the robust attack (config.n windows,
/// config.segmentation) and hint routing on the pool's workers, and folds
/// every output into `acc` in capture order. With `spans` null it runs the
/// NullSpanTracer instantiation and no counter code at all; otherwise it
/// counts into acc.registry / acc.confusion and records the capture,
/// segmentation, classification and hints spans into *spans. Increments
/// acc.next_index by end - begin; throws std::invalid_argument when the
/// range is inverted or runs past the seeds, or when `config` runs
/// shuffled firmware: its trace holds 2n - 1 bursts, and positional hints
/// mean nothing for a victim that hides the coefficient order.
void accumulate_campaign_range(WorkerPool& pool, const RevealAttack& attack,
                               const CampaignConfig& config,
                               std::span<const std::uint64_t> seeds, std::uint64_t begin,
                               std::uint64_t end, const HintPolicy& policy,
                               CampaignAccumulator& acc, obs::SpanTracer* spans);

/// The campaign tail over a complete accumulator: recounts the stored hints
/// in capture order (cross-checking the merged worker tallies; throws
/// std::logic_error on a mismatch, the symptom of a lost update), replays
/// estimator integration in capture order — timed into `spans` when given —
/// and assembles the RecoveryReport. `diag` (optional) receives the
/// accumulated counters and confusion. `windows_per_capture` is config.n.
[[nodiscard]] RecoveryCampaignResult finalize_campaign(CampaignAccumulator&& acc,
                                                       std::size_t windows_per_capture,
                                                       const lwe::DbddParams& params,
                                                       CampaignDiagnostics* diag,
                                                       obs::SpanTracer* spans);

/// Throws std::invalid_argument when `captures` captures of
/// `windows_per_capture` windows each could route more hints than `params`
/// has error coordinates — finalize_campaign gives every hint a coordinate
/// of its own. Both campaign drivers call it before their first capture.
void require_hint_capacity(std::uint64_t captures, std::size_t windows_per_capture,
                           const lwe::DbddParams& params);

struct CheckpointOptions {
  std::string path;  ///< checkpoint file (written atomically via path + ".tmp")
  /// Captures per batch. The final outputs are batch-size invariant; the
  /// batch size only trades checkpoint granularity against save overhead.
  std::size_t batch_size = 64;
  /// Stop after this many batches in one call (0 = run to completion).
  /// The test suite uses this to simulate a kill at a batch boundary; an
  /// interrupted call returns complete == false with the checkpoint saved.
  std::size_t max_batches_per_call = 0;
  /// Keep the checkpoint file after successful completion.
  bool keep_checkpoint = false;
};

struct CheckpointedCampaignResult {
  bool complete = false;  ///< false when max_batches_per_call stopped the run
  bool resumed = false;   ///< true when an existing checkpoint was loaded
  std::uint64_t processed_this_call = 0;  ///< captures executed in this call
  std::uint64_t next_index = 0;           ///< schedule cursor after this call

  /// Valid only when complete; `captures` stays empty.
  RecoveryCampaignResult campaign;
  /// Counters and confusion of the whole schedule (when complete); spans of
  /// this call's batches, plus the estimation when it completed the run.
  CampaignDiagnostics diagnostics;
};

/// Batched, checkpointed counterpart of CampaignRunner::run_recovery_campaign
/// over the schedule {stream_seed(base_seed, i) : i < total_captures}.
/// Resumes from `options.path` when it exists (throws std::runtime_error if
/// that checkpoint belongs to a different campaign: see campaign_digest);
/// deletes the file after completion unless options.keep_checkpoint.
/// Throws std::invalid_argument, before any batch, when
/// total_captures x config.n exceeds params.error_dim.
[[nodiscard]] CheckpointedCampaignResult run_recovery_campaign_checkpointed(
    CampaignRunner& runner, const RevealAttack& attack, const CampaignConfig& config,
    std::uint64_t base_seed, std::size_t total_captures, const HintPolicy& policy,
    const lwe::DbddParams& params, const CheckpointOptions& options);

/// The campaign digest stored in checkpoint files. It mixes every input
/// that shapes an output byte: base_seed, total_captures, every config
/// field but num_workers, the trained attack (its AttackConfig, the sign
/// classifier, both POI lists and both template sets), the hint policy and
/// the estimator parameters. A stale file from a different campaign then
/// fails loudly instead of folding two campaigns into one report.
[[nodiscard]] std::uint64_t campaign_digest(std::uint64_t base_seed,
                                            std::uint64_t total_captures,
                                            const CampaignConfig& config,
                                            const RevealAttack& attack,
                                            const HintPolicy& policy,
                                            const lwe::DbddParams& params);

}  // namespace reveal::core
