#pragma once
// The campaign fold, and checkpoint/resume on top of it (DESIGN.md §6c, §8).
//
// Every recovery campaign is one fold plus one tail:
// accumulate_campaign_range runs capture -> robust attack -> hint routing
// over an index range of a TraceSource (live captures or corpus traces)
// and folds the outcomes into a CampaignAccumulator; finalize_campaign
// cross-checks the tallies, replays the estimator and assembles the report.
// The four drivers differ only in how they split the range: the live
// CampaignRunner::run_recovery_campaign and run_recovery_campaign_on_corpus
// fold it in one call, run_recovery_campaign_checkpointed batch by batch,
// run_sharded_campaign (shard_driver.hpp) one partition per process.
//
// run_recovery_campaign_checkpointed persists the accumulator after every
// batch with an atomic write-to-temp + rename. A killed campaign restarts
// from the last completed batch and finishes with a *byte-identical* final
// RecoveryReport, hint set, and diagnostics JSON — identical both to an
// uninterrupted checkpointed run and to the live campaign.
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
// multi-process shard driver serializes the same state per shard and folds
// the partials in shard order.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "core/campaign_runner.hpp"
#include "corpus/trace_store.hpp"

namespace reveal::core {

/// The traces a campaign attacks, by schedule index: live captures of
/// seeds[i] under `config`, or — when `corpus` is set — its stored trace i
/// (no ground truth, so no confusion or accuracy counters). `config.n` and
/// `config.segmentation` are the expected window count and the robust
/// segmentation settings either way. Shuffled firmware is not a campaign
/// target: its trace holds 2n - 1 bursts, and positional hints mean nothing
/// for a victim that hides the coefficient order.
struct TraceSource {
  CampaignConfig config;
  std::span<const std::uint64_t> seeds;
  const corpus::CorpusReader* corpus = nullptr;
};

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
  // batch size *and* every shard partition of the schedule.
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

  /// Per-capture attack results — and, for live captures, their ground
  /// truth — in capture order, collected only when keep_captures is set
  /// (the in-memory drivers return them). Never saved or appended:
  /// checkpoints and shard partials do without them.
  bool keep_captures = false;
  std::vector<RobustCaptureResult> captures;
  std::vector<std::vector<std::int64_t>> truth;

  /// Folds one capture's report-feeding outcome (call in capture order).
  void fold_capture(const RobustCaptureResult& res);

  /// Concatenates another accumulator covering the captures immediately
  /// after this one (fixed shard-order merge): hints and consistency values
  /// append, integer partials add, statuses max, observability merges.
  void append(CampaignAccumulator&& next);

  /// Bounds-checked binary snapshot (numeric/binary_io framing).
  void save(std::ostream& out) const;
  [[nodiscard]] static CampaignAccumulator load(std::istream& in);
};

/// The campaign fold: runs capture -> robust attack -> hint routing for
/// source indices [begin, end) on the pool's workers and folds every output
/// into `acc` in capture order. With `spans` null it runs the
/// NullSpanTracer instantiation and no counter code at all; otherwise it
/// counts into acc.registry / acc.confusion and records the capture,
/// segmentation, classification and hints spans into *spans. Increments
/// acc.next_index by end - begin; throws std::invalid_argument when the
/// range is inverted or runs past the source, or when the source runs
/// shuffled firmware.
void accumulate_campaign_range(WorkerPool& pool, const RevealAttack& attack,
                               const TraceSource& source, std::uint64_t begin,
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
/// of its own. The four campaign drivers call it before their first capture.
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
/// that checkpoint belongs to a different schedule); deletes the file after
/// completion unless options.keep_checkpoint. Throws std::invalid_argument,
/// before any batch, when total_captures x config.n exceeds params.error_dim.
[[nodiscard]] CheckpointedCampaignResult run_recovery_campaign_checkpointed(
    CampaignRunner& runner, const RevealAttack& attack, const CampaignConfig& config,
    std::uint64_t base_seed, std::size_t total_captures, const HintPolicy& policy,
    const lwe::DbddParams& params, const CheckpointOptions& options);

/// The schedule digest stored in checkpoint files: mixes base_seed,
/// total_captures and every config field that shapes an output (all but
/// num_workers) so a stale file from a different campaign fails loudly
/// instead of corrupting a resume.
[[nodiscard]] std::uint64_t campaign_digest(std::uint64_t base_seed,
                                            std::uint64_t total_captures,
                                            const CampaignConfig& config);

}  // namespace reveal::core
