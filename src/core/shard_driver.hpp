#pragma once
// Multi-process campaign sharding (DESIGN.md §8).
//
// The seed schedule {stream_seed(base_seed, i) : i < total} splits into
// `shards` contiguous index ranges. Each shard — a fork()ed child process,
// or an in-process pass when ShardOptions::in_process is set — runs
// accumulate_campaign_range over its range with its own CampaignRunner and
// serializes the resulting CampaignAccumulator to a partial file. Each call
// keeps its partials, named after the campaign digest, in a fresh
// `reveal_shards_XXXXXX` directory (mkdtemp) under `work_dir`, so calls
// running concurrently in one work_dir never touch each other's files. The
// parent loads the partials in fixed shard order, folds them with
// CampaignAccumulator::append, and finalizes.
//
// Byte-identity for every shard count falls out of the checkpoint
// determinism ledger (campaign_checkpoint.hpp): per-capture outputs are
// pure functions of (config, seed); the accumulator keeps order-sensitive
// float state per capture (hints verbatim, consistency per capture) so the
// shard-order concatenation reconstructs the exact capture-order sequences;
// integer counters are associative; histogram value sums travel as
// obs::ExactSum limbs. finalize_campaign then replays the one canonical
// capture-order reduction — so a 1-, 2- and 4-shard run of the same
// schedule produce byte-identical reports, hint sets, and diagnostics, and
// all match run_recovery_campaign_checkpointed over the same schedule.
//
// Sharded runs report no spans: a forked child could send its spans to the
// parent only by persisting them in its partial, and partials — like
// checkpoints — hold deterministic state only. The children's tracers are
// dropped and the sink's tracer is left untouched.
//
// Partial files carry the campaign digest plus their (shard, range) so a
// stale file from a different campaign or a mis-assembled work_dir fails
// loudly at merge time instead of corrupting the result.

#include <cstdint>
#include <string>
#include <utility>

#include "core/campaign_checkpoint.hpp"
#include "corpus/trace_store.hpp"

namespace reveal::core {

struct ShardOptions {
  std::size_t shards = 2;      ///< number of schedule partitions (>= 1)
  std::string work_dir;        ///< run directories are created here (must exist)
  /// Worker threads per shard runner (0 = the serial reference path).
  /// Does not change a single output byte — only shard wall-clock.
  std::size_t workers_per_shard = 0;
  /// Run the shards sequentially in this process instead of fork()ing.
  /// Outputs are byte-identical either way (each in-process shard still
  /// serializes and reloads its partial, exercising the same path); this
  /// mode exists for sanitizers that do not follow multi-process runs.
  bool in_process = false;
  /// Keep the call's `reveal_shards_*` directory and its per-shard files
  /// (removed when the call returns or throws otherwise).
  bool keep_partials = false;
};

/// Contiguous index range [first, second) of shard `shard` out of `shards`
/// over a `total`-capture schedule: ceil-split, earlier shards no smaller
/// than later ones, empty tail ranges allowed when shards > total.
[[nodiscard]] std::pair<std::uint64_t, std::uint64_t> shard_range(
    std::uint64_t total, std::size_t shards, std::size_t shard);

/// Runs the schedule across `options.shards` processes (or in-process
/// passes) and merges the partials in shard order. The attack must already
/// be trained; children inherit it by fork (or share it in-process) and
/// never mutate it. `diag` (optional) receives the counters and confusion;
/// its tracer stays untouched. The result's `captures` stay empty. Throws
/// std::runtime_error when a shard fails or a partial does not match the
/// expected (digest, shard, range), and std::invalid_argument, before any
/// shard runs, when total_captures x config.n exceeds params.error_dim.
[[nodiscard]] RecoveryCampaignResult run_sharded_campaign(
    const RevealAttack& attack, const CampaignConfig& config,
    std::uint64_t base_seed, std::size_t total_captures, const HintPolicy& policy,
    const lwe::DbddParams& params, const ShardOptions& options,
    CampaignDiagnostics* diag = nullptr);

/// Sharded corpus construction: each shard captures its schedule range into
/// its own corpus file (labels = global capture indices), and the parent
/// merges them in shard order into `dest_path`. Because CorpusWriter bytes
/// are a pure function of the appended sequence and `writer_options`, the
/// merged corpus is byte-identical for every shard count.
void build_sharded_corpus(const std::string& dest_path, const CampaignConfig& config,
                          std::uint64_t base_seed, std::size_t total_captures,
                          const ShardOptions& options,
                          const corpus::WriterOptions& writer_options = {});

}  // namespace reveal::core
