#pragma once
// Bridges the mmap trace corpus (corpus/trace_store.hpp) into the campaign
// engine: capture campaigns append their traces to a corpus, and recovery
// campaigns replay straight off a corpus instead of re-running acquisition.
//
// Determinism: a capture's trace is a pure function of (config, seed), the
// appended labels are the global capture indices, and CorpusWriter's bytes
// are a pure function of the appended sequence — so two corpora built over
// the same schedule are byte-identical files, regardless of worker count or
// batching (the shard driver leans on this for its merge contract).

#include <cstdint>
#include <span>
#include <vector>

#include "core/campaign_runner.hpp"
#include "corpus/trace_store.hpp"

namespace reveal::core {

/// Captures `seeds` (in parallel over the runner's pool) and appends each
/// capture's trace in seed order, labelled with its global capture index
/// `index_base + i`. Batched internally, so an arbitrarily long schedule
/// needs memory for one batch of captures, not the whole campaign.
void append_campaign_captures(corpus::CorpusWriter& writer, CampaignRunner& runner,
                              const CampaignConfig& config,
                              std::span<const std::uint64_t> seeds,
                              std::uint64_t index_base = 0);

/// The recovery campaign over stored traces: the campaign fold over every
/// corpus trace (robust segmentation -> classification -> hint routing on
/// the workers, each zero-copy view copied only into a per-worker scratch
/// buffer) plus finalize_campaign — the live campaign's two steps with
/// acquisition replaced by the corpus. Byte-identical for every worker
/// count; the `captures` field of the result is index-aligned with the
/// corpus. Throws std::invalid_argument, before any trace is read, when
/// corpus.size() x expected_windows exceeds params.error_dim.
[[nodiscard]] RecoveryCampaignResult run_recovery_campaign_on_corpus(
    CampaignRunner& runner, const RevealAttack& attack,
    const corpus::CorpusReader& corpus, std::size_t expected_windows,
    const sca::SegmentationConfig& seg_config, const HintPolicy& policy,
    const lwe::DbddParams& params);

}  // namespace reveal::core
