#include "core/corpus_campaign.hpp"

#include <algorithm>
#include <utility>

#include "core/campaign_checkpoint.hpp"

namespace reveal::core {

void append_campaign_captures(corpus::CorpusWriter& writer, CampaignRunner& runner,
                              const CampaignConfig& config,
                              std::span<const std::uint64_t> seeds,
                              std::uint64_t index_base) {
  // One batch of captures in flight at a time: capture_many materializes
  // its batch, the append drains it in seed order, and the next batch
  // reuses the freed memory.
  constexpr std::size_t kBatch = 256;
  std::vector<std::uint64_t> batch;
  for (std::size_t begin = 0; begin < seeds.size(); begin += kBatch) {
    const std::size_t count = std::min(kBatch, seeds.size() - begin);
    batch.assign(seeds.begin() + static_cast<std::ptrdiff_t>(begin),
                 seeds.begin() + static_cast<std::ptrdiff_t>(begin + count));
    const std::vector<FullCapture> captures = runner.capture_many(config, batch);
    for (std::size_t i = 0; i < captures.size(); ++i) {
      writer.add(static_cast<std::int32_t>(index_base + begin + i),
                 std::span<const double>(captures[i].trace));
    }
  }
}

RecoveryCampaignResult run_recovery_campaign_on_corpus(
    CampaignRunner& runner, const RevealAttack& attack,
    const corpus::CorpusReader& corpus, std::size_t expected_windows,
    const sca::SegmentationConfig& seg_config, const HintPolicy& policy,
    const lwe::DbddParams& params) {
  require_hint_capacity(corpus.size(), expected_windows, params);
  TraceSource source;
  source.config.n = expected_windows;
  source.config.segmentation = seg_config;
  source.corpus = &corpus;
  CampaignAccumulator acc;
  acc.keep_captures = true;
  accumulate_campaign_range(runner.pool(), attack, source, 0, corpus.size(), policy, acc,
                            nullptr);
  return finalize_campaign(std::move(acc), expected_windows, params, nullptr, nullptr);
}

}  // namespace reveal::core
