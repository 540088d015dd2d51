#include "core/campaign_runner.hpp"

#include <utility>

#include "core/campaign_checkpoint.hpp"
#include "core/campaign_obs.hpp"

namespace reveal::core {

using detail::CampaignReplicas;

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
  require_hint_capacity(seeds.size(), config.n, params);
  obs::SpanTracer* spans = diag != nullptr ? &diag->tracer : nullptr;
  CampaignAccumulator acc;
  acc.keep_captures = true;
  accumulate_campaign_range(pool_, attack, config, seeds, 0, seeds.size(), policy, acc, spans);
  return finalize_campaign(std::move(acc), config.n, params, diag, spans);
}

}  // namespace reveal::core
