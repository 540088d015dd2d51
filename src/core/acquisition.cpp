#include "core/acquisition.hpp"

#include <stdexcept>

#include "core/campaign_runner.hpp"
#include "core/parallel.hpp"

namespace reveal::core {

namespace {

VictimProgram build_campaign_firmware(const CampaignConfig& config) {
  switch (config.firmware) {
    case Firmware::kPatched:
      return build_patched_firmware(config.n, config.moduli);
    case Firmware::kShuffled:
      return build_shuffled_firmware(config.n, config.moduli);
    case Firmware::kMasked:
      return build_masked_firmware(config.n, config.moduli);
    case Firmware::kSampler:
      break;
  }
  return build_sampler_firmware(config.n, config.moduli);
}

}  // namespace

std::size_t resolved_num_workers(const CampaignConfig& config) noexcept {
  return config.num_workers == CampaignConfig::kAutoWorkers ? default_num_workers()
                                                            : config.num_workers;
}

SamplerCampaign::SamplerCampaign(CampaignConfig config)
    : config_(std::move(config)),
      program_(build_campaign_firmware(config_)),
      model_(config_.leakage),
      machine_(program_.memory_bytes),
      recorder_(model_, /*noise_seed=*/0),  // begin_capture() reseeds per capture
      fault_injector_(config_.faults) {
  // The firmware's instruction budget bounds the retired-instruction count
  // and most instructions contribute a handful of samples, so reserving one
  // budget's worth of samples up front makes even the very first capture
  // append mostly without reallocating; later captures reuse the high-water
  // capacity.
  recorder_.reserve(detail::victim_instruction_limit(program_));
  configure_victim_tier(machine_, config_.victim_tier);
}

FullCapture SamplerCampaign::capture(std::uint64_t seed) {
  FullCapture cap;
  capture_into(seed, cap);
  return cap;
}

void SamplerCampaign::capture_into(std::uint64_t seed, FullCapture& out) {
  // Derive the firmware PRNG seed and the measurement-noise seed from the
  // campaign seed; both change per capture, like fresh encryptions observed
  // through a new acquisition.
  num::Xoshiro256StarStar derive(seed);
  auto prng_seed = static_cast<std::uint32_t>(derive() | 1u);  // nonzero
  const std::uint64_t noise_seed = derive();

  recorder_.begin_capture(noise_seed);
  const VictimRun run = run_victim_with(program_, machine_, prng_seed, recorder_);

  // Copy (not move) out of the persistent recorder so both buffers keep
  // their capacity for the next capture.
  out.trace.assign(recorder_.samples().begin(), recorder_.samples().end());
  if (config_.faults.any()) {
    out.trace = fault_injector_.apply(std::move(out.trace), seed, &fault_stats_);
  }
  out.noise = run.noise;
  out.segments = sca::segment_trace(out.trace, config_.segmentation);
  const double threshold = config_.segmentation.threshold > 0.0
                               ? config_.segmentation.threshold
                               : sca::auto_threshold(out.trace);
  anchor_windows_at_burst_edge(out.trace, out.segments, threshold);

  out.permutation.clear();
  if (program_.shuffled) {
    // The Fisher-Yates divisions create n-1 extra bursts before the
    // sampling loop: the sampling windows are the last n segments. Reorder
    // the ground truth into slot (time) order.
    out.permutation = read_permutation(program_, machine_);
    if (out.segments.size() == 2 * config_.n - 1) {
      out.segments.erase(out.segments.begin(),
                         out.segments.end() - static_cast<std::ptrdiff_t>(config_.n));
    } else {
      out.segments.clear();  // unexpected burst count: reject the capture
    }
    std::vector<std::int64_t> slot_noise(config_.n, 0);
    for (std::size_t slot = 0; slot < config_.n; ++slot) {
      slot_noise[slot] = run.noise[out.permutation[slot]];
    }
    out.noise = std::move(slot_noise);
  }
}

std::vector<WindowRecord> SamplerCampaign::collect_windows(std::size_t runs,
                                                           std::uint64_t seed_base,
                                                           std::size_t* rejected) {
  if (resolved_num_workers(config_) > 0) {
    CampaignRunner runner(resolved_num_workers(config_));
    return runner.collect_windows(config_, runs, seed_base, rejected);
  }
  std::vector<WindowRecord> out;
  out.reserve(runs * config_.n);
  std::size_t skipped = 0;
  FullCapture cap;
  std::vector<WindowRecord> windows;
  for (std::size_t r = 0; r < runs; ++r) {
    capture_into(seed_base + r, cap);
    if (cap.segments.size() != config_.n) {
      ++skipped;
      continue;
    }
    windows_from_capture(cap, windows);
    for (auto& w : windows) out.push_back(std::move(w));
  }
  if (rejected != nullptr) *rejected = skipped;
  return out;
}

void anchor_windows_at_burst_edge(const std::vector<double>& trace,
                                  std::vector<sca::Segment>& segments, double threshold) {
  for (auto& seg : segments) {
    // Smoothing delays the detected falling edge by up to the smoothing
    // window; scan a slightly extended raw range for the true last sample
    // above threshold (the multiplier's final cycle).
    const std::size_t lo = seg.burst_begin;
    const std::size_t hi = std::min(seg.burst_end + 6, trace.size());
    if (lo >= hi) continue;
    std::size_t last_above = lo;
    for (std::size_t i = lo; i < hi; ++i) {
      if (trace[i] > threshold) last_above = i;
    }
    seg.window_begin = last_above + 1;
    if (seg.window_begin > seg.window_end) seg.window_end = seg.window_begin;
  }
}

std::vector<WindowRecord> windows_from_capture(const FullCapture& capture) {
  std::vector<WindowRecord> out;
  windows_from_capture(capture, out);
  return out;
}

void windows_from_capture(const FullCapture& capture, std::vector<WindowRecord>& out) {
  if (capture.segments.size() != capture.noise.size())
    throw std::invalid_argument(
        "windows_from_capture: segment count does not match coefficient count");
  out.resize(capture.segments.size());
  for (std::size_t i = 0; i < capture.segments.size(); ++i) {
    const auto& seg = capture.segments[i];
    out[i].samples.assign(
        capture.trace.begin() + static_cast<std::ptrdiff_t>(seg.window_begin),
        capture.trace.begin() + static_cast<std::ptrdiff_t>(seg.window_end));
    out[i].true_value = static_cast<std::int32_t>(capture.noise[i]);
  }
}

}  // namespace reveal::core
