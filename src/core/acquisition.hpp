#pragma once
// Measurement campaigns against the simulated target: run the victim
// firmware, capture power traces, segment them into per-coefficient
// windows, and (for profiling) attach the ground-truth sampled values —
// the adversary "can profile the target device" and "configure the device
// with all possible secrets" (paper §II-B, §III-D).

#include <cstdint>
#include <vector>

#include "core/victim.hpp"
#include "power/fault_injector.hpp"
#include "power/leakage_model.hpp"
#include "power/trace_recorder.hpp"
#include "sca/segmentation.hpp"
#include "sca/trace.hpp"

namespace reveal::core {

/// The victim firmware a campaign captures (core/victim.hpp).
enum class Firmware {
  kSampler,   ///< the SEAL v3.2 sampler (paper Fig. 2)
  kPatched,   ///< the v3.6-style branch-free sampler
  kShuffled,  ///< the shuffling countermeasure
  kMasked,    ///< the share-masked store
};

struct CampaignConfig {
  /// Sentinel for num_workers: resolve to hardware_concurrency at use.
  static constexpr std::size_t kAutoWorkers = static_cast<std::size_t>(-1);

  std::size_t n = 64;  ///< coefficients sampled per firmware run
  std::vector<std::uint64_t> moduli = {132120577ULL};
  Firmware firmware = Firmware::kSampler;
  power::LeakageParams leakage{};
  /// Acquisition faults injected into every captured trace (default: none —
  /// bit-identical to the clean pipeline). Fault randomness derives from
  /// (faults.seed, capture seed), so degraded campaigns stay reproducible.
  power::FaultSpec faults{};
  sca::SegmentationConfig segmentation{
      .smooth_window = 5,
      // Between the worst-case smoothed normal-code level (~8) and the
      // sustained multiplier-burst level (~12.7).
      .threshold = 10.0,
      .min_burst_length = 20,
  };
  /// Worker threads for capture fan-out: collect_windows' profiling
  /// captures, and the pool a caller sizes with resolved_num_workers for a
  /// recovery campaign. Template building runs on the calling thread.
  /// kAutoWorkers resolves to hardware_concurrency; 0 forces the
  /// single-threaded reference path. Any setting produces bit-identical
  /// results — per-trace RNG streams are derived from the capture seed
  /// alone, and all accumulations merge in index order (pinned by
  /// tests/test_campaign_equivalence.cpp).
  std::size_t num_workers = kAutoWorkers;
  /// Victim-simulator execution path used for every capture (DESIGN.md
  /// §6f). Both tiers capture bit-identical traces — kReference here means
  /// decode-per-step dispatch (the observer still binds statically); pinned
  /// by the golden-fixture and campaign-equivalence tests.
  VictimTier victim_tier = VictimTier::kBlock;
};

/// `config.num_workers` with the auto sentinel resolved.
[[nodiscard]] std::size_t resolved_num_workers(const CampaignConfig& config) noexcept;

/// One per-coefficient window cut out of a full trace.
struct WindowRecord {
  std::vector<double> samples;
  std::int32_t true_value = 0;  ///< ground truth (profiling only)
};

/// A complete capture of one encryption-noise sampling run.
/// For shuffled firmware, `segments`/`noise` are in *slot* (time) order —
/// noise[s] is the value sampled in window s — and `permutation` holds the
/// host-side ground truth slot -> coefficient map (empty otherwise).
struct FullCapture {
  std::vector<double> trace;
  std::vector<std::int64_t> noise;      ///< ground truth per window
  std::vector<sca::Segment> segments;   ///< one per coefficient if OK
  std::vector<std::uint32_t> permutation;
};

class SamplerCampaign {
 public:
  explicit SamplerCampaign(CampaignConfig config);

  [[nodiscard]] const CampaignConfig& config() const noexcept { return config_; }
  [[nodiscard]] const VictimProgram& program() const noexcept { return program_; }

  /// Runs the firmware once with the given PRNG seed and a fresh
  /// measurement-noise stream; segments the captured trace.
  [[nodiscard]] FullCapture capture(std::uint64_t seed);

  /// capture() into caller-provided storage: every FullCapture field is
  /// overwritten (bit-identical to capture()), reusing the vectors'
  /// capacity. Passing the same FullCapture across a campaign's captures
  /// makes acquisition allocation-free in steady state — the internal
  /// recorder is persistent and pre-reserved from the firmware's
  /// instruction budget.
  void capture_into(std::uint64_t seed, FullCapture& out);

  /// Collects labelled windows from `runs` captures (profiling phase).
  /// Captures whose segmentation does not yield exactly n windows are
  /// skipped (counted in `rejected` if non-null). With a resolved
  /// `config.num_workers > 0` the captures fan out over a CampaignRunner
  /// worker pool (capture r keeps seed `seed_base + r`, so the collected
  /// windows are bit-identical to the serial path in any configuration).
  [[nodiscard]] std::vector<WindowRecord> collect_windows(std::size_t runs,
                                                          std::uint64_t seed_base,
                                                          std::size_t* rejected = nullptr);

  /// Fault-injector activation counts accumulated over every capture this
  /// campaign ran (all zero when config().faults is empty). Each count is a
  /// pure function of (spec, capture seeds), so per-worker campaign
  /// replicas merged in worker order reproduce the sequential tally.
  [[nodiscard]] const power::FaultStats& fault_stats() const noexcept {
    return fault_stats_;
  }

 private:
  CampaignConfig config_;
  VictimProgram program_;
  power::LeakageModel model_;
  riscv::Machine machine_;
  power::TraceRecorder recorder_;       ///< persistent; rearmed per capture
  power::FaultInjector fault_injector_; ///< no-op when config_.faults is empty
  power::FaultStats fault_stats_;       ///< accumulated across captures
};

/// Refines segment boundaries: anchors each window at the burst's falling
/// edge in the *raw* trace (the multiplier's last cycle is the last sample
/// above threshold — a >8-sigma margin), so window prefixes align exactly
/// across coefficients and traces even though smoothing blurs the detected
/// edges by a few samples.
void anchor_windows_at_burst_edge(const std::vector<double>& trace,
                                  std::vector<sca::Segment>& segments, double threshold);

/// Cuts the (anchored) windows out of a capture.
[[nodiscard]] std::vector<WindowRecord> windows_from_capture(const FullCapture& capture);

/// windows_from_capture into caller-provided storage: `out` is resized to
/// the segment count and each record's sample buffer is overwritten in
/// place, so a profiling loop that passes the same vector every capture
/// stops allocating once the element buffers have grown to steady state.
/// Results are bit-identical to the returning overload.
void windows_from_capture(const FullCapture& capture, std::vector<WindowRecord>& out);

}  // namespace reveal::core
