#pragma once
// Trace segmentation (paper §III-C, Fig. 3a).
//
// The distribution-function call of every coefficient contains a long
// high-activity burst (on the real target: soft-float arithmetic; on our
// victim: the 35-cycle sequential multiply of the scaling step). These
// bursts are "distinguishable and visible peaks" that delimit each
// coefficient's sampling window. Because the distribution call is
// time-variant, windows must be found per trace — no fixed stride works.

#include <cstddef>
#include <vector>

namespace reveal::sca {

struct SegmentationConfig {
  std::size_t smooth_window = 5;   ///< moving-average width before detection
  double threshold = 0.0;          ///< power level splitting burst/non-burst;
                                   ///< <= 0 selects automatic (midrange)
  std::size_t min_burst_length = 16;  ///< shortest run accepted as a burst
};

/// One per-coefficient window: [begin, end) sample indices of the region
/// between the end of this coefficient's distribution burst and the start
/// of the next one (i.e. the sign-assignment code the attack targets),
/// plus the burst's own extent.
struct Segment {
  std::size_t burst_begin = 0;
  std::size_t burst_end = 0;   ///< one past the last burst sample
  std::size_t window_begin = 0;
  std::size_t window_end = 0;
};

/// Locates all sampling windows in a single power trace. Returns segments
/// in trace order; the final window extends to the trace end.
[[nodiscard]] std::vector<Segment> segment_trace(const std::vector<double>& samples,
                                                 const SegmentationConfig& config = {});

/// Moving average smoothing (window >= 1; window 1 copies). Output i is the
/// oldest-first sum of samples max(0, i - window + 1) .. i, divided by the
/// number of samples summed. Each output is a pure function of its own
/// window, so its rounding error is O(window * eps) however long the trace
/// (a sliding add/subtract accumulator drifts O(length * eps) on traces of
/// millions of samples — see smooth_reference), and the summation order is
/// fixed, so every build produces the same bits.
[[nodiscard]] std::vector<double> smooth(const std::vector<double>& samples,
                                         std::size_t window);

/// The plain sliding-accumulator kernel, whose error grows with the trace
/// length. Kept as the drift anchor for the regression tests; new code
/// should call smooth().
[[nodiscard]] std::vector<double> smooth_reference(const std::vector<double>& samples,
                                                   std::size_t window);

/// Midpoint between the 20th and 95th percentile — the automatic threshold.
/// Degenerate (flat or near-constant) traces have no burst/floor separation
/// to threshold between; they return +infinity as a sentinel, which makes
/// segment_trace find no bursts instead of one bogus whole-trace burst.
[[nodiscard]] double auto_threshold(const std::vector<double>& samples);

// ---------------------------------------------------------------------------
// Robust segmentation: degraded captures (jitter, dropout, glitches,
// clipping, misalignment) make a single fixed-config pass either miss
// windows or invent spurious ones. segment_trace_robust validates the
// window count the caller expects and, on mismatch, retries across an
// adaptive sweep of {threshold, smooth_window, min_burst_length},
// scoring candidates by burst-length consistency (the distribution-call
// burst is a fixed-length multiply, so genuine bursts are near-identical
// in length while glitch-induced ones are not).

enum class SegmentationStatus {
  kOk,         ///< base config matched the expected window count
  kRecovered,  ///< a retry config matched the expected window count
  kDegraded,   ///< count matches but burst consistency is poor: windows suspect
  kFailed,     ///< no candidate reached the expected count (best effort returned)
};

struct SegmentationResult {
  SegmentationStatus status = SegmentationStatus::kFailed;
  std::vector<Segment> segments;      ///< best segmentation found
  std::vector<double> window_quality; ///< per-segment score in [0,1], aligned
  SegmentationConfig config;          ///< the config that produced `segments`
  std::size_t attempts = 0;           ///< distinct segmentations evaluated
  double burst_consistency = 0.0;     ///< 1 - cv(burst lengths), clamped to [0,1]
};

/// Burst consistency below which a segmentation that reached the expected
/// window count is reported kDegraded instead of kOk/kRecovered.
inline constexpr double kDegradedConsistency = 0.75;

/// Burst-length consistency of a segmentation: 1 - coefficient of variation
/// of the burst lengths, clamped to [0,1] (1 = identical bursts; 0 = wild).
[[nodiscard]] double burst_length_consistency(const std::vector<Segment>& segments);

/// Per-segment quality scores in [0,1]: penalizes bursts whose length
/// deviates from the median burst and windows much shorter than the median
/// window (both symptoms of glitch-split or merged segments).
[[nodiscard]] std::vector<double> score_windows(const std::vector<Segment>& segments);

/// Segments `samples` expecting exactly `expected_windows` windows. Tries
/// `base` first (bit-identical to segment_trace when it already yields the
/// expected count), then sweeps threshold/smooth/min-burst variations.
/// Never throws on bad data: a hopeless trace comes back as kFailed with
/// the closest candidate attached for diagnostics.
///
/// The sweep shares all per-candidate O(L) work: each distinct smoothing
/// window is smoothed once, each (smoothing, threshold) pair is scanned for
/// bursts once, and min-burst variants reuse those runs. Candidates that
/// normalize to an identical effective configuration are evaluated once
/// (`attempts` counts distinct evaluations). The selected segmentation,
/// config, status and scores are bit-identical to
/// segment_trace_robust_reference; only `attempts` may be lower.
[[nodiscard]] SegmentationResult segment_trace_robust(
    const std::vector<double>& samples, std::size_t expected_windows,
    const SegmentationConfig& base = {});

/// The pre-optimization sweep: re-smooths and re-segments the full trace for
/// every candidate, duplicates included (`attempts` counts every candidate).
/// Kept as the differential anchor for segment_trace_robust.
[[nodiscard]] SegmentationResult segment_trace_robust_reference(
    const std::vector<double>& samples, std::size_t expected_windows,
    const SegmentationConfig& base = {});

}  // namespace reveal::sca
