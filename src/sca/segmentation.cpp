#include "sca/segmentation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace reveal::sca {

namespace {

/// Maximal runs of smoothed samples strictly above `threshold`, with no
/// minimum-length filter. Shared by segment_trace and the sweep kernel so a
/// single O(L) scan per (smoothing, threshold) pair serves every
/// min_burst_length candidate.
struct Run {
  std::size_t begin, end;
};

std::vector<Run> runs_above(const std::vector<double>& s, double threshold) {
  std::vector<Run> runs;
  const std::size_t n = s.size();
  std::size_t i = 0;
  while (true) {
    // `!(x > t)` rather than `x <= t`: NaN samples count as below.
    while (i < n && !(s[i] > threshold)) ++i;
    if (i == n) return runs;
    const std::size_t begin = i;
    while (i < n && s[i] > threshold) ++i;
    runs.push_back({begin, i});
  }
}

/// Keeps runs of at least `min_burst_length` samples and turns them into
/// segments (window = gap to the next burst; the final window extends to the
/// trace end). Filtering here is equivalent to filtering during the scan.
std::vector<Segment> segments_from_runs(const std::vector<Run>& runs,
                                        std::size_t min_burst_length,
                                        std::size_t trace_size) {
  std::vector<Segment> segments;
  segments.reserve(runs.size());
  for (const Run& r : runs) {
    if (r.end - r.begin < min_burst_length) continue;
    if (!segments.empty()) segments.back().window_end = r.begin;
    Segment seg;
    seg.burst_begin = r.begin;
    seg.burst_end = r.end;
    seg.window_begin = r.end;
    seg.window_end = trace_size;  // provisional; fixed up by the next burst
    segments.push_back(seg);
  }
  return segments;
}

}  // namespace

std::vector<double> smooth(const std::vector<double>& samples, std::size_t window) {
  if (window == 0) throw std::invalid_argument("smooth: window must be >= 1");
  if (window == 1) return samples;
  const std::size_t n = samples.size();
  const double* x = samples.data();
  std::vector<double> out(n);
  // Every output is the oldest-first sum of its own window divided by the
  // number of samples summed: no state carries from one output to the next,
  // so there is no drift to compensate. Four outputs at a time keep four
  // independent add chains in flight; each chain's order is fixed, so
  // vectorizing them cannot change a bit.
  const auto window_mean = [x](std::size_t begin, std::size_t end) {
    double acc = x[begin];
    for (std::size_t j = begin + 1; j < end; ++j) acc += x[j];
    return acc / static_cast<double>(end - begin);
  };
  std::size_t i = 0;
  for (; i < n && i + 1 < window; ++i) out[i] = window_mean(0, i + 1);
  const double w = static_cast<double>(window);
  for (; i + 4 <= n; i += 4) {
    const double* p = x + (i + 1 - window);
    double s0 = p[0], s1 = p[1], s2 = p[2], s3 = p[3];
    for (std::size_t k = 1; k < window; ++k) {
      s0 += p[k];
      s1 += p[k + 1];
      s2 += p[k + 2];
      s3 += p[k + 3];
    }
    out[i] = s0 / w;
    out[i + 1] = s1 / w;
    out[i + 2] = s2 / w;
    out[i + 3] = s3 / w;
  }
  for (; i < n; ++i) out[i] = window_mean(i + 1 - window, i + 1);
  return out;
}

std::vector<double> smooth_reference(const std::vector<double>& samples,
                                     std::size_t window) {
  if (window == 0) throw std::invalid_argument("smooth: window must be >= 1");
  if (window == 1) return samples;
  std::vector<double> out(samples.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < samples.size(); ++i) {
    acc += samples[i];
    if (i >= window) acc -= samples[i - window];
    out[i] = acc / static_cast<double>(std::min(i + 1, window));
  }
  return out;
}

double auto_threshold(const std::vector<double>& samples) {
  if (samples.empty()) throw std::invalid_argument("auto_threshold: empty trace");
  // The two order statistics by selection: after the first nth_element
  // every element before `hi_at` is <= it, so the second selects within
  // that prefix. The values equal those of a full sort.
  std::vector<double> v = samples;
  const auto lo_at = v.begin() + static_cast<std::ptrdiff_t>(v.size() * 20 / 100);
  const auto hi_at =
      v.begin() + static_cast<std::ptrdiff_t>(std::min(v.size() - 1, v.size() * 95 / 100));
  std::nth_element(v.begin(), hi_at, v.end());
  std::nth_element(v.begin(), lo_at, hi_at);
  const double lo = *lo_at;
  const double hi = *hi_at;
  // Flat / near-constant trace: the percentile midpoint would sit inside
  // the numerical-noise band and turn the whole trace into one bogus
  // burst. Signal "no separable burst level" instead.
  if (hi - lo < 1e-9 * std::max(1.0, std::abs(hi)))
    return std::numeric_limits<double>::infinity();
  return 0.5 * (lo + hi);
}

std::vector<Segment> segment_trace(const std::vector<double>& samples,
                                   const SegmentationConfig& config) {
  if (samples.empty()) return {};
  const std::vector<double> s = smooth(samples, config.smooth_window);
  const double threshold = config.threshold > 0.0 ? config.threshold : auto_threshold(s);
  return segments_from_runs(runs_above(s, threshold), config.min_burst_length,
                            samples.size());
}

double burst_length_consistency(const std::vector<Segment>& segments) {
  if (segments.size() < 2) return segments.empty() ? 0.0 : 1.0;
  double mean = 0.0;
  for (const Segment& s : segments)
    mean += static_cast<double>(s.burst_end - s.burst_begin);
  mean /= static_cast<double>(segments.size());
  if (mean <= 0.0) return 0.0;
  double var = 0.0;
  for (const Segment& s : segments) {
    const double d = static_cast<double>(s.burst_end - s.burst_begin) - mean;
    var += d * d;
  }
  var /= static_cast<double>(segments.size());
  return std::clamp(1.0 - std::sqrt(var) / mean, 0.0, 1.0);
}

namespace {

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  return v[mid];
}

}  // namespace

std::vector<double> score_windows(const std::vector<Segment>& segments) {
  std::vector<double> quality(segments.size(), 1.0);
  if (segments.empty()) return quality;
  std::vector<double> burst_lens, window_lens;
  burst_lens.reserve(segments.size());
  window_lens.reserve(segments.size());
  for (const Segment& s : segments) {
    burst_lens.push_back(static_cast<double>(s.burst_end - s.burst_begin));
    window_lens.push_back(static_cast<double>(s.window_end - s.window_begin));
  }
  const double burst_med = std::max(1.0, median_of(burst_lens));
  const double window_med = std::max(1.0, median_of(window_lens));
  for (std::size_t i = 0; i < segments.size(); ++i) {
    // Genuine distribution-call bursts share the multiplier's length;
    // glitch-split or merged segments deviate strongly from the median.
    const double q_burst = std::exp(-std::abs(burst_lens[i] - burst_med) / burst_med);
    // Windows vary legitimately (time-variant rejection loop), so only
    // windows much shorter than typical are suspect.
    const double q_window = std::clamp(window_lens[i] / (0.5 * window_med), 0.0, 1.0);
    quality[i] = std::min(q_burst, q_window);
  }
  return quality;
}

namespace {

/// The sweep grid shared by the fast and reference robust paths. Threshold
/// scaling reconnects bursts split by dropout (lower) or suppresses glitch
/// bursts (higher); wider smoothing bridges jitter-torn bursts; shorter
/// min-burst recovers time-warped (compressed) bursts.
struct SweepGrid {
  double threshold_scales[5];
  std::size_t smooth_windows[4];
  std::size_t min_bursts[3];
};

SweepGrid sweep_grid(const SegmentationConfig& base) {
  return SweepGrid{
      {1.0, 0.85, 1.15, 0.7, 1.3},
      {base.smooth_window, base.smooth_window + 2,
       base.smooth_window > 2 ? base.smooth_window - 2 : 1,
       2 * base.smooth_window + 1},
      {base.min_burst_length, std::max<std::size_t>(4, 3 * base.min_burst_length / 4),
       std::max<std::size_t>(4, base.min_burst_length / 2)}};
}

/// Shared candidate-selection state: keeps whichever segmentation is closest
/// to the expected count (ties broken by burst-length consistency), exactly
/// the predicate of the original sweep.
struct BestCandidate {
  std::vector<Segment> segments;
  SegmentationConfig config;
  bool match = false;
  std::size_t err = 0;
  double consistency = 0.0;

  static std::size_t count_err(const std::vector<Segment>& segs,
                               std::size_t expected_windows) {
    return segs.size() > expected_windows ? segs.size() - expected_windows
                                          : expected_windows - segs.size();
  }

  void consider(std::vector<Segment>&& candidate, const SegmentationConfig& cfg,
                std::size_t expected_windows) {
    const std::size_t e = count_err(candidate, expected_windows);
    const double c = burst_length_consistency(candidate);
    const bool m = e == 0;
    const bool better =
        m != match ? m : (e != err ? e < err : c > consistency);
    if (better) {
      segments = std::move(candidate);
      config = cfg;
      match = m;
      err = e;
      consistency = c;
    }
  }
};

SegmentationResult finish_robust(SegmentationResult& result, std::vector<Segment> segments,
                                 const SegmentationConfig& cfg, SegmentationStatus status,
                                 double degraded_consistency) {
  result.segments = std::move(segments);
  result.config = cfg;
  result.burst_consistency = burst_length_consistency(result.segments);
  if (status != SegmentationStatus::kFailed &&
      result.burst_consistency < degraded_consistency)
    status = SegmentationStatus::kDegraded;
  result.status = status;
  result.window_quality = score_windows(result.segments);
  return result;
}

}  // namespace

SegmentationResult segment_trace_robust(const std::vector<double>& samples,
                                        std::size_t expected_windows,
                                        const SegmentationConfig& base,
                                        double degraded_consistency) {
  SegmentationResult result;
  if (samples.empty() || expected_windows == 0) return result;

  // Pass 1: the caller's config, untouched — when the capture is clean this
  // reproduces segment_trace bit-for-bit. The smoothed trace is kept: the
  // sweep moves it into its cache for every candidate that shares the base
  // window.
  std::vector<double> base_smoothed = smooth(samples, base.smooth_window);
  const double pass1_threshold =
      base.threshold > 0.0 ? base.threshold : auto_threshold(base_smoothed);
  std::vector<Segment> first = segments_from_runs(
      runs_above(base_smoothed, pass1_threshold), base.min_burst_length, samples.size());
  ++result.attempts;
  if (first.size() == expected_windows)
    return finish_robust(result, std::move(first), base, SegmentationStatus::kOk,
                         degraded_consistency);

  // Pass 2: adaptive sweep over {smooth_window, threshold_scale,
  // min_burst_length}. All the per-candidate O(L) work is shared:
  //   * each distinct smooth_window is smoothed exactly once;
  //   * each distinct (smoothing, threshold) pair is scanned for
  //     above-threshold runs exactly once;
  //   * min_burst_length candidates reuse those runs through an O(#runs)
  //     filter instead of re-segmenting the trace.
  // Candidates that normalize to an identical effective configuration
  // (duplicate window/min-burst grid entries, or every threshold scale when
  // the auto threshold is degenerate) are evaluated once and skipped on
  // repeat — a duplicate can never beat the identical earlier candidate, so
  // skipping preserves the reference selection bit-for-bit.
  const double base_threshold = pass1_threshold;
  const SweepGrid grid = sweep_grid(base);

  BestCandidate best;
  best.segments = std::move(first);
  best.config = base;
  best.err = BestCandidate::count_err(best.segments, expected_windows);
  best.consistency = burst_length_consistency(best.segments);

  struct SmoothedEntry {
    std::size_t window = 0;
    std::vector<double> values;
    double auto_thr = 0.0;  // auto_threshold of this smoothing (degenerate sweeps)
    bool auto_thr_known = false;
  };
  std::vector<SmoothedEntry> smoothed;
  struct RunsEntry {
    std::size_t window;
    double threshold;
    std::vector<Run> runs;
  };
  std::vector<RunsEntry> run_cache;
  struct SeenConfig {
    std::size_t window;
    double threshold;  // effective threshold actually compared against
    std::size_t min_burst;
  };
  std::vector<SeenConfig> seen;
  // Pass 1 occupies the (base window, base threshold, base min-burst) slot.
  seen.push_back({base.smooth_window, pass1_threshold, base.min_burst_length});

  for (const std::size_t sw : grid.smooth_windows) {
    SmoothedEntry* sm = nullptr;
    for (SmoothedEntry& e : smoothed) {
      if (e.window == sw) {
        sm = &e;
        break;
      }
    }
    if (sm == nullptr) {
      SmoothedEntry e;
      e.window = sw;
      e.values = sw == base.smooth_window ? std::move(base_smoothed) : smooth(samples, sw);
      smoothed.push_back(std::move(e));
      sm = &smoothed.back();
    }
    for (const double scale : grid.threshold_scales) {
      // The config handed to segment_trace by the reference sweep: a pinned
      // scaled threshold, or 0 (auto, re-derived per smoothing) when the
      // base trace had no separable burst level.
      const bool pinned = std::isfinite(base_threshold);
      double effective = pinned ? base_threshold * scale : 0.0;
      if (!pinned) {
        if (!sm->auto_thr_known) {
          sm->auto_thr = auto_threshold(sm->values);
          sm->auto_thr_known = true;
        }
        effective = sm->auto_thr;
      }
      for (const std::size_t mb : grid.min_bursts) {
        if (sw == base.smooth_window && scale == 1.0 && mb == base.min_burst_length)
          continue;  // already tried as pass 1 (modulo auto-threshold pinning)
        bool duplicate = false;
        for (const SeenConfig& s : seen) {
          if (s.window == sw && s.threshold == effective && s.min_burst == mb) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        seen.push_back({sw, effective, mb});

        RunsEntry* re = nullptr;
        for (RunsEntry& e : run_cache) {
          if (e.window == sw && e.threshold == effective) {
            re = &e;
            break;
          }
        }
        if (re == nullptr) {
          RunsEntry e;
          e.window = sw;
          e.threshold = effective;
          e.runs = runs_above(sm->values, effective);
          run_cache.push_back(std::move(e));
          re = &run_cache.back();
        }

        SegmentationConfig cfg = base;
        cfg.smooth_window = sw;
        cfg.threshold = pinned ? base_threshold * scale : 0.0;
        cfg.min_burst_length = mb;
        ++result.attempts;

        // Count the surviving bursts without materializing segments; a
        // candidate whose (match, count-error) is strictly worse than the
        // incumbent's can never win under the selection predicate, so only
        // potential winners pay for segment construction and the
        // consistency pass.
        std::size_t count = 0;
        for (const Run& r : re->runs) count += (r.end - r.begin >= mb);
        const std::size_t e = count > expected_windows ? count - expected_windows
                                                       : expected_windows - count;
        const bool m = e == 0;
        const bool maybe_better = m != best.match ? m : e <= best.err;
        if (!maybe_better) continue;
        best.consider(segments_from_runs(re->runs, mb, samples.size()), cfg,
                      expected_windows);
      }
    }
  }

  return finish_robust(result, std::move(best.segments), best.config,
                       best.match ? SegmentationStatus::kRecovered
                                  : SegmentationStatus::kFailed,
                       degraded_consistency);
}

SegmentationResult segment_trace_robust_reference(const std::vector<double>& samples,
                                                  std::size_t expected_windows,
                                                  const SegmentationConfig& base,
                                                  double degraded_consistency) {
  SegmentationResult result;
  if (samples.empty() || expected_windows == 0) return result;

  // Pass 1: identical to the fast path.
  std::vector<Segment> first = segment_trace(samples, base);
  ++result.attempts;
  if (first.size() == expected_windows)
    return finish_robust(result, std::move(first), base, SegmentationStatus::kOk,
                         degraded_consistency);

  // Pass 2: the pre-optimization sweep — every candidate re-smooths and
  // re-segments the full trace, duplicates included. Kept verbatim as the
  // differential anchor for the shared-work sweep above.
  const double base_threshold =
      base.threshold > 0.0 ? base.threshold
                           : auto_threshold(smooth(samples, base.smooth_window));
  const SweepGrid grid = sweep_grid(base);

  BestCandidate best;
  best.segments = std::move(first);
  best.config = base;
  best.err = BestCandidate::count_err(best.segments, expected_windows);
  best.consistency = burst_length_consistency(best.segments);

  for (const std::size_t sw : grid.smooth_windows) {
    for (const double scale : grid.threshold_scales) {
      for (const std::size_t mb : grid.min_bursts) {
        SegmentationConfig cfg = base;
        cfg.smooth_window = sw;
        cfg.threshold = std::isfinite(base_threshold) ? base_threshold * scale : 0.0;
        cfg.min_burst_length = mb;
        if (sw == base.smooth_window && scale == 1.0 && mb == base.min_burst_length)
          continue;  // already tried as pass 1 (modulo auto-threshold pinning)
        std::vector<Segment> candidate = segment_trace(samples, cfg);
        ++result.attempts;
        best.consider(std::move(candidate), cfg, expected_windows);
      }
    }
  }

  return finish_robust(result, std::move(best.segments), best.config,
                       best.match ? SegmentationStatus::kRecovered
                                  : SegmentationStatus::kFailed,
                       degraded_consistency);
}

}  // namespace reveal::sca
