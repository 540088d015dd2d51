// Differential tests for the analysis-plane fast kernels: every optimized
// path (shared-work segmentation sweep, flat-GSO LLL) is fuzzed against its
// retained *_reference implementation and must agree bit-for-bit. Also
// covers the smoothing kernel's contract: the oldest-first window mean, its
// drift bound and its threshold decisions on real captures.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/acquisition.hpp"
#include "lattice/lattice.hpp"
#include "numeric/rng.hpp"
#include "sca/segmentation.hpp"

using namespace reveal;
using namespace reveal::sca;

namespace {

// ---------------------------------------------------------------------------
// Segmentation sweep

std::vector<double> fuzz_burst_trace(num::Xoshiro256StarStar& rng, std::size_t* bursts) {
  std::vector<double> trace(1500);
  for (double& v : trace) v = 1.0 + rng.gaussian(0.0, 0.3);
  const std::size_t count = 3 + static_cast<std::size_t>(rng() % 5);
  std::size_t pos = 40;
  std::size_t placed = 0;
  for (std::size_t b = 0; b < count && pos + 60 < trace.size(); ++b) {
    const std::size_t len = 20 + rng() % 20;
    for (std::size_t i = pos; i < pos + len; ++i) trace[i] = 9.0 + rng.gaussian(0.0, 0.5);
    ++placed;
    pos += len + 80 + rng() % 120;
  }
  // Degradations: one mid-level interference burst and one dropout notch.
  const std::size_t glitch = 20 + rng() % (trace.size() - 60);
  for (std::size_t i = glitch; i < glitch + 12; ++i) trace[i] = 5.5;
  const std::size_t notch = 20 + rng() % (trace.size() - 40);
  for (std::size_t i = notch; i < notch + 6; ++i) trace[i] = 0.0;
  *bursts = placed;
  return trace;
}

void expect_sweep_results_equal(const SegmentationResult& fast,
                                const SegmentationResult& ref) {
  EXPECT_EQ(fast.status, ref.status);
  ASSERT_EQ(fast.segments.size(), ref.segments.size());
  for (std::size_t i = 0; i < fast.segments.size(); ++i) {
    EXPECT_EQ(fast.segments[i].burst_begin, ref.segments[i].burst_begin);
    EXPECT_EQ(fast.segments[i].burst_end, ref.segments[i].burst_end);
    EXPECT_EQ(fast.segments[i].window_begin, ref.segments[i].window_begin);
    EXPECT_EQ(fast.segments[i].window_end, ref.segments[i].window_end);
  }
  EXPECT_EQ(fast.window_quality, ref.window_quality);  // bit-equal doubles
  EXPECT_EQ(fast.config.smooth_window, ref.config.smooth_window);
  EXPECT_EQ(fast.config.threshold, ref.config.threshold);
  EXPECT_EQ(fast.config.min_burst_length, ref.config.min_burst_length);
  EXPECT_EQ(fast.burst_consistency, ref.burst_consistency);
  EXPECT_LE(fast.attempts, ref.attempts);
}

TEST(SegmentationSweepFastPath, FuzzMatchesReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    num::Xoshiro256StarStar rng(seed);
    std::size_t bursts = 0;
    const std::vector<double> trace = fuzz_burst_trace(rng, &bursts);
    SegmentationConfig cfg;
    cfg.smooth_window = 3;
    cfg.threshold = seed % 3 == 0 ? 0.0 : 5.0;  // exercise auto and pinned
    cfg.min_burst_length = 16;
    for (const std::size_t expected :
         {bursts, bursts > 1 ? bursts - 1 : 1, bursts + 2}) {
      SCOPED_TRACE("expected " + std::to_string(expected));
      const SegmentationResult fast = segment_trace_robust(trace, expected, cfg);
      const SegmentationResult ref =
          segment_trace_robust_reference(trace, expected, cfg);
      expect_sweep_results_equal(fast, ref);
    }
  }
}

TEST(SegmentationSweepFastPath, AutoThresholdSweepMatchesReference) {
  // A flat trace makes auto_threshold degenerate (+inf): the reference
  // re-derives the auto threshold per candidate, collapsing all five
  // threshold scales; the fast path must reproduce that collapse.
  const std::vector<double> flat(600, 2.0);
  SegmentationConfig cfg;
  cfg.threshold = 0.0;
  const SegmentationResult fast = segment_trace_robust(flat, 4, cfg);
  const SegmentationResult ref = segment_trace_robust_reference(flat, 4, cfg);
  expect_sweep_results_equal(fast, ref);
  EXPECT_LT(fast.attempts, ref.attempts);
}

TEST(SegmentationSweepFastPath, DedupCountsDistinctSegmentationsOnly) {
  // smooth_window = 1 makes the sweep grid degenerate: its window variants
  // normalize to {1, 3, 1, 3}, so half the reference candidates are exact
  // duplicates. The fast path must evaluate each distinct (window,
  // threshold, min-burst) configuration exactly once and still select the
  // same result.
  std::vector<double> trace(400, 1.0);
  for (const std::size_t s : {50u, 170u, 300u}) {
    for (std::size_t i = s; i < s + 30; ++i) trace[i] = 10.0;
  }
  SegmentationConfig cfg;
  cfg.smooth_window = 1;
  cfg.threshold = 5.0;
  cfg.min_burst_length = 16;
  // Expect a count the trace cannot satisfy, forcing the full sweep.
  const SegmentationResult fast = segment_trace_robust(trace, 7, cfg);
  const SegmentationResult ref = segment_trace_robust_reference(trace, 7, cfg);
  expect_sweep_results_equal(fast, ref);
  // Reference: pass 1 + the 60-candidate grid minus the two base-config
  // entries (the duplicated base window hits the pass-1 skip twice).
  EXPECT_EQ(ref.attempts, 59u);
  // Fast: pass 1 + the 30 distinct configurations minus the base config.
  EXPECT_EQ(fast.attempts, 30u);
}

// ---------------------------------------------------------------------------
// Smoothing: a direct window mean

/// The definition smooth() implements: output i is the oldest-first sum of
/// samples max(0, i - w + 1) .. i, divided by the number of samples summed.
double oldest_first_window_mean(const std::vector<double>& x, std::size_t i,
                                std::size_t window) {
  const std::size_t begin = i + 1 >= window ? i + 1 - window : 0;
  double acc = x[begin];
  for (std::size_t j = begin + 1; j <= i; ++j) acc += x[j];
  return acc / static_cast<double>(i - begin + 1);
}

/// The same window mean, summed in long double.
long double exact_window_mean(const std::vector<double>& x, std::size_t i,
                              std::size_t window) {
  const std::size_t begin = i + 1 >= window ? i + 1 - window : 0;
  long double acc = 0.0L;
  for (std::size_t j = begin; j <= i; ++j) acc += x[j];
  return acc / static_cast<long double>(i - begin + 1);
}

TEST(SmoothingDrift, DirectSumTracksExactWindowedMeans) {
  // A large common-mode offset makes the plain sliding accumulator lose the
  // per-sample noise bits: after 2^20 adds/subtracts its output drifts from
  // the true windowed mean. The direct window sum must stay within a few
  // ulps of the exact (recomputed per window, long double) value across the
  // whole trace.
  const std::size_t length = (1u << 20) + 37;
  const std::size_t window = 7;
  num::Xoshiro256StarStar rng(99);
  std::vector<double> samples(length);
  for (double& v : samples) v = 1.0e8 + rng.gaussian(0.0, 1.0);

  const std::vector<double> fast = smooth(samples, window);
  const std::vector<double> plain = smooth_reference(samples, window);

  double fast_err = 0.0;
  double plain_err = 0.0;
  for (std::size_t i = 0; i < length; ++i) {
    const double exact = static_cast<double>(exact_window_mean(samples, i, window));
    fast_err = std::max(fast_err, std::fabs(fast[i] - exact));
    plain_err = std::max(plain_err, std::fabs(plain[i] - exact));
  }
  // The direct sum's error is bounded by the window content (~1e8 * eps);
  // the plain accumulator's drift grows with the stream and must be
  // observably worse.
  EXPECT_LT(fast_err, 1e-6);
  EXPECT_GT(plain_err, fast_err * 4.0);
}

TEST(SmoothingDrift, EqualsOldestFirstWindowSum) {
  // Exact equality with the definition, at every length around the window
  // edges: windows longer than the trace (lengths 0, 1, w - 1), the partial
  // head, blocks of four and the scalar tail.
  num::Xoshiro256StarStar rng(5);
  for (const std::size_t window : {2u, 3u, 5u, 7u, 11u}) {
    for (const std::size_t length :
         {std::size_t{0}, std::size_t{1}, window - 1, window, window + 3, std::size_t{257}}) {
      SCOPED_TRACE("window " + std::to_string(window) + ", length " +
                   std::to_string(length));
      std::vector<double> samples(length);
      for (double& v : samples) v = rng.gaussian(0.0, 1.0);
      const std::vector<double> out = smooth(samples, window);
      ASSERT_EQ(out.size(), length);
      for (std::size_t i = 0; i < length; ++i)
        EXPECT_EQ(out[i], oldest_first_window_mean(samples, i, window)) << "i " << i;
    }
  }
}

TEST(SmoothingDrift, FullWindowOutputIgnoresEarlierSamples) {
  // Each full-window output is a pure function of its own window: smoothing
  // `prefix ++ x` gives exactly smooth(x) at every full-window position of
  // x, whatever the prefix held. At a 1e16 offset even a compensated sliding
  // accumulator's correction term loses bits, and it carries them into x.
  num::Xoshiro256StarStar rng(17);
  std::vector<double> x(600);
  for (double& v : x) v = 10.0 + rng.gaussian(0.0, 3.0);
  std::vector<double> prefix(1000);
  for (double& v : prefix) v = 1.0e16 + rng.gaussian(0.0, 1.0e11);
  std::vector<double> joined = prefix;
  joined.insert(joined.end(), x.begin(), x.end());
  for (const std::size_t window : {3u, 5u, 7u, 11u}) {
    SCOPED_TRACE("window " + std::to_string(window));
    const std::vector<double> alone = smooth(x, window);
    const std::vector<double> shifted = smooth(joined, window);
    for (std::size_t i = window - 1; i < x.size(); ++i)
      ASSERT_EQ(shifted[prefix.size() + i], alone[i]) << "i " << i;
  }
}

TEST(SmoothingDrift, ThresholdDecisionsMatchExactMeansOnCaptures) {
  // Segmentation reads only `smooth(x, w)[i] > t`. On real captures (clean,
  // lab-grade and L3-degraded) every decision of the degraded sweep's grid
  // (its four windows around the campaign's 5, its five thresholds around
  // the campaign's 10) must equal the same comparison on the exact mean.
  core::CampaignConfig clean;
  clean.num_workers = 0;
  core::CampaignConfig lab = clean;
  lab.leakage.noise_sigma = 0.01;
  lab.leakage.bit_deviation = 0.35;
  core::CampaignConfig l3 = clean;
  l3.faults.jitter_sigma = 1.0;
  l3.faults.dropout_rate = 0.05;
  l3.faults.glitch_count = 4;
  l3.faults.seed = 31;
  const std::size_t windows[] = {3, 5, 7, 11};
  const double scales[] = {0.7, 0.85, 1.0, 1.15, 1.3};
  std::size_t decisions = 0;
  for (const core::CampaignConfig& cfg : {clean, lab, l3}) {
    core::SamplerCampaign campaign(cfg);
    core::FullCapture capture;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      campaign.capture_into(seed, capture);
      const std::vector<double>& x = capture.trace;
      for (const std::size_t w : windows) {
        const std::vector<double> s = smooth(x, w);
        for (std::size_t i = 0; i < x.size(); ++i) {
          const long double exact = exact_window_mean(x, i, w);
          for (const double scale : scales) {
            const double t = cfg.segmentation.threshold * scale;
            ASSERT_EQ(s[i] > t, exact > t)
                << "seed " << seed << ", window " << w << ", t " << t << ", i " << i;
            ++decisions;
          }
        }
      }
    }
  }
  EXPECT_GT(decisions, 24u * 4u * 5u * 40000u);
}

// ---------------------------------------------------------------------------
// Flat-GSO LLL

lattice::Basis fuzz_basis(num::Xoshiro256StarStar& rng, std::size_t n, bool boost_diag) {
  lattice::Basis basis(n, std::vector<std::int64_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) basis[i][j] = rng.uniform_int(-30, 30);
    if (boost_diag) basis[i][i] += 100;
  }
  return basis;
}

TEST(LatticeFlatLll, FuzzMatchesReference) {
  num::Xoshiro256StarStar rng(71);
  for (std::uint64_t round = 0; round < 12; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const std::size_t n = 4 + round % 9;
    lattice::Basis fast_basis = fuzz_basis(rng, n, round % 2 == 0);
    lattice::Basis ref_basis = fast_basis;
    const std::size_t fast_swaps = lattice::lll_reduce(fast_basis);
    const std::size_t ref_swaps = lattice::lll_reduce_reference(ref_basis);
    EXPECT_EQ(fast_basis, ref_basis);  // exact integer equality
    EXPECT_EQ(fast_swaps, ref_swaps);
    EXPECT_TRUE(lattice::is_lll_reduced(fast_basis));
  }
}

TEST(LatticeFlatLll, RankDeficientBasisMatchesReference) {
  // A duplicated row degenerates the GSO (zero ||b*||): the flat kernel's
  // degenerate-norm handling must mirror compute_gso's exactly.
  num::Xoshiro256StarStar rng(73);
  lattice::Basis fast_basis = fuzz_basis(rng, 6, true);
  fast_basis[4] = fast_basis[1];
  lattice::Basis ref_basis = fast_basis;
  const std::size_t fast_swaps = lattice::lll_reduce(fast_basis);
  const std::size_t ref_swaps = lattice::lll_reduce_reference(ref_basis);
  EXPECT_EQ(fast_basis, ref_basis);
  EXPECT_EQ(fast_swaps, ref_swaps);
}

TEST(LatticeFlatLll, ReducesKnownBasisLikeReference) {
  // The classic worked example: the flat path must leave the already-agreed
  // reduced form in place.
  lattice::Basis basis = {{1, 1, 1}, {-1, 0, 2}, {3, 5, 6}};
  lattice::Basis ref = basis;
  lattice::lll_reduce(basis);
  lattice::lll_reduce_reference(ref);
  EXPECT_EQ(basis, ref);
  EXPECT_TRUE(lattice::is_lll_reduced(basis));
}

}  // namespace
