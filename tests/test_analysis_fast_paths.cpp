// Differential tests for the analysis-plane fast kernels: every optimized
// path (shared-work segmentation sweep, flat-GSO LLL) is fuzzed against its
// retained *_reference implementation and must agree bit-for-bit. Also
// covers the compensated-smoothing drift bound.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

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
// Compensated smoothing drift

TEST(SmoothingDrift, CompensatedSmoothingTracksExactWindowedMeans) {
  // A large common-mode offset makes the plain sliding accumulator lose the
  // per-sample noise bits: after 2^20 adds/subtracts its output drifts from
  // the true windowed mean. The compensated kernel must stay within a few
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
    long double acc = 0.0L;
    const std::size_t begin = i + 1 >= window ? i + 1 - window : 0;
    for (std::size_t j = begin; j <= i; ++j) acc += samples[j];
    const double exact =
        static_cast<double>(acc / static_cast<long double>(i - begin + 1));
    fast_err = std::max(fast_err, std::fabs(fast[i] - exact));
    plain_err = std::max(plain_err, std::fabs(plain[i] - exact));
  }
  // The compensated error is bounded by the window content (~1e8 * eps);
  // the plain accumulator's drift grows with the stream and must be
  // observably worse — that gap is what the hardening buys.
  EXPECT_LT(fast_err, 1e-6);
  EXPECT_GT(plain_err, fast_err * 4.0);
}

TEST(SmoothingDrift, CompensatedEqualsReferenceOnShortBenignTraces) {
  // On short traces both kernels are exact to the ulp against the direct
  // mean; this pins the behavior segment_trace depends on.
  num::Xoshiro256StarStar rng(5);
  std::vector<double> samples(257);
  for (double& v : samples) v = rng.gaussian(0.0, 1.0);
  const std::vector<double> fast = smooth(samples, 5);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    double acc = 0.0;
    const std::size_t begin = i + 1 >= 5 ? i + 1 - 5 : 0;
    for (std::size_t j = begin; j <= i; ++j) acc += samples[j];
    EXPECT_NEAR(fast[i], acc / static_cast<double>(i - begin + 1), 1e-12);
  }
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
