// Differential tests for the analysis-plane fast kernels: every optimized
// path (shared-work segmentation sweep, streaming class statistics,
// flat-GSO LLL) is fuzzed against its retained *_reference implementation.
// The segmentation/LLL pairs must agree bit-for-bit; the Welford-track
// statistics are tolerance-gated. Also covers the compensated-smoothing
// drift bound and the deterministic merge contracts (ClassStats blocks,
// RankAccumulator).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/campaign_runner.hpp"
#include "lattice/lattice.hpp"
#include "numeric/rng.hpp"
#include "sca/class_stats.hpp"
#include "sca/metrics.hpp"
#include "sca/poi.hpp"
#include "sca/segmentation.hpp"
#include "sca/trace.hpp"
#include "sca/tvla.hpp"

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
// Streaming class statistics

TraceSet labelled_set(std::size_t classes, std::size_t per_class, std::size_t min_len,
                      std::size_t len_jitter, std::uint64_t seed) {
  num::Xoshiro256StarStar rng(seed);
  TraceSet set;
  const std::int32_t half = static_cast<std::int32_t>(classes / 2);
  for (std::size_t t = 0; t < per_class; ++t) {
    for (std::size_t c = 0; c < classes; ++c) {
      Trace trace;
      trace.label = static_cast<std::int32_t>(c) - half;
      trace.samples.resize(min_len + (len_jitter == 0 ? 0 : rng() % len_jitter));
      for (std::size_t i = 0; i < trace.samples.size(); ++i) {
        const double leak = i % 11 == 3 ? 0.1 * static_cast<double>(trace.label) : 0.0;
        trace.samples[i] = leak + rng.gaussian(0.0, 1.0);
      }
      set.add(std::move(trace));
    }
  }
  return set;
}

TEST(ClassStatsStreaming, MeansAndSosdBitIdenticalToReference) {
  const TraceSet set = labelled_set(5, 7, 64, 7, 51);
  ClassStats acc(64);
  acc.add_all(set);
  const ClassMeans ref_means = class_means(set);
  EXPECT_EQ(acc.means(), ref_means);                 // bit-equal curves
  EXPECT_EQ(acc.sosd(), sosd_curve(ref_means));      // bit-equal SOSD
  EXPECT_EQ(select_pois(acc.sosd(), 8, 2), select_pois(sosd_curve(ref_means), 8, 2));
  EXPECT_EQ(acc.num_classes(), 5u);
  EXPECT_EQ(acc.total_count(), set.size());
}

TEST(ClassStatsStreaming, WelchTMatchesTwoPassReference) {
  const TraceSet set = labelled_set(2, 40, 96, 0, 52);
  ClassStats acc(96);
  acc.add_all(set);
  TraceSet pop_a, pop_b;
  for (const Trace& t : set) (t.label == -1 ? pop_a : pop_b).add(t);
  const std::vector<double> ref = welch_t_test(pop_a, pop_b);
  const std::vector<double> fast = acc.welch_t(-1, 0);
  ASSERT_EQ(fast.size(), ref.size());
  for (std::size_t i = 0; i < fast.size(); ++i) {
    EXPECT_NEAR(fast[i], ref[i], 1e-9) << "point " << i;
  }
  const TvlaReport fast_report = acc.tvla(-1, 0);
  const TvlaReport ref_report = tvla_assess(pop_a, pop_b);
  EXPECT_EQ(fast_report.max_index, ref_report.max_index);
  EXPECT_EQ(fast_report.leaking_points, ref_report.leaking_points);
  EXPECT_NEAR(fast_report.max_abs_t, ref_report.max_abs_t, 1e-9);
}

TEST(ClassStatsStreaming, VarianceMatchesTwoPass) {
  const TraceSet set = labelled_set(3, 9, 32, 0, 53);
  ClassStats acc(32);
  acc.add_all(set);
  for (const std::int32_t label : acc.labels()) {
    std::vector<const Trace*> members;
    for (const Trace& t : set) {
      if (t.label == label) members.push_back(&t);
    }
    const std::vector<double> var = acc.variance(label);
    for (std::size_t i = 0; i < 32; ++i) {
      double mean = 0.0;
      for (const Trace* t : members) mean += t->samples[i];
      mean /= static_cast<double>(members.size());
      double m2 = 0.0;
      for (const Trace* t : members) {
        const double d = t->samples[i] - mean;
        m2 += d * d;
      }
      EXPECT_NEAR(var[i], m2 / static_cast<double>(members.size() - 1), 1e-10);
    }
  }
}

TEST(ClassStatsStreaming, MergeMatchesStreamingWithinTolerance) {
  const TraceSet set = labelled_set(4, 20, 48, 0, 54);
  ClassStats whole(48);
  whole.add_all(set);
  // Partials over thirds, merged in order (the Chan path).
  ClassStats merged(48);
  for (std::size_t part = 0; part < 3; ++part) {
    ClassStats partial(48);
    for (std::size_t i = part * set.size() / 3; i < (part + 1) * set.size() / 3; ++i) {
      partial.add(set[i].label, set[i].samples);
    }
    merged.merge(partial);
  }
  EXPECT_EQ(merged.total_count(), whole.total_count());
  EXPECT_EQ(merged.labels(), whole.labels());
  // The sum track merges by plain addition and the Welford track by Chan
  // updates: both are statistically exact but associate differently, so the
  // comparison is tolerance- not bit-gated.
  for (const std::int32_t label : whole.labels()) {
    const auto whole_means = whole.means();
    const auto merged_means = merged.means();
    const auto& wm = whole_means.at(label);
    const auto& mm = merged_means.at(label);
    const auto wv = whole.variance(label);
    const auto mv = merged.variance(label);
    for (std::size_t i = 0; i < 48; ++i) {
      EXPECT_NEAR(mm[i], wm[i], 1e-12);
      EXPECT_NEAR(mv[i], wv[i], 1e-10);
    }
  }
}

TEST(ClassStatsStreaming, CampaignRunnerIdenticalAcrossWorkerCounts) {
  // Fixed 32-trace blocks merged in block order: the campaign-level
  // accumulator must be byte-identical for every pool size, including the
  // serial path.
  const TraceSet set = labelled_set(5, 25, 40, 0, 55);
  ClassStats baseline = core::CampaignRunner(0).class_stats(set, 40);
  for (const std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers " + std::to_string(workers));
    core::CampaignRunner runner(workers);
    const ClassStats parallel = runner.class_stats(set, 40);
    EXPECT_EQ(parallel.total_count(), baseline.total_count());
    EXPECT_EQ(parallel.means(), baseline.means());  // bit-equal
    EXPECT_EQ(parallel.sosd(), baseline.sosd());
    for (const std::int32_t label : baseline.labels()) {
      EXPECT_EQ(parallel.variance(label), baseline.variance(label));
    }
    EXPECT_EQ(parallel.welch_t(-2, 2), baseline.welch_t(-2, 2));
  }
}

TEST(ClassStatsStreaming, RejectsBadInput) {
  EXPECT_THROW(ClassStats(0), std::invalid_argument);
  ClassStats acc(16);
  EXPECT_THROW(acc.add(Trace::kNoLabel, std::vector<double>(16, 0.0)),
               std::invalid_argument);
  EXPECT_THROW(acc.add(1, std::vector<double>(8, 0.0)), std::invalid_argument);
  acc.add(1, std::vector<double>(16, 0.0));
  EXPECT_THROW(acc.welch_t(1, 2), std::invalid_argument);  // unknown label
  acc.add(2, std::vector<double>(16, 0.0));
  EXPECT_THROW(acc.welch_t(1, 2), std::invalid_argument);  // < 2 per class
  EXPECT_THROW(acc.variance(3), std::invalid_argument);
  ClassStats other(32);
  EXPECT_THROW(acc.merge(other), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// RankAccumulator merge

TEST(RankAccumulatorMerge, BlockMergeReproducesSequentialAccumulator) {
  num::Xoshiro256StarStar rng(61);
  std::vector<std::size_t> ranks(100);
  for (std::size_t& r : ranks) r = 1 + rng() % 25;

  RankAccumulator sequential;
  for (const std::size_t r : ranks) sequential.add(r);

  RankAccumulator merged;
  for (std::size_t part = 0; part < 4; ++part) {
    RankAccumulator partial;
    for (std::size_t i = part * 25; i < (part + 1) * 25; ++i) partial.add(ranks[i]);
    merged.merge(partial);
  }
  EXPECT_EQ(merged.count(), sequential.count());
  EXPECT_EQ(merged.guessing_entropy(), sequential.guessing_entropy());  // bit-equal
  EXPECT_EQ(merged.median_rank(), sequential.median_rank());
  for (const std::size_t k : {1u, 3u, 10u}) {
    EXPECT_EQ(merged.success_rate_at(k), sequential.success_rate_at(k));
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
