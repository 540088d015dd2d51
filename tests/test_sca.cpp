// SCA toolkit tests: traces, segmentation, POI selection, templates,
// branch classification and confusion reports — all on synthetic data with
// known ground truth.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <utility>

#include "core/acquisition.hpp"
#include "numeric/rng.hpp"
#include "sca/classifier.hpp"
#include "sca/poi.hpp"
#include "sca/report.hpp"
#include "sca/segmentation.hpp"
#include "sca/template_attack.hpp"
#include "sca/trace.hpp"

using namespace reveal;
using namespace reveal::sca;

TEST(TraceSet, SaveLoadRoundtrip) {
  TraceSet set;
  Trace t1;
  t1.samples = {1.5, -2.5, 3.25};
  t1.label = 7;
  set.add(t1);
  Trace t2;
  t2.samples = {0.0};
  set.add(t2);

  const std::string path = std::filesystem::temp_directory_path() / "reveal_traces.bin";
  set.save(path);
  const TraceSet loaded = TraceSet::load(path);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].samples, t1.samples);
  EXPECT_EQ(loaded[0].label, 7);
  EXPECT_EQ(loaded[1].label, Trace::kNoLabel);
  std::remove(path.c_str());
}

TEST(TraceSet, LoadRejectsGarbage) {
  const std::string path = std::filesystem::temp_directory_path() / "reveal_bad.bin";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    std::fputs("not a trace file", f);
    std::fclose(f);
  }
  EXPECT_THROW(TraceSet::load(path), std::runtime_error);
  std::remove(path.c_str());
  EXPECT_THROW(TraceSet::load("/nonexistent/nope.bin"), std::runtime_error);
}

TEST(TraceSet, LoadRejectsTruncatedFiles) {
  // A valid two-trace file cut off at various byte offsets must always
  // throw — never silently yield a shorter/empty set.
  TraceSet set;
  set.add({{1.0, 2.0, 3.0}, 4});
  set.add({{4.0, 5.0}, -1});
  const std::string path = std::filesystem::temp_directory_path() / "reveal_trunc.bin";
  set.save(path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 20u);
  // magic only; mid trace-count; mid first header; mid samples; last byte gone.
  for (const std::size_t cut : {std::size_t{4}, std::size_t{8}, std::size_t{14},
                                std::size_t{30}, bytes.size() - 1}) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
    out.close();
    EXPECT_THROW(TraceSet::load(path), std::runtime_error) << "cut=" << cut;
  }
  std::remove(path.c_str());
}

TEST(TraceSet, LoadRejectsLyingTraceCount) {
  // Header claims three traces but the file holds one: the missing traces
  // must be reported as truncation, not returned as a short set.
  TraceSet set;
  set.add({{1.0}, 0});
  const std::string path = std::filesystem::temp_directory_path() / "reveal_lying.bin";
  set.save(path);
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  const std::uint64_t lying_count = 3;
  std::memcpy(bytes.data() + 4, &lying_count, sizeof(lying_count));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(TraceSet::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TraceOps, Normalize) {
  Trace t;
  t.samples = {1.0, 2.0, 3.0};
  normalize(t);
  double mean = 0.0;
  for (const double v : t.samples) mean += v;
  EXPECT_NEAR(mean, 0.0, 1e-12);
  // Constant trace untouched.
  Trace c;
  c.samples = {5.0, 5.0};
  normalize(c);
  EXPECT_EQ(c.samples, (std::vector<double>{5.0, 5.0}));
}

TEST(TraceOps, MeanTrace) {
  TraceSet set;
  set.add({{1.0, 3.0}, 0});
  set.add({{3.0, 5.0, 7.0}, 0});  // longer: truncated to common length
  const auto mean = mean_trace(set);
  ASSERT_EQ(mean.size(), 2u);
  EXPECT_NEAR(mean[0], 2.0, 1e-12);
  EXPECT_NEAR(mean[1], 4.0, 1e-12);
  EXPECT_THROW(mean_trace(TraceSet{}), std::invalid_argument);
}

TEST(Segmentation, SmoothAndThreshold) {
  const std::vector<double> flat(100, 1.0);
  EXPECT_EQ(smooth(flat, 5), flat);
  EXPECT_THROW(smooth(flat, 0), std::invalid_argument);
  EXPECT_THROW((void)auto_threshold({}), std::invalid_argument);
}

TEST(Segmentation, FindsBurstsInSyntheticTrace) {
  // Three 30-sample bursts at level 10 over a level-1 floor.
  std::vector<double> trace(400, 1.0);
  const std::size_t starts[] = {50, 170, 300};
  for (const std::size_t s : starts) {
    for (std::size_t i = s; i < s + 30; ++i) trace[i] = 10.0;
  }
  SegmentationConfig cfg;
  cfg.smooth_window = 3;
  cfg.threshold = 5.0;
  cfg.min_burst_length = 16;
  const auto segments = segment_trace(trace, cfg);
  ASSERT_EQ(segments.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_NEAR(static_cast<double>(segments[k].burst_begin),
                static_cast<double>(starts[k]), 4.0);
    EXPECT_GE(segments[k].window_begin, segments[k].burst_end);
  }
  // Windows tile the space between bursts.
  EXPECT_EQ(segments[0].window_end, segments[1].burst_begin);
  EXPECT_EQ(segments[2].window_end, trace.size());
}

TEST(Segmentation, ShortSpikesIgnored) {
  std::vector<double> trace(200, 1.0);
  trace[100] = 50.0;  // single-sample glitch
  SegmentationConfig cfg;
  cfg.smooth_window = 1;
  cfg.threshold = 5.0;
  cfg.min_burst_length = 8;
  EXPECT_TRUE(segment_trace(trace, cfg).empty());
}

TEST(Segmentation, AutoThresholdSeparatesBimodal) {
  std::vector<double> trace;
  for (int i = 0; i < 300; ++i) trace.push_back(1.0);
  for (int i = 0; i < 40; ++i) trace.push_back(10.0);
  const double th = auto_threshold(trace);
  EXPECT_GT(th, 1.5);
  EXPECT_LT(th, 9.5);
}

TEST(Segmentation, FlatTraceHasNoThresholdAndNoBursts) {
  // Degenerate input: no burst/floor separation exists. auto_threshold
  // signals that with +infinity and segmentation finds nothing.
  const std::vector<double> flat(500, 3.0);
  EXPECT_TRUE(std::isinf(auto_threshold(flat)));
  SegmentationConfig cfg;
  cfg.threshold = 0.0;  // automatic
  EXPECT_TRUE(segment_trace(flat, cfg).empty());
}

TEST(Segmentation, NearConstantTraceYieldsNoBogusBurst) {
  // Regression: with the 20th/95th-percentile midpoint collapsed into the
  // numerical-noise band, half of a near-constant trace used to come back
  // as one giant bogus burst.
  std::vector<double> trace(500, 3.0);
  for (std::size_t i = 250; i < trace.size(); ++i) trace[i] += 1e-12;
  SegmentationConfig cfg;
  cfg.threshold = 0.0;
  cfg.smooth_window = 1;
  cfg.min_burst_length = 16;
  EXPECT_TRUE(segment_trace(trace, cfg).empty());
}

TEST(Segmentation, AutoThresholdMatchesSortDefinition) {
  // auto_threshold selects its two percentiles; the definition sorts. The
  // results must agree bit for bit, the flat-trace sentinel included.
  const auto by_sort = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const double lo = v[v.size() * 20 / 100];
    const double hi = v[std::min(v.size() - 1, v.size() * 95 / 100)];
    if (hi - lo < 1e-9 * std::max(1.0, std::abs(hi)))
      return std::numeric_limits<double>::infinity();
    return 0.5 * (lo + hi);
  };
  const auto expect_same = [&](const std::vector<double>& v) {
    const double got = auto_threshold(v);
    const double want = by_sort(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got), std::bit_cast<std::uint64_t>(want))
        << "size " << v.size() << ": " << got << " vs " << want;
  };
  num::Xoshiro256StarStar rng(23);
  for (std::size_t size = 1; size <= 64; ++size) {
    std::vector<double> random(size), ties(size);
    for (double& v : random) v = rng.gaussian(5.0, 3.0);
    for (double& v : ties) v = static_cast<double>(rng() % 3);  // tie-heavy
    expect_same(random);
    expect_same(ties);
  }
  std::vector<double> random(49000), ties(49000);
  for (double& v : random) v = rng.gaussian(5.0, 3.0);
  for (double& v : ties) v = static_cast<double>(rng() % 4);
  expect_same(random);
  expect_same(ties);
  const std::vector<double> flat(49000, 2.5);
  EXPECT_EQ(auto_threshold(flat), std::numeric_limits<double>::infinity());
  expect_same(flat);
}

TEST(Segmentation, BurstScanEdges) {
  // With no smoothing and no length filter, segment_trace returns exactly
  // the maximal runs strictly above the threshold. NaN samples count as
  // below it.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  struct Case {
    const char* name;
    std::vector<double> trace;
    std::vector<std::pair<std::size_t, std::size_t>> bursts;  // [begin, end)
  };
  const Case cases[] = {
      {"burst at sample 0", {1, 1, 0, 0, 0}, {{0, 2}}},
      {"burst ending at the last sample", {0, 0, 0, 1, 1}, {{3, 5}}},
      {"single-sample runs", {1, 0, 1, 0, 0, 1}, {{0, 1}, {2, 3}, {5, 6}}},
      {"all above", {1, 2, 3}, {{0, 3}}},
      {"all below", {0, 0.5, 0}, {}},
      {"NaN samples", {nan, 1, nan, 1, 1, nan, 0, 1}, {{1, 2}, {3, 5}, {7, 8}}},
  };
  SegmentationConfig cfg;
  cfg.smooth_window = 1;
  cfg.threshold = 0.5;
  cfg.min_burst_length = 1;
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const std::vector<Segment> segments = segment_trace(c.trace, cfg);
    ASSERT_EQ(segments.size(), c.bursts.size());
    for (std::size_t k = 0; k < segments.size(); ++k) {
      EXPECT_EQ(segments[k].burst_begin, c.bursts[k].first);
      EXPECT_EQ(segments[k].burst_end, c.bursts[k].second);
      EXPECT_EQ(segments[k].window_begin, c.bursts[k].second);
      const std::size_t next =
          k + 1 < c.bursts.size() ? c.bursts[k + 1].first : c.trace.size();
      EXPECT_EQ(segments[k].window_end, next);
    }
  }
}

// ---------------------------------------------------------------------------
// Robust (retrying) segmentation.

namespace {

// Three 30-sample level-10 bursts over a level-1 floor (the shape of the
// existing FindsBurstsInSyntheticTrace test).
std::vector<double> three_burst_trace() {
  std::vector<double> trace(400, 1.0);
  for (const std::size_t s : {50u, 170u, 300u}) {
    for (std::size_t i = s; i < s + 30; ++i) trace[i] = 10.0;
  }
  return trace;
}

SegmentationConfig three_burst_config() {
  SegmentationConfig cfg;
  cfg.smooth_window = 3;
  cfg.threshold = 5.0;
  cfg.min_burst_length = 16;
  return cfg;
}

}  // namespace

TEST(RobustSegmentation, CleanTraceMatchesBaseConfigExactly) {
  const auto trace = three_burst_trace();
  const auto cfg = three_burst_config();
  const auto plain = segment_trace(trace, cfg);
  const SegmentationResult result = segment_trace_robust(trace, 3, cfg);
  EXPECT_EQ(result.status, SegmentationStatus::kOk);
  EXPECT_EQ(result.attempts, 1u);
  ASSERT_EQ(result.segments.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(result.segments[i].burst_begin, plain[i].burst_begin);
    EXPECT_EQ(result.segments[i].burst_end, plain[i].burst_end);
    EXPECT_EQ(result.segments[i].window_begin, plain[i].window_begin);
    EXPECT_EQ(result.segments[i].window_end, plain[i].window_end);
  }
  EXPECT_GT(result.burst_consistency, 0.9);
  ASSERT_EQ(result.window_quality.size(), 3u);
  for (const double q : result.window_quality) EXPECT_GT(q, 0.7);
}

TEST(RobustSegmentation, RecoversFromSpuriousBurst) {
  // A level-6 interference burst sits above the base threshold (5.0) and
  // splits window 1: the base config sees 4 bursts. The retry sweep's
  // higher threshold suppresses it and recovers the expected 3 windows.
  auto trace = three_burst_trace();
  for (std::size_t i = 100; i < 120; ++i) trace[i] = 6.0;
  const auto cfg = three_burst_config();
  ASSERT_EQ(segment_trace(trace, cfg).size(), 4u);  // the failure mode
  const SegmentationResult result = segment_trace_robust(trace, 3, cfg);
  EXPECT_EQ(result.status, SegmentationStatus::kRecovered);
  ASSERT_EQ(result.segments.size(), 3u);
  EXPECT_GT(result.attempts, 1u);
  // The recovered bursts are the genuine ones.
  EXPECT_NEAR(static_cast<double>(result.segments[0].burst_begin), 50.0, 4.0);
  EXPECT_NEAR(static_cast<double>(result.segments[1].burst_begin), 170.0, 4.0);
  EXPECT_NEAR(static_cast<double>(result.segments[2].burst_begin), 300.0, 4.0);
}

TEST(RobustSegmentation, FailsGracefullyOnHopelessTrace) {
  const std::vector<double> flat(300, 2.0);
  const SegmentationResult result = segment_trace_robust(flat, 5, three_burst_config());
  EXPECT_EQ(result.status, SegmentationStatus::kFailed);
  EXPECT_EQ(result.window_quality.size(), result.segments.size());
  EXPECT_TRUE(segment_trace_robust({}, 5, three_burst_config()).segments.empty());
  EXPECT_EQ(segment_trace_robust(flat, 0, three_burst_config()).status,
            SegmentationStatus::kFailed);
}

TEST(RobustSegmentation, DegenerateSegmentsScoreFiniteNotNaN) {
  // Regression (quality-score guard): zero-length bursts and windows drive
  // the median lengths to zero; without the max(1, median) floor the scores
  // divide 0/0 and the NaNs propagate into every downstream confidence
  // gate. The guard must pin them to finite values in [0, 1].
  std::vector<Segment> degenerate(3);
  for (auto& s : degenerate) {
    s.burst_begin = s.burst_end = 10;    // zero-length burst
    s.window_begin = s.window_end = 20;  // zero-length window
  }
  const auto quality = score_windows(degenerate);
  ASSERT_EQ(quality.size(), degenerate.size());
  for (const double q : quality) {
    EXPECT_TRUE(std::isfinite(q));
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
  }
  const double consistency = burst_length_consistency(degenerate);
  EXPECT_TRUE(std::isfinite(consistency));
  EXPECT_EQ(consistency, 0.0);  // zero-mean burst length short-circuits
}

TEST(RobustSegmentation, DegenerateTracesYieldFiniteQuality) {
  // All-zero, constant and single-impulse traces must never leak NaN into
  // the quality scores or burst consistency, whatever status comes back.
  std::vector<std::vector<double>> traces;
  traces.emplace_back(600, 0.0);
  traces.emplace_back(600, 7.25);
  std::vector<double> impulse(600, 0.0);
  impulse[300] = 50.0;  // one spike shorter than any min_burst_length
  traces.push_back(std::move(impulse));
  for (const auto& trace : traces) {
    const SegmentationResult result = segment_trace_robust(trace, 3);
    ASSERT_EQ(result.window_quality.size(), result.segments.size());
    EXPECT_TRUE(std::isfinite(result.burst_consistency));
    EXPECT_GE(result.burst_consistency, 0.0);
    EXPECT_LE(result.burst_consistency, 1.0);
    for (const double q : result.window_quality) {
      EXPECT_TRUE(std::isfinite(q));
      EXPECT_GE(q, 0.0);
      EXPECT_LE(q, 1.0);
    }
  }
}

TEST(RobustSegmentation, InconsistentBurstLengthsFlaggedDegraded) {
  // Three genuine bursts plus one over-long (merged-looking) burst: count
  // can be made to match 4, but the length spread must downgrade trust.
  std::vector<double> trace(500, 1.0);
  for (const std::size_t s : {40u, 130u, 220u}) {
    for (std::size_t i = s; i < s + 30; ++i) trace[i] = 10.0;
  }
  for (std::size_t i = 310; i < 430; ++i) trace[i] = 10.0;  // 120-sample blob
  const SegmentationResult result = segment_trace_robust(trace, 4, three_burst_config());
  ASSERT_EQ(result.segments.size(), 4u);
  EXPECT_EQ(result.status, SegmentationStatus::kDegraded);
  EXPECT_LT(result.burst_consistency, 0.75);
  // The blob's quality is the worst of the four.
  ASSERT_EQ(result.window_quality.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_GT(result.window_quality[i], result.window_quality[3]);
}

TEST(RobustSegmentation, BurstConsistencyScore) {
  std::vector<Segment> same(3);
  for (auto& s : same) {
    s.burst_begin = 0;
    s.burst_end = 30;
  }
  EXPECT_NEAR(burst_length_consistency(same), 1.0, 1e-12);
  EXPECT_EQ(burst_length_consistency({}), 0.0);
  std::vector<Segment> wild(2);
  wild[0].burst_begin = 0;
  wild[0].burst_end = 10;
  wild[1].burst_begin = 20;
  wild[1].burst_end = 120;
  EXPECT_LT(burst_length_consistency(wild), 0.5);
}

TEST(Poi, ClassMeansAndSosd) {
  // Class 0: flat zero; class 1: bump at index 2.
  const std::vector<double> flat = {0, 0, 0, 0};
  const std::vector<double> bump = {0, 0, 5, 0};
  std::vector<WindowView> set;
  for (int rep = 0; rep < 4; ++rep) {
    set.push_back({flat, 0});
    set.push_back({bump, 1});
  }
  const ClassMeans means = class_means(set);
  ASSERT_EQ(means.size(), 2u);
  EXPECT_NEAR(means.at(1)[2], 5.0, 1e-12);
  const auto sosd = sosd_curve(means);
  ASSERT_EQ(sosd.size(), 4u);
  EXPECT_NEAR(sosd[2], 25.0, 1e-12);
  EXPECT_NEAR(sosd[0], 0.0, 1e-12);
}

TEST(Poi, SelectRespectsSpacing) {
  const std::vector<double> sosd = {0.0, 10.0, 9.0, 8.0, 0.0, 7.0};
  const auto pois = select_pois(sosd, 3, 2);
  ASSERT_EQ(pois.size(), 3u);
  // Top pick is 1; 2 is too close; 3 is picked; 5 is picked.
  EXPECT_EQ(pois[0], 1u);
  EXPECT_EQ(pois[1], 3u);
  EXPECT_EQ(pois[2], 5u);
}

TEST(Poi, ExtractChecksLength) {
  EXPECT_THROW(extract_pois(std::vector<double>{1.0, 2.0}, {5}), std::invalid_argument);
  EXPECT_EQ(extract_pois(std::vector<double>{1.0, 2.0, 3.0}, {0, 2}),
            (std::vector<double>{1.0, 3.0}));
}

TEST(Poi, UnlabelledTraceRejected) {
  const std::vector<double> samples = {1.0};
  const std::vector<WindowView> set = {{samples, Trace::kNoLabel}};
  EXPECT_THROW(class_means(set), std::invalid_argument);
}

TEST(Templates, ClassifiesSyntheticGaussians) {
  // Three classes with distinct 2-D means, shared covariance.
  num::Xoshiro256StarStar rng(404);
  const double means[3][2] = {{0, 0}, {3, 0}, {0, 3}};
  TemplateBuilder builder(2);
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 400; ++i) {
      builder.add(c, {means[c][0] + rng.gaussian() * 0.5,
                      means[c][1] + rng.gaussian() * 0.5});
    }
  }
  const TemplateSet templates = builder.build();
  EXPECT_EQ(templates.dim(), 2u);

  int correct = 0;
  const int trials = 600;
  for (int i = 0; i < trials; ++i) {
    const int c = static_cast<int>(rng.uniform_below(3));
    const std::vector<double> obs = {means[c][0] + rng.gaussian() * 0.5,
                                     means[c][1] + rng.gaussian() * 0.5};
    if (templates.classify(obs) == c) ++correct;
  }
  EXPECT_GT(correct, trials * 95 / 100);
}

TEST(Templates, PosteriorSumsToOne) {
  num::Xoshiro256StarStar rng(7);
  TemplateBuilder builder(1);
  for (int i = 0; i < 50; ++i) {
    builder.add(0, {rng.gaussian()});
    builder.add(1, {5.0 + rng.gaussian()});
  }
  const TemplateSet templates = builder.build();
  const auto post = templates.posterior({4.8});
  EXPECT_NEAR(post[0] + post[1], 1.0, 1e-12);
  EXPECT_GT(post[1], 0.9);
}

TEST(Templates, BuilderValidation) {
  EXPECT_THROW(TemplateBuilder(0), std::invalid_argument);
  TemplateBuilder builder(2);
  builder.add(0, {1.0, 2.0});
  EXPECT_THROW(builder.add(0, {1.0}), std::invalid_argument);  // wrong dim
  EXPECT_THROW((void)builder.build(), std::runtime_error);     // one class only
  builder.add(1, {0.0, 0.0});
  EXPECT_THROW((void)builder.build(), std::runtime_error);     // classes too small
}

TEST(Templates, DegenerateCovarianceHandledByRidge) {
  // All observations identical per class: scatter is zero; the ridge keeps
  // the pooled covariance invertible.
  TemplateBuilder builder(2);
  for (int i = 0; i < 5; ++i) {
    builder.add(0, {0.0, 0.0});
    builder.add(1, {1.0, 1.0});
  }
  const TemplateSet templates = builder.build(1e-3);
  EXPECT_EQ(templates.classify({0.9, 1.1}), 1);
}

TEST(Templates, PosteriorStableAtExtremeMahalanobisDistance) {
  // Log-likelihoods at observations absurdly far from every template reach
  // magnitudes around -1e16; a naive exp(score)/sum softmax underflows to
  // 0/0 and returns NaN for every class. The max-subtracted normalization
  // must stay finite and normalized, and agree with a softmax computed
  // directly from the reference log scores.
  num::Xoshiro256StarStar rng(2026);
  TemplateBuilder builder(2);
  for (int i = 0; i < 80; ++i) {
    builder.add(-1, {-2.0 + 0.4 * rng.gaussian(), 0.4 * rng.gaussian()});
    builder.add(0, {0.4 * rng.gaussian(), 0.4 * rng.gaussian()});
    builder.add(1, {2.0 + 0.4 * rng.gaussian(), 0.4 * rng.gaussian()});
  }
  const TemplateSet templates = builder.build();
  for (const double scale : {1e3, 1e6, 1e8}) {
    const std::vector<double> obs = {scale, -scale};
    const auto post = templates.posterior(obs);
    ASSERT_EQ(post.size(), 3u);
    double sum = 0.0;
    for (const double p : post) {
      EXPECT_TRUE(std::isfinite(p)) << "scale " << scale;
      EXPECT_GE(p, 0.0);
      sum += p;
    }
    EXPECT_NEAR(sum, 1.0, 1e-12) << "scale " << scale;

    // The most likely class must also win the posterior.
    const auto scores = templates.log_scores(obs);
    EXPECT_EQ(std::max_element(post.begin(), post.end()) - post.begin(),
              std::max_element(scores.begin(), scores.end()) - scores.begin());

    // Differential anchor: explicit max-subtracted softmax over the seed
    // (reference) log scores.
    const auto ref = templates.log_scores_reference(obs);
    const double mx = *std::max_element(ref.begin(), ref.end());
    std::vector<double> expected(ref.size());
    double z = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      expected[i] = std::exp(ref[i] - mx);
      z += expected[i];
    }
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_NEAR(post[i], expected[i] / z, 1e-12) << "scale " << scale;
    }
  }
}

TEST(Classifier, SeparatesPatternsAndValidates) {
  std::vector<Trace> windows;
  num::Xoshiro256StarStar rng(11);
  for (int i = 0; i < 50; ++i) {
    Trace a;
    for (int k = 0; k < 20; ++k) a.samples.push_back(1.0 + 0.1 * rng.gaussian());
    a.label = -1;
    windows.push_back(std::move(a));
    Trace b;
    for (int k = 0; k < 20; ++k)
      b.samples.push_back((k < 10 ? 3.0 : 1.0) + 0.1 * rng.gaussian());
    b.label = 1;
    windows.push_back(std::move(b));
  }
  std::vector<WindowView> train;
  for (const Trace& t : windows) train.push_back({t.samples, t.label});
  PatternClassifier clf;
  clf.fit(train, 16);
  EXPECT_TRUE(clf.fitted());
  std::vector<double> probe(20, 1.0);
  EXPECT_EQ(clf.classify(probe), -1);
  for (int k = 0; k < 10; ++k) probe[k] = 3.0;
  EXPECT_EQ(clf.classify(probe), 1);
  EXPECT_THROW((void)clf.classify(std::vector<double>{1.0}),
               std::invalid_argument);  // too short
  PatternClassifier unfitted;
  EXPECT_THROW((void)unfitted.classify(probe), std::logic_error);
}

TEST(Confusion, PercentsAndAccuracy) {
  ConfusionMatrix cm;
  for (int i = 0; i < 8; ++i) cm.add(1, 1);
  for (int i = 0; i < 2; ++i) cm.add(1, 2);
  cm.add(0, 0);
  EXPECT_EQ(cm.total(), 11u);
  EXPECT_NEAR(cm.percent(1, 1), 80.0, 1e-12);
  EXPECT_NEAR(cm.percent(1, 2), 20.0, 1e-12);
  EXPECT_NEAR(cm.accuracy(0), 100.0, 1e-12);
  EXPECT_NEAR(cm.overall_accuracy(), 100.0 * 9 / 11, 1e-9);
  EXPECT_EQ(cm.percent(5, 5), 0.0);  // unseen truth
  EXPECT_EQ(cm.truths(), (std::vector<std::int32_t>{0, 1}));
}

TEST(Confusion, TableRendering) {
  ConfusionMatrix cm;
  cm.add(-1, -1);
  cm.add(0, 0);
  cm.add(1, -1);
  const std::string table = cm.to_table(-1, 1, -1, 1);
  EXPECT_NE(table.find("100.0"), std::string::npos);
  EXPECT_FALSE(table.empty());
}

// ---------------------------------------------------------------------------
// SCA metrics: ranks, guessing entropy, success@k.

#include "sca/metrics.hpp"

TEST(Metrics, RankOfTruth) {
  const std::vector<std::int32_t> support = {-2, -1, 1, 2};
  const std::vector<double> posterior = {0.1, 0.2, 0.6, 0.1};
  EXPECT_EQ(rank_of_truth(support, posterior, 1), 1u);
  EXPECT_EQ(rank_of_truth(support, posterior, -1), 2u);
  EXPECT_EQ(rank_of_truth(support, posterior, -2), 3u);  // tie with 2: attacker-favourable
  EXPECT_EQ(rank_of_truth(support, posterior, 99), 5u);  // not in support
  EXPECT_THROW((void)rank_of_truth(support, {0.5}, 1), std::invalid_argument);
}

TEST(Metrics, AccumulatorStatistics) {
  RankAccumulator acc;
  EXPECT_EQ(acc.guessing_entropy(), 0.0);
  for (const std::size_t r : {1u, 1u, 2u, 4u}) acc.add(r);
  EXPECT_EQ(acc.count(), 4u);
  EXPECT_NEAR(acc.guessing_entropy(), 2.0, 1e-12);
  EXPECT_NEAR(acc.success_rate_at(1), 0.5, 1e-12);
  EXPECT_NEAR(acc.success_rate_at(2), 0.75, 1e-12);
  EXPECT_NEAR(acc.success_rate_at(4), 1.0, 1e-12);
  EXPECT_THROW(acc.add(0), std::invalid_argument);
}

TEST(Alignment, JitteredCaptureStillSegments) {
  // Simulate trigger jitter: prepend a random-length quiet prefix to a real
  // capture. Because segmentation is per-trace, the attack pipeline is
  // insensitive to the global offset without any re-alignment step.
  core::CampaignConfig cfg;
  cfg.n = 16;
  core::SamplerCampaign campaign(cfg);
  const auto cap = campaign.capture(77);
  ASSERT_EQ(cap.segments.size(), 16u);

  for (const std::size_t jitter : {3u, 17u, 64u}) {
    std::vector<double> shifted(jitter, 4.0);  // idle baseline
    for (const double v : cap.trace) shifted.push_back(v);
    const auto segments = segment_trace(shifted, cfg.segmentation);
    EXPECT_EQ(segments.size(), 16u) << "jitter " << jitter;
    if (!segments.empty()) {
      EXPECT_EQ(segments[0].burst_begin, cap.segments[0].burst_begin + jitter);
    }
  }
}
