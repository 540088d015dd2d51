// Fault-injection harness + degradation-aware recovery pipeline tests:
// seeded fault reproducibility, robust segmentation under corruption,
// classifier abstention, quality-gated hint routing, and the guarantee
// that degraded captures never poison the estimator with wrong perfect
// hints.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/campaign_runner.hpp"
#include "core/hints.hpp"
#include "lwe/dbdd.hpp"
#include "power/fault_injector.hpp"
#include "sca/report.hpp"

using namespace reveal;
using namespace reveal::core;
using reveal::power::FaultInjector;
using reveal::power::FaultSpec;

namespace {

std::vector<double> ramp_trace(std::size_t n) {
  std::vector<double> t(n);
  for (std::size_t i = 0; i < n; ++i)
    t[i] = 4.0 + std::sin(static_cast<double>(i) * 0.1) + 0.01 * static_cast<double>(i % 7);
  return t;
}

CampaignConfig small_campaign() {
  CampaignConfig cfg;
  cfg.n = 64;
  cfg.moduli = {132120577ULL};
  return cfg;
}

/// The acceptance-criteria "moderate" fault level.
FaultSpec moderate_faults() {
  FaultSpec f;
  f.jitter_sigma = 1.0;
  f.dropout_rate = 0.05;
  f.glitch_count = 4;
  return f;
}

}  // namespace

TEST(FaultSpec, DefaultsAreInert) {
  const FaultSpec spec;
  EXPECT_FALSE(spec.any());
  EXPECT_EQ(spec.severity(), 0.0);
  const auto trace = ramp_trace(300);
  EXPECT_EQ(FaultInjector(spec).apply(trace, 123), trace);  // bit-identical
}

TEST(FaultSpec, SeverityOrdersSweepLevels) {
  FaultSpec light;
  light.jitter_sigma = 0.25;
  light.dropout_rate = 0.01;
  FaultSpec heavy = moderate_faults();
  heavy.burst_count = 2;
  EXPECT_GT(light.severity(), 0.0);
  EXPECT_GT(heavy.severity(), light.severity());
}

TEST(FaultInjector, DeterministicPerSeedPair) {
  FaultSpec spec = moderate_faults();
  spec.burst_count = 2;
  spec.drift_sigma = 0.01;
  const FaultInjector injector(spec);
  const auto trace = ramp_trace(2000);
  EXPECT_EQ(injector.apply(trace, 7), injector.apply(trace, 7));
  EXPECT_NE(injector.apply(trace, 7), injector.apply(trace, 8));
  FaultSpec other = spec;
  other.seed ^= 1;
  EXPECT_NE(FaultInjector(other).apply(trace, 7), injector.apply(trace, 7));
}

TEST(FaultInjector, DropoutHoldsPreviousSample) {
  num::Xoshiro256StarStar rng(5);
  auto trace = ramp_trace(5000);
  const auto original = trace;
  FaultInjector::drop_samples(trace, 0.10, rng);
  ASSERT_EQ(trace.size(), original.size());
  std::size_t held = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    if (trace[i] != original[i]) {
      EXPECT_EQ(trace[i], trace[i - 1]);  // sample-and-hold, not garbage
      ++held;
    }
  }
  // ~10% +/- a generous tolerance.
  EXPECT_GT(held, trace.size() / 20);
  EXPECT_LT(held, trace.size() / 5);
  EXPECT_THROW(FaultInjector::drop_samples(trace, 1.0, rng), std::invalid_argument);
}

TEST(FaultInjector, TimeWarpResamplesNearOriginalLength) {
  num::Xoshiro256StarStar rng(6);
  const auto trace = ramp_trace(4000);
  const auto warped = FaultInjector::time_warp(trace, 1.0, rng);
  // The period is clamped at 0.1 cycles, so its mean sits slightly above 1:
  // the warped length lands a little below the original, never far off.
  EXPECT_GT(warped.size(), trace.size() * 80 / 100);
  EXPECT_LT(warped.size(), trace.size() * 115 / 100);
  // Values stay within the original dynamic range (interpolation only).
  const auto [lo, hi] = std::minmax_element(trace.begin(), trace.end());
  for (const double v : warped) {
    EXPECT_GE(v, *lo - 1e-9);
    EXPECT_LE(v, *hi + 1e-9);
  }
  // Disabled jitter is the identity.
  EXPECT_EQ(FaultInjector::time_warp(trace, 0.0, rng), trace);
}

TEST(FaultInjector, GlitchesAndBurstNoisePerturbAmplitude) {
  num::Xoshiro256StarStar rng(7);
  auto trace = ramp_trace(1000);
  const auto original = trace;
  FaultInjector::add_glitches(trace, 4, 25.0, rng);
  std::size_t changed = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (trace[i] != original[i]) {
      // A sample hit twice can carry 2x the amplitude (or cancel to zero,
      // in which case it does not count as changed).
      const double delta = std::abs(trace[i] - original[i]);
      EXPECT_TRUE(std::abs(delta - 25.0) < 1e-9 || std::abs(delta - 50.0) < 1e-9);
      ++changed;
    }
  }
  EXPECT_GE(changed, 1u);
  EXPECT_LE(changed, 4u);  // collisions allowed

  auto noisy = original;
  FaultInjector::add_burst_noise(noisy, 2, 50, 1.5, rng);
  std::size_t noisy_count = 0;
  for (std::size_t i = 0; i < noisy.size(); ++i) noisy_count += noisy[i] != original[i];
  // Bursts near the end of the trace truncate, so the floor is loose.
  EXPECT_GT(noisy_count, 5u);
  EXPECT_LE(noisy_count, 100u);
}

TEST(FaultInjector, ClippingClampsToRails) {
  auto trace = ramp_trace(100);
  trace[10] = 100.0;
  trace[20] = -100.0;
  FaultInjector::clip_samples(trace, 0.0, 8.0);
  for (const double v : trace) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 8.0);
  }
  EXPECT_THROW(FaultInjector::clip_samples(trace, 3.0, 3.0), std::invalid_argument);
}

TEST(Drift, RandomWalkAccumulates) {
  // On a flat trace the samples are base + drift: the wander must be
  // visible (nonzero spread), continuous (bounded per-step increments) and
  // start at the base level, and sigma 0 must leave the trace untouched.
  num::Xoshiro256StarStar rng(42);
  std::vector<double> trace(1500, 4.0);
  FaultInjector::add_drift(trace, 0.0, rng);
  EXPECT_EQ(trace, std::vector<double>(1500, 4.0));
  FaultInjector::add_drift(trace, 0.05, rng);
  const auto [lo, hi] = std::minmax_element(trace.begin(), trace.end());
  EXPECT_GT(*hi - *lo, 0.2);
  for (std::size_t i = 1; i < trace.size(); ++i) {
    EXPECT_LT(std::abs(trace[i] - trace[i - 1]), 1.0);  // no jumps
  }
  EXPECT_NEAR(trace.front(), 4.0, 0.2);
}

TEST(FaultInjector, TriggerMisalignmentShiftsBoundedly) {
  const auto trace = ramp_trace(1000);
  bool saw_shift = false;
  for (std::uint64_t s = 0; s < 8; ++s) {
    num::Xoshiro256StarStar rng(s);
    const auto shifted = FaultInjector::misalign_trigger(trace, 40, rng);
    EXPECT_GE(shifted.size(), trace.size() - 40);
    EXPECT_LE(shifted.size(), trace.size() + 40);
    saw_shift |= shifted.size() != trace.size();
  }
  EXPECT_TRUE(saw_shift);
}

TEST(Campaign, FaultSpecThreadsThroughCapture) {
  CampaignConfig clean = small_campaign();
  CampaignConfig faulty = small_campaign();
  faulty.faults = moderate_faults();
  SamplerCampaign a(clean), b(faulty);
  const FullCapture ca = a.capture(42);
  const FullCapture cb = b.capture(42);
  EXPECT_EQ(ca.noise, cb.noise);      // same firmware run...
  EXPECT_NE(ca.trace, cb.trace);      // ...different acquisition
  // Reproducible corruption.
  SamplerCampaign b2(faulty);
  EXPECT_EQ(b2.capture(42).trace, cb.trace);
}

// ---------------------------------------------------------------------------
// Degradation-aware attack pipeline (shared trained attack, expensive).

class DegradedPipeline : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    campaign_ = new SamplerCampaign(small_campaign());
    AttackConfig cfg;
    // Robustness gates on (the seed pipeline keeps them at 0/off). The
    // margins are calibrated empirically: clean-capture sign margins stay
    // above ~0.6 while corrupted windows (jitter 1.0 / dropout 5% /
    // 4 glitches) land below ~0.27, so 0.30/0.45 separates them with a
    // safety band on both sides.
    cfg.abstain_margin = 0.30;
    cfg.low_confidence_margin = 0.45;
    cfg.value_commit_threshold = 0.05;
    // Absolute goodness-of-fit gates (chi-square-per-dimension units):
    // clean windows score ~1 with max ~1.7 (sign) / ~3.2 (value); corrupted
    // windows that fool the relative margin land far above both cutoffs.
    cfg.sign_fit_threshold = 2.5;
    cfg.value_fit_threshold = 4.0;
    attack_ = new RevealAttack(cfg);
    attack_->train(campaign_->collect_windows(/*runs=*/80, /*seed_base=*/1));
  }
  static void TearDownTestSuite() {
    delete attack_;
    delete campaign_;
    attack_ = nullptr;
    campaign_ = nullptr;
  }
  static SamplerCampaign* campaign_;
  static RevealAttack* attack_;
};

SamplerCampaign* DegradedPipeline::campaign_ = nullptr;
RevealAttack* DegradedPipeline::attack_ = nullptr;

TEST_F(DegradedPipeline, CleanCaptureStaysFullConfidence) {
  const FullCapture cap = campaign_->capture(1234);
  const RobustCaptureResult result =
      attack_->attack_capture_robust(cap.trace, 64, campaign_->config().segmentation);
  EXPECT_EQ(result.segmentation.status, sca::SegmentationStatus::kOk);
  ASSERT_EQ(result.guesses.size(), 64u);
  std::size_t ok = 0;
  for (const auto& g : result.guesses) ok += g.quality == GuessQuality::kOk;
  // Clean captures must not trip the robustness gates.
  EXPECT_GE(ok, 62u);
}

TEST_F(DegradedPipeline, ModerateFaultsCompleteWithoutThrowingOrPoisoning) {
  CampaignConfig cfg = small_campaign();
  cfg.faults = moderate_faults();
  SamplerCampaign faulty(cfg);
  std::size_t attacked = 0, wrong_perfect = 0, abstained = 0;
  for (std::uint64_t seed = 300; seed < 312; ++seed) {
    const FullCapture cap = faulty.capture(seed);
    const RobustCaptureResult result =
        attack_->attack_capture_robust(cap.trace, 64, cfg.segmentation);
    if (result.segmentation.status == sca::SegmentationStatus::kFailed) continue;
    ASSERT_EQ(result.guesses.size(), 64u);
    ++attacked;
    for (std::size_t i = 0; i < 64; ++i) {
      const auto& g = result.guesses[i];
      abstained += g.quality == GuessQuality::kAbstained;
      if (routes_as_perfect(g, HintPolicy{}) &&
          g.value != static_cast<std::int32_t>(cap.noise[i]))
        ++wrong_perfect;
    }
  }
  // Moderate faults must leave most captures attackable...
  EXPECT_GE(attacked, 6u);
  // ...and a corrupted window may cost information but never inject a
  // wrong perfect hint (the acceptance criterion of this PR).
  EXPECT_EQ(wrong_perfect, 0u);
}

TEST_F(DegradedPipeline, ShortWindowAbstainsInsteadOfThrowing) {
  const std::vector<double> stub(10, 5.0);
  const CoefficientGuess g = attack_->attack_window(stub);
  EXPECT_EQ(g.quality, GuessQuality::kAbstained);
  EXPECT_FALSE(g.sign_trusted);
  // Junk-quality windows abstain even when long enough.
  const FullCapture cap = campaign_->capture(77);
  const auto windows = windows_from_capture(cap);
  const CoefficientGuess junk = attack_->attack_window(windows[0].samples, 0.01);
  EXPECT_EQ(junk.quality, GuessQuality::kAbstained);
  EXPECT_FALSE(junk.sign_trusted);
  const CoefficientGuess suspect = attack_->attack_window(windows[0].samples, 0.4);
  EXPECT_NE(suspect.quality, GuessQuality::kOk);
}

// ---------------------------------------------------------------------------
// Hint routing.

namespace {

lwe::DbddParams seal_params() {
  lwe::DbddParams p;
  p.secret_dim = 1024;
  p.error_dim = 1024;
  p.q = 132120577.0;
  p.secret_variance = 3.2 * 3.2;
  p.error_variance = 3.2 * 3.2;
  return p;
}

CoefficientGuess make_guess(GuessQuality quality, bool sign_trusted, int sign,
                            double top_probability) {
  CoefficientGuess g;
  g.quality = quality;
  g.sign_trusted = sign_trusted;
  g.sign = sign;
  g.value = sign * 3;
  g.support = {sign * 3, sign * 4};
  g.posterior = {top_probability, 1.0 - top_probability};
  return g;
}

}  // namespace

TEST(HintRouting, QualityTiersMapToHintKinds) {
  std::vector<CoefficientGuess> guesses;
  guesses.push_back(make_guess(GuessQuality::kOk, true, 1, 1.0));          // perfect
  guesses.push_back(make_guess(GuessQuality::kOk, true, 1, 0.7));          // approximate
  guesses.push_back(make_guess(GuessQuality::kLowConfidence, true, 1, 1.0));  // inflated
  guesses.push_back(make_guess(GuessQuality::kAbstained, true, -1, 1.0));  // sign-only
  guesses.push_back(make_guess(GuessQuality::kAbstained, true, 0, 1.0));   // near-exact
  guesses.push_back(make_guess(GuessQuality::kAbstained, false, 1, 1.0));  // dropped
  // A full-confidence *zero* must not become a perfect hint: zeros carry no
  // template cross-check, so the robust policy integrates them at
  // zero_hint_variance instead (the wrong-zero failure mode under jitter).
  guesses.push_back(make_guess(GuessQuality::kOk, true, 0, 1.0));

  lwe::DbddEstimator estimator(seal_params());
  const HintPolicy policy;
  EXPECT_TRUE(routes_as_perfect(guesses[0], policy));
  EXPECT_FALSE(routes_as_perfect(guesses.back(), policy));
  const HintSummary summary = integrate_guess_hints(estimator, guesses, policy);
  EXPECT_EQ(summary.perfect, 1u);
  EXPECT_EQ(summary.approximate, 3u);
  EXPECT_EQ(summary.sign_only, 2u);
  EXPECT_EQ(summary.skipped, 1u);
  // The low-confidence guess had zero posterior variance: the inflation
  // floor must still have kept it out of the perfect bucket.
  EXPECT_GE(summary.mean_residual_variance, policy.min_inflated_variance / 2.0);
}

TEST(HintRouting, DegradedHintsCostBikzMonotonically) {
  // Same guess count, decreasing quality => non-decreasing bikz.
  const auto run = [](GuessQuality q, bool trusted) {
    lwe::DbddEstimator estimator(seal_params());
    std::vector<CoefficientGuess> guesses(
        256, make_guess(q, trusted, 1, q == GuessQuality::kOk ? 1.0 : 0.6));
    integrate_guess_hints(estimator, guesses, HintPolicy{});
    return estimator.estimate().beta;
  };
  const double perfect = run(GuessQuality::kOk, true);
  const double low = run(GuessQuality::kLowConfidence, true);
  const double sign_only = run(GuessQuality::kAbstained, true);
  const double dropped = run(GuessQuality::kAbstained, false);
  EXPECT_LT(perfect, low);
  EXPECT_LT(low, sign_only);
  EXPECT_LT(sign_only, dropped);
}

TEST(HintRouting, RecoveryReportCollatesStages) {
  // Every report field, recounted by hand from the campaign's per-capture
  // results: the guess mix from the guesses, the hint mix and the estimate
  // by routing those guesses again through integrate_guess_hints. A gated
  // attack on lightly faulted captures (bench_fault_tolerance's L1) makes
  // every guess quality and every hint kind occur.
  CampaignConfig clean;
  clean.n = 64;
  clean.num_workers = 0;
  SamplerCampaign profiler(clean);
  AttackConfig gated;
  gated.abstain_margin = 0.30;
  gated.low_confidence_margin = 0.45;
  gated.value_commit_threshold = 0.05;
  gated.sign_fit_threshold = 2.5;
  gated.value_fit_threshold = 4.0;
  RevealAttack attack(gated);
  attack.train(profiler.collect_windows(120, /*seed_base=*/1));

  CampaignConfig cfg;
  cfg.n = 64;
  cfg.faults.jitter_sigma = 0.1;
  cfg.faults.dropout_rate = 0.01;
  const std::vector<std::uint64_t> seeds = CampaignRunner::stream_seeds(31337, 8);
  const HintPolicy policy;
  CampaignRunner runner(2);
  const RecoveryCampaignResult result =
      runner.run_recovery_campaign(attack, cfg, seeds, policy, seal_params());
  ASSERT_EQ(result.captures.size(), seeds.size());

  sca::RecoveryReport expected;
  expected.expected_windows = seeds.size() * cfg.n;
  expected.segmentation_status = sca::SegmentationStatus::kOk;
  double consistency_sum = 0.0;
  lwe::DbddEstimator estimator(seal_params());
  std::size_t routed = 0;
  for (const RobustCaptureResult& capture : result.captures) {
    expected.recovered_windows += capture.segmentation.segments.size();
    expected.segmentation_attempts += capture.segmentation.attempts;
    expected.segmentation_status =
        std::max(expected.segmentation_status, capture.segmentation.status);
    consistency_sum += capture.segmentation.burst_consistency;
    for (const CoefficientGuess& g : capture.guesses) {
      expected.ok_guesses += g.quality == GuessQuality::kOk;
      expected.low_confidence_guesses += g.quality == GuessQuality::kLowConfidence;
      expected.abstained_guesses += g.quality == GuessQuality::kAbstained;
    }
    const HintSummary h = integrate_guess_hints(estimator, capture.guesses, policy);
    expected.perfect_hints += h.perfect;
    expected.approximate_hints += h.approximate;
    expected.sign_only_hints += h.sign_only;
    expected.dropped_hints += h.skipped;
    routed += capture.guesses.size();
  }
  expected.burst_consistency = consistency_sum / static_cast<double>(seeds.size());
  const lwe::SecurityEstimate estimate = estimator.estimate();
  expected.bikz = estimate.beta;
  expected.bits = estimate.bits;

  EXPECT_EQ(result.report, expected) << "campaign:\n"
                                     << result.report.to_string() << "\nby hand:\n"
                                     << expected.to_string();
  std::size_t hints = 0;
  for (const auto& records : result.hints) hints += records.size();
  EXPECT_EQ(hints, routed);  // one routed hint per guess
  EXPECT_EQ(result.hint_totals.perfect, expected.perfect_hints);
  EXPECT_EQ(result.hint_totals.approximate, expected.approximate_hints);
  EXPECT_EQ(result.hint_totals.sign_only, expected.sign_only_hints);
  EXPECT_EQ(result.hint_totals.skipped, expected.dropped_hints);

  // The recount covers every branch of the collation.
  EXPECT_GT(expected.ok_guesses, 0u);
  EXPECT_GT(expected.low_confidence_guesses, 0u);
  EXPECT_GT(expected.abstained_guesses, 0u);
  EXPECT_GT(expected.perfect_hints, 0u);
  EXPECT_GT(expected.approximate_hints, 0u);
  EXPECT_GT(expected.sign_only_hints, 0u);
  EXPECT_GT(expected.dropped_hints, 0u);
  const std::string text = result.report.to_string();
  EXPECT_NE(text.find(sca::to_string(result.report.segmentation_status)), std::string::npos);
  EXPECT_NE(text.find("sign-only"), std::string::npos);
}
