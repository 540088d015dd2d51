// TVLA (Welch t-test) and CPA tests — synthetic data with planted leakage,
// plus an end-to-end assessment of the vulnerable vs patched firmware.

#include <gtest/gtest.h>

#include <cmath>

#include "core/acquisition.hpp"
#include "numeric/bits.hpp"
#include "numeric/rng.hpp"
#include "sca/tvla.hpp"

using namespace reveal;
using namespace reveal::sca;

namespace {

/// Two populations identical except for a planted mean shift at `leak_at`.
void make_populations(TraceSet& a, TraceSet& b, std::size_t len, std::size_t leak_at,
                      double shift, std::size_t count, std::uint64_t seed) {
  num::Xoshiro256StarStar rng(seed);
  for (std::size_t k = 0; k < count; ++k) {
    Trace ta, tb;
    for (std::size_t i = 0; i < len; ++i) {
      ta.samples.push_back(rng.gaussian());
      tb.samples.push_back(rng.gaussian() + (i == leak_at ? shift : 0.0));
    }
    a.add(std::move(ta));
    b.add(std::move(tb));
  }
}

}  // namespace

TEST(Tvla, DetectsPlantedLeak) {
  TraceSet a, b;
  make_populations(a, b, 50, 17, 1.0, 500, 1);
  const TvlaReport report = tvla_assess(a, b);
  EXPECT_TRUE(report.leaks());
  EXPECT_EQ(report.max_index, 17u);
  EXPECT_GT(report.max_abs_t, 10.0);
  EXPECT_GE(report.leaking_points, 1u);
}

TEST(Tvla, PassesOnIdenticalDistributions) {
  TraceSet a, b;
  make_populations(a, b, 50, 17, /*shift=*/0.0, 500, 2);
  const TvlaReport report = tvla_assess(a, b);
  // No planted difference: |t| should stay below the threshold
  // (probability of a false positive over 50 points is tiny at 4.5 sigma).
  EXPECT_FALSE(report.leaks());
}

TEST(Tvla, TStatisticScalesWithSampleCount) {
  TraceSet a1, b1, a2, b2;
  make_populations(a1, b1, 10, 3, 0.5, 100, 3);
  make_populations(a2, b2, 10, 3, 0.5, 1600, 3);
  const double t_small = tvla_assess(a1, b1).max_abs_t;
  const double t_large = tvla_assess(a2, b2).max_abs_t;
  // t grows ~ sqrt(n): 4x samples -> ~2x statistic.
  EXPECT_GT(t_large, t_small * 1.4);
}

TEST(Tvla, InputValidation) {
  TraceSet a, b;
  a.add({{1.0, 2.0}, 0});
  b.add({{1.0, 2.0}, 0});
  EXPECT_THROW(welch_t_test(a, b), std::invalid_argument);  // < 2 traces each
  a.add({{2.0, 3.0}, 0});
  b.add({{2.0, 3.0}, 0});
  EXPECT_NO_THROW(welch_t_test(a, b));
}

TEST(Cpa, RecoversPlantedCorrelation) {
  num::Xoshiro256StarStar rng(4);
  TraceSet traces;
  std::vector<double> hypotheses;
  for (int k = 0; k < 400; ++k) {
    const double h = rng.uniform_int(0, 8);  // e.g. a Hamming weight
    Trace t;
    for (std::size_t i = 0; i < 30; ++i) {
      double v = rng.gaussian();
      if (i == 11) v += 0.4 * h;  // leaking point
      t.samples.push_back(v);
    }
    traces.add(std::move(t));
    hypotheses.push_back(h);
  }
  const auto rho = cpa_correlation(traces, hypotheses);
  const auto peaks = cpa_peaks(rho, 1);
  ASSERT_EQ(peaks.size(), 1u);
  EXPECT_EQ(peaks[0].index, 11u);
  EXPECT_GT(peaks[0].correlation, 0.5);
}

TEST(Cpa, PeaksRespectSpacing) {
  const std::vector<double> rho = {0.0, 0.9, 0.8, 0.0, 0.0, -0.7};
  const auto peaks = cpa_peaks(rho, 3, 2);
  ASSERT_EQ(peaks.size(), 2u);  // index 2 suppressed by spacing
  EXPECT_EQ(peaks[0].index, 1u);
  EXPECT_EQ(peaks[1].index, 5u);
  EXPECT_LT(peaks[1].correlation, 0.0);
}

TEST(Cpa, InputValidation) {
  TraceSet traces;
  traces.add({{1.0}, 0});
  EXPECT_THROW(cpa_correlation(traces, {1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(cpa_correlation(traces, {1.0}), std::invalid_argument);  // < 3 traces
}

TEST(TvlaIntegration, BothFirmwaresFailTvla) {
  // Populations: windows of positive vs negative coefficients. The
  // vulnerable firmware leaks through control flow AND data; the patched
  // one removes the control-flow/negation leaks but the stored value
  // (v vs q-|v|) still produces first-order leakage — exactly the
  // "different vulnerability" paper §V-A leaves for future work. TVLA
  // correctly fails both; the *attack-level* difference (sign classifier,
  // zero detection) is quantified in bench_patched_sampler.
  auto collect = [](bool patched) {
    core::CampaignConfig cfg;
    cfg.n = 64;
    cfg.firmware = patched ? core::Firmware::kPatched : core::Firmware::kSampler;
    core::SamplerCampaign campaign(cfg);
    TraceSet pos, neg;
    for (std::uint64_t seed = 1; seed <= 30; ++seed) {
      const auto cap = campaign.capture(seed);
      if (cap.segments.size() != cfg.n) continue;
      const auto windows = core::windows_from_capture(cap);
      for (std::size_t i = 0; i < windows.size(); ++i) {
        if (windows[i].samples.size() < 100) continue;
        Trace t;
        t.samples.assign(windows[i].samples.begin(), windows[i].samples.begin() + 100);
        if (cap.noise[i] > 0) pos.add(std::move(t));
        else if (cap.noise[i] < 0) neg.add(std::move(t));
      }
    }
    return tvla_assess(pos, neg);
  };

  const TvlaReport vuln = collect(false);
  const TvlaReport patched = collect(true);
  EXPECT_TRUE(vuln.leaks());
  EXPECT_GT(vuln.max_abs_t, 100.0);     // control-flow divergence: massive
  EXPECT_TRUE(patched.leaks());         // data-flow leakage survives the patch
  EXPECT_GT(patched.max_abs_t, 100.0);  // ... and is also first-order strong
}

TEST(CpaIntegration, StoreValueHammingWeightLeaks) {
  // CPA with the |coefficient| Hamming-weight hypothesis localizes the
  // leaking store in positive-coefficient windows.
  core::CampaignConfig cfg;
  cfg.n = 64;
  core::SamplerCampaign campaign(cfg);
  TraceSet traces;
  std::vector<double> hypotheses;
  for (std::uint64_t seed = 100; seed <= 140; ++seed) {
    const auto cap = campaign.capture(seed);
    if (cap.segments.size() != cfg.n) continue;
    const auto windows = core::windows_from_capture(cap);
    for (std::size_t i = 0; i < windows.size(); ++i) {
      if (cap.noise[i] <= 0 || windows[i].samples.size() < 100) continue;
      Trace t;
      t.samples.assign(windows[i].samples.begin(), windows[i].samples.begin() + 100);
      traces.add(std::move(t));
      hypotheses.push_back(static_cast<double>(
          num::hamming_weight(static_cast<std::uint32_t>(cap.noise[i]))));
    }
  }
  ASSERT_GT(traces.size(), 200u);
  const auto rho = cpa_correlation(traces, hypotheses);
  const auto peaks = cpa_peaks(rho, 3, 2);
  ASSERT_FALSE(peaks.empty());
  EXPECT_GT(std::fabs(peaks[0].correlation), 0.5);  // strong first-order leak
}

TEST(Tvla, SecondOrderDetectsVarianceLeak) {
  // Two populations with equal means everywhere but different variance at
  // one point: invisible to the first-order test, flagged by the second.
  num::Xoshiro256StarStar rng(909);
  TraceSet a, b;
  for (int k = 0; k < 1500; ++k) {
    Trace ta, tb;
    for (std::size_t i = 0; i < 20; ++i) {
      ta.samples.push_back(rng.gaussian());
      tb.samples.push_back(rng.gaussian() * (i == 7 ? 2.0 : 1.0));
    }
    a.add(std::move(ta));
    b.add(std::move(tb));
  }
  const auto t1 = welch_t_test(a, b);
  double max_t1 = 0.0;
  for (const double t : t1) max_t1 = std::max(max_t1, std::fabs(t));
  EXPECT_LT(max_t1, kTvlaThreshold + 1.0);  // first order (almost) blind

  const auto t2 = welch_t_test_second_order(a, b);
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < t2.size(); ++i) {
    if (std::fabs(t2[i]) > std::fabs(t2[argmax])) argmax = i;
  }
  EXPECT_EQ(argmax, 7u);
  EXPECT_GT(std::fabs(t2[7]), kTvlaThreshold);
}
