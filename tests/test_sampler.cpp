// Tests for the ported SEAL samplers — including the exact encoding
// convention the attack exploits (positive / q - |v| / zero).

#include <gtest/gtest.h>

#include <cmath>

#include "numeric/stats.hpp"
#include "seal/encryption_params.hpp"
#include "seal/sampler.hpp"

namespace seal = reveal::seal;

namespace {

seal::Context toy_context() { return seal::Context(seal::EncryptionParameters::toy_256()); }

}  // namespace

TEST(ClippedNormal, RejectsNegativeParameters) {
  EXPECT_THROW(seal::ClippedNormalDistribution(0.0, -1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(seal::ClippedNormalDistribution(0.0, 1.0, -1.0), std::invalid_argument);
}

TEST(ClippedNormal, SampleStatisticsMatchSigma) {
  seal::StandardRandomGenerator gen(42);
  seal::RandomToStandardAdapter engine(gen);
  seal::ClippedNormalDistribution dist(0.0, 3.19, 41.0);
  reveal::num::RunningStats stats;
  for (int i = 0; i < 100000; ++i) {
    const double v = dist(engine);
    ASSERT_LE(std::abs(v), 41.0);
    stats.add(v);
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.19, 0.05);
}

TEST(ClippedNormal, ClippingEnforced) {
  seal::StandardRandomGenerator gen(7);
  seal::RandomToStandardAdapter engine(gen);
  seal::ClippedNormalDistribution dist(0.0, 10.0, 5.0);  // aggressive clip
  for (int i = 0; i < 20000; ++i) {
    ASSERT_LE(std::abs(dist(engine)), 5.0);
  }
}

TEST(SetPolyCoeffsNormal, EncodingConvention) {
  const seal::Context ctx = toy_context();
  const std::uint64_t q = ctx.coeff_modulus().value();
  seal::StandardRandomGenerator gen(1);
  seal::Poly poly(ctx.n());
  std::vector<std::int64_t> sampled;
  seal::set_poly_coeffs_normal(poly.data(), gen, ctx, &sampled);
  ASSERT_EQ(sampled.size(), ctx.n());
  bool saw_pos = false, saw_neg = false, saw_zero = false;
  for (std::size_t i = 0; i < ctx.n(); ++i) {
    const std::int64_t v = sampled[i];
    if (v > 0) {
      EXPECT_EQ(poly[i], static_cast<std::uint64_t>(v));
      saw_pos = true;
    } else if (v < 0) {
      EXPECT_EQ(poly[i], q - static_cast<std::uint64_t>(-v));
      saw_neg = true;
    } else {
      EXPECT_EQ(poly[i], 0u);
      saw_zero = true;
    }
  }
  EXPECT_TRUE(saw_pos);
  EXPECT_TRUE(saw_neg);
  EXPECT_TRUE(saw_zero);
}

TEST(SetPolyCoeffsNormal, SampledValuesWithinClip) {
  const seal::Context ctx = toy_context();
  seal::StandardRandomGenerator gen(2);
  reveal::num::RunningStats stats;
  for (int rep = 0; rep < 40; ++rep) {
    std::vector<std::int64_t> sampled;
    (void)seal::sample_error_poly(gen, ctx, &sampled);
    for (const std::int64_t v : sampled) {
      ASSERT_LE(std::llabs(v), 41);
      stats.add(static_cast<double>(v));
    }
  }
  EXPECT_NEAR(stats.mean(), 0.0, 0.1);
  EXPECT_NEAR(stats.stddev(), 3.19, 0.15);
}

TEST(PatchedSampler, SameEncodingSameDistribution) {
  const seal::Context ctx = toy_context();
  const std::uint64_t q = ctx.coeff_modulus().value();
  seal::StandardRandomGenerator gen(4);
  seal::Poly poly(ctx.n());
  std::vector<std::int64_t> sampled;
  seal::sample_poly_normal_v36(poly.data(), gen, ctx, &sampled);
  reveal::num::RunningStats stats;
  for (std::size_t i = 0; i < ctx.n(); ++i) {
    const std::int64_t v = sampled[i];
    const std::uint64_t expect =
        v > 0 ? static_cast<std::uint64_t>(v)
              : (v < 0 ? q - static_cast<std::uint64_t>(-v) : 0);
    ASSERT_EQ(poly[i], expect);
    stats.add(static_cast<double>(v));
  }
  EXPECT_NEAR(stats.stddev(), 3.19, 0.45);  // one polynomial only
}

TEST(PatchedSampler, IdenticalOutputForIdenticalSeed) {
  // Same seed => the two sampler variants consume randomness identically
  // and must produce the same values (the patch changes control flow, not
  // the distribution).
  const seal::Context ctx = toy_context();
  seal::StandardRandomGenerator g1(5), g2(5);
  seal::Poly p1(ctx.n()), p2(ctx.n());
  std::vector<std::int64_t> s1, s2;
  seal::set_poly_coeffs_normal(p1.data(), g1, ctx, &s1);
  seal::sample_poly_normal_v36(p2.data(), g2, ctx, &s2);
  EXPECT_EQ(s1, s2);
  EXPECT_EQ(p1, p2);
}

TEST(TernarySampler, UniformOverThreeValues) {
  const seal::Context ctx = toy_context();
  const std::uint64_t q = ctx.coeff_modulus().value();
  seal::StandardRandomGenerator gen(6);
  std::size_t counts[3] = {0, 0, 0};
  for (int rep = 0; rep < 50; ++rep) {
    seal::Poly p;
    seal::sample_poly_ternary(p, gen, ctx);
    for (std::size_t i = 0; i < ctx.n(); ++i) {
      const std::uint64_t v = p[i];
      if (v == 0) ++counts[0];
      else if (v == 1) ++counts[1];
      else if (v == q - 1) ++counts[2];
      else FAIL() << "non-ternary value " << v;
    }
  }
  const double total = counts[0] + counts[1] + counts[2];
  for (const std::size_t c : counts) EXPECT_NEAR(c / total, 1.0 / 3.0, 0.02);
}

TEST(UniformSampler, FullRangeCoverage) {
  const seal::Context ctx = toy_context();
  const std::uint64_t q = ctx.coeff_modulus().value();
  seal::StandardRandomGenerator gen(8);
  seal::Poly p;
  seal::sample_poly_uniform(p, gen, ctx);
  reveal::num::RunningStats stats;
  for (std::size_t i = 0; i < ctx.n(); ++i) {
    ASSERT_LT(p[i], q);
    stats.add(static_cast<double>(p[i]));
  }
  EXPECT_NEAR(stats.mean(), q / 2.0, q * 0.1);
}

TEST(EncodeNoiseValues, MatchesSamplerConvention) {
  const seal::Context ctx = toy_context();
  const std::uint64_t q = ctx.coeff_modulus().value();
  std::vector<std::int64_t> noise(ctx.n(), 0);
  noise[0] = 5;
  noise[1] = -3;
  noise[2] = 0;
  seal::Poly p;
  seal::encode_noise_values(noise, ctx, p);
  EXPECT_EQ(p[0], 5u);
  EXPECT_EQ(p[1], q - 3);
  EXPECT_EQ(p[2], 0u);
  std::vector<std::int64_t> wrong(ctx.n() + 1, 0);
  EXPECT_THROW(seal::encode_noise_values(wrong, ctx, p), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// CDT sampler suite (the related-work samplers, refs [10]/[12]).

#include "numeric/distributions.hpp"
#include "numeric/rng.hpp"
#include "seal/dgauss.hpp"

TEST(CdtSampler, TableIsMonotoneAndComplete) {
  const seal::CdtSampler cdt(3.19, 41.0);
  const auto& table = cdt.table();
  ASSERT_EQ(table.size(), cdt.support().size());
  ASSERT_EQ(cdt.support().front(), -41);
  ASSERT_EQ(cdt.support().back(), 41);
  for (std::size_t i = 1; i < table.size(); ++i) EXPECT_GE(table[i], table[i - 1]);
  EXPECT_EQ(table.back(), ~std::uint64_t{0});
}

TEST(CdtSampler, DistributionMatchesPmf) {
  const seal::CdtSampler cdt(3.19, 41.0);
  reveal::num::Xoshiro256StarStar rng(606);
  std::map<int, std::size_t> counts;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) ++counts[cdt.sample(rng)];
  for (int k = -5; k <= 5; ++k) {
    const double expect = reveal::num::rounded_clipped_normal_pmf(k, 3.19, 41.0);
    const double got = static_cast<double>(counts[k]) / kDraws;
    EXPECT_NEAR(got, expect, 0.004) << k;
  }
}

TEST(CdtSampler, ConstantTimeVariantSameDistribution) {
  const seal::CdtSampler cdt(3.19, 41.0);
  // Identical random words must give identical outputs for both variants.
  reveal::num::Xoshiro256StarStar r1(77), r2(77);
  for (int i = 0; i < 5000; ++i) {
    ASSERT_EQ(cdt.sample(r1), cdt.sample_constant_time(r2));
  }
}

TEST(CdtSampler, BoundsRespected) {
  const seal::CdtSampler cdt(1.0, 4.0);
  reveal::num::Xoshiro256StarStar rng(11);
  for (int i = 0; i < 20000; ++i) {
    const int v = cdt.sample(rng);
    ASSERT_GE(v, -4);
    ASSERT_LE(v, 4);
  }
}

TEST(CdtSampler, ParameterValidation) {
  EXPECT_THROW(seal::CdtSampler(0.0, 41.0), std::invalid_argument);
  EXPECT_THROW(seal::CdtSampler(3.19, -1.0), std::invalid_argument);
}
