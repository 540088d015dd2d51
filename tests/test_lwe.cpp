// LWE instance generation, hint solving, the primal attack, and the DBDD
// security estimator (including the paper's SEAL-128 anchor point).

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "lwe/dbdd.hpp"
#include "lwe/lwe.hpp"
#include "numeric/rng.hpp"

using namespace reveal::lwe;

namespace {

std::int64_t center(std::uint64_t x, std::uint64_t q) {
  return x > q / 2 ? static_cast<std::int64_t>(x) - static_cast<std::int64_t>(q)
                   : static_cast<std::int64_t>(x);
}

/// Checks b - A s - e == 0 (mod q).
bool instance_consistent(const SampledLwe& s) {
  for (std::size_t i = 0; i < s.instance.m; ++i) {
    std::int64_t acc = 0;
    for (std::size_t j = 0; j < s.instance.n; ++j) {
      acc += center(s.instance.at(i, j), s.instance.q) * s.secret[j];
      acc %= static_cast<std::int64_t>(s.instance.q);
    }
    acc += s.error[i];
    std::int64_t b = static_cast<std::int64_t>(s.instance.b[i]);
    if (((acc - b) % static_cast<std::int64_t>(s.instance.q) + s.instance.q) %
            s.instance.q != 0)
      return false;
  }
  return true;
}

/// The paper's SEAL-128 instance as fed to the estimator: n = m = 1024,
/// q = 132120577, sigma = 3.2 for both secret and error (framework default).
DbddParams seal128_params() {
  DbddParams p;
  p.secret_dim = 1024;
  p.error_dim = 1024;
  p.q = 132120577.0;
  p.secret_variance = 3.2 * 3.2;
  p.error_variance = 3.2 * 3.2;
  return p;
}

}  // namespace

TEST(Lwe, SampledInstanceIsConsistent) {
  reveal::num::Xoshiro256StarStar rng(1);
  LweParams params;
  params.n = 10;
  params.m = 20;
  params.q = 3329;
  const SampledLwe s = sample_lwe(params, rng);
  EXPECT_TRUE(instance_consistent(s));
  for (const auto v : s.secret) EXPECT_LE(std::llabs(v), 1);  // ternary
}

TEST(Lwe, GaussianSecretVariant) {
  reveal::num::Xoshiro256StarStar rng(2);
  LweParams params;
  params.n = 16;
  params.m = 16;
  params.secret = SecretDist::kGaussian;
  params.sigma = 3.0;
  const SampledLwe s = sample_lwe(params, rng);
  EXPECT_TRUE(instance_consistent(s));
}

TEST(Lwe, KannanEmbeddingContainsPlantedVector) {
  reveal::num::Xoshiro256StarStar rng(3);
  LweParams params;
  params.n = 6;
  params.m = 10;
  params.q = 1009;
  const SampledLwe s = sample_lwe(params, rng);
  const auto basis = kannan_embedding(s.instance);
  const std::size_t d = params.m + params.n + 1;
  ASSERT_EQ(basis.size(), d);

  // Reconstruct (e | -s | 1) as an integer combination:
  // target_row - sum_j s_j * A_row_j - k_i * q_rows.
  std::vector<std::int64_t> v = basis[d - 1];
  for (std::size_t j = 0; j < params.n; ++j) {
    for (std::size_t c = 0; c < d; ++c) v[c] -= s.secret[j] * basis[params.m + j][c];
  }
  // Reduce the first m coordinates mod q toward the planted error.
  for (std::size_t i = 0; i < params.m; ++i) {
    const auto qi = static_cast<std::int64_t>(params.q);
    std::int64_t r = v[i] % qi;
    if (r > qi / 2) r -= qi;
    if (r < -qi / 2) r += qi;
    // Subtracting multiples of q rows realizes exactly this reduction.
    v[i] = r;
  }
  for (std::size_t i = 0; i < params.m; ++i) EXPECT_EQ(v[i], s.error[i]) << i;
  for (std::size_t j = 0; j < params.n; ++j) EXPECT_EQ(v[params.m + j], -s.secret[j]);
  EXPECT_EQ(v[d - 1], 1);
}

TEST(Lwe, SolveWithPerfectHintsRecoversSecret) {
  reveal::num::Xoshiro256StarStar rng(4);
  LweParams params;
  params.n = 12;
  params.m = 24;
  params.q = 3329;
  const SampledLwe s = sample_lwe(params, rng);
  std::vector<std::optional<std::int64_t>> hints(params.m);
  for (std::size_t i = 0; i < params.m; ++i) hints[i] = s.error[i];  // all known
  const auto recovered = solve_with_perfect_hints(s.instance, hints);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, s.secret);
}

TEST(Lwe, SolveWithTooFewHintsFails) {
  reveal::num::Xoshiro256StarStar rng(5);
  LweParams params;
  params.n = 12;
  params.m = 24;
  const SampledLwe s = sample_lwe(params, rng);
  std::vector<std::optional<std::int64_t>> hints(params.m);
  for (std::size_t i = 0; i < 5; ++i) hints[i] = s.error[i];  // only 5 < n
  EXPECT_FALSE(solve_with_perfect_hints(s.instance, hints).has_value());
}

TEST(Lwe, SolveRejectsCompositeModulus) {
  LweInstance inst;
  inst.n = 2;
  inst.m = 2;
  inst.q = 16;  // composite
  inst.a = {1, 2, 3, 4};
  inst.b = {0, 0};
  std::vector<std::optional<std::int64_t>> hints = {0, 0};
  EXPECT_THROW((void)solve_with_perfect_hints(inst, hints), std::invalid_argument);
}

TEST(Lwe, PrimalAttackRecoversToySecret) {
  reveal::num::Xoshiro256StarStar rng(6);
  LweParams params;
  params.n = 8;
  params.m = 16;
  params.q = 1009;
  params.sigma = 1.5;
  const SampledLwe s = sample_lwe(params, rng);
  const auto recovered = primal_attack(s.instance, /*block_size=*/10, /*max_tours=*/12);
  ASSERT_TRUE(recovered.has_value());
  EXPECT_EQ(*recovered, s.secret);
}

TEST(Dbdd, DeltaDecreasingInBeta) {
  double prev = bkz_delta(2.0);
  for (double beta = 10; beta <= 500; beta += 10) {
    const double d = bkz_delta(beta);
    EXPECT_LT(d, prev + 1e-12) << beta;
    EXPECT_GT(d, 1.0);
    prev = d;
  }
}

TEST(Dbdd, NoHintEstimateMatchesPaperAnchor) {
  // Paper Table III: attack without hints = 382.25 bikz (2^128). Our
  // GSA-intersect solver should land in the same neighbourhood.
  const SecurityEstimate est = estimate_lwe_security(seal128_params());
  EXPECT_GT(est.beta, 330.0);
  EXPECT_LT(est.beta, 440.0);
  EXPECT_NEAR(est.bits, est.beta / kBikzPerBit, 1e-9);
}

TEST(Dbdd, PerfectHintsCollapseSecurity) {
  DbddEstimator est(seal128_params());
  est.integrate_perfect_error_hints(1024);  // all of e2 known
  const SecurityEstimate with_hints = est.estimate();
  // Paper Table III: 12.2 bikz — "complete break" territory.
  EXPECT_LT(with_hints.beta, 40.0);
  EXPECT_LT(with_hints.bits, 14.0);
}

TEST(Dbdd, HintsMonotonicallyReduceBeta) {
  double prev = estimate_lwe_security(seal128_params()).beta;
  for (const std::size_t hints : {128u, 256u, 512u, 768u, 1024u}) {
    DbddEstimator est(seal128_params());
    est.integrate_perfect_error_hints(hints);
    const double beta = est.estimate().beta;
    EXPECT_LE(beta, prev + 1e-9) << hints;
    prev = beta;
  }
}

TEST(Dbdd, PosteriorHintsReduceSecurity) {
  const double baseline = estimate_lwe_security(seal128_params()).beta;
  DbddEstimator est(seal128_params());
  // Sign knowledge: variance drops from 10.24 to ~3.7.
  est.integrate_posterior_error_hints(3.7, 900);
  est.integrate_perfect_error_hints(124);  // zeros
  const double beta = est.estimate().beta;
  EXPECT_LT(beta, baseline - 50.0);
  EXPECT_GT(beta, 100.0);  // signs alone must NOT break the scheme (Table IV)
}

TEST(Dbdd, DimensionTracking) {
  DbddEstimator est(seal128_params());
  EXPECT_EQ(est.dim(), 2049u);
  est.integrate_perfect_error_hints(10);
  EXPECT_EQ(est.dim(), 2039u);
  EXPECT_EQ(est.live_error_coords(), 1014u);
}

TEST(Dbdd, ParameterValidation) {
  DbddParams bad;
  EXPECT_THROW(DbddEstimator{bad}, std::invalid_argument);
  DbddEstimator est(seal128_params());
  EXPECT_THROW(est.integrate_posterior_error_hints(0.0, 1), std::invalid_argument);
  EXPECT_THROW(est.integrate_perfect_error_hints(5000), std::logic_error);
}

TEST(Dbdd, SingleHintCallsEqualOneBatchedCall) {
  // Every posterior hint lands on its own fresh coordinate,
  // so the per-guess loops (one call per hint) integrate exactly what one
  // batched call does — down to the last bit of the estimate.
  const auto expect_same = [](const DbddEstimator& a, const DbddEstimator& b) {
    EXPECT_EQ(a.dim(), b.dim());
    EXPECT_EQ(a.logvol(), b.logvol());
    EXPECT_EQ(a.estimate().beta, b.estimate().beta);
  };
  DbddEstimator single(seal128_params());
  DbddEstimator batched(seal128_params());
  for (int i = 0; i < 500; ++i) single.integrate_posterior_error_hints(1.0, 1);
  batched.integrate_posterior_error_hints(1.0, 500);
  expect_same(single, batched);
  EXPECT_LT(single.estimate().beta, estimate_lwe_security(seal128_params()).beta - 10.0);

  // Interleaved with perfect hints (the campaign engine's mix): perfect
  // hints take fresh coordinates too, so order does not matter.
  DbddEstimator mixed(seal128_params());
  DbddEstimator grouped(seal128_params());
  for (int i = 0; i < 200; ++i) {
    mixed.integrate_posterior_error_hints(2.0, 1);
    mixed.integrate_perfect_error_hints(1);
  }
  grouped.integrate_posterior_error_hints(2.0, 200);
  grouped.integrate_perfect_error_hints(200);
  expect_same(mixed, grouped);
  EXPECT_EQ(mixed.live_error_coords(), 1024u - 200u);
}

TEST(Dbdd, PerfectHintsTakeFreshCoordinatesFirst) {
  DbddEstimator est(seal128_params());
  est.integrate_posterior_error_hints(3.0, 1000);
  est.integrate_perfect_error_hints(24);  // the 24 fresh coordinates
  EXPECT_EQ(est.live_error_coords(), 1000u);
  EXPECT_THROW(est.integrate_posterior_error_hints(3.0, 1), std::logic_error);
  // A guess on an already sign-hinted coordinate (Table IV's "1 guess").
  const double before = est.estimate().beta;
  est.integrate_perfect_error_hints(1);
  EXPECT_EQ(est.live_error_coords(), 999u);
  EXPECT_LT(est.estimate().beta, before);
  EXPECT_THROW(est.integrate_perfect_error_hints(1000), std::logic_error);
}

TEST(Dbdd, BikzToBitsConvention) {
  // Footnote 3: 382.25 bikz corresponds to 128 bits.
  EXPECT_NEAR(382.25 / kBikzPerBit, 128.0, 1e-9);
}

// ---------------------------------------------------------------------------
// Full-covariance DBDD estimator.

#include "lwe/dbdd_matrix.hpp"

namespace {
DbddParams small_params() {
  // Deliberately tight q so the toy instance is NOT already broken at
  // beta = 2 and hint effects are visible in the estimate.
  DbddParams p;
  p.secret_dim = 48;
  p.error_dim = 48;
  p.q = 67.0;
  p.secret_variance = 2.0 / 3.0;
  p.error_variance = 2.25;
  return p;
}
}  // namespace

TEST(DbddMatrix, AgreesWithLiteOnNoHints) {
  const DbddMatrixEstimatorReference full(small_params());
  const DbddEstimator lite(small_params());
  EXPECT_EQ(full.dim(), lite.dim());
  EXPECT_NEAR(full.logvol(), lite.logvol(), 1e-9);
  EXPECT_NEAR(full.estimate().beta, lite.estimate().beta, 1e-3);
}

TEST(DbddMatrix, AgreesWithLiteOnCoordinateHints) {
  DbddMatrixEstimatorReference full(small_params());
  DbddEstimator lite(small_params());
  for (std::size_t i = 0; i < 16; ++i) full.integrate_perfect_error_hint(i);
  lite.integrate_perfect_error_hints(16);
  EXPECT_EQ(full.dim(), lite.dim());
  EXPECT_NEAR(full.logvol(), lite.logvol(), 1e-6);
  EXPECT_NEAR(full.estimate().beta, lite.estimate().beta, 0.1);
}

TEST(DbddMatrix, AgreesWithLiteOnSingleHintsAtDistinctIndices) {
  // One call per hint, each on the next error coordinate of the full
  // estimator: posterior replacements as the approximate hint that
  // conditions the prior to the same variance, and perfect hints in
  // between.
  DbddMatrixEstimatorReference full(small_params());
  DbddEstimator lite(small_params());
  const double prior = small_params().error_variance;
  std::size_t next = 0;
  const auto coordinate = [&] {
    std::vector<double> v(96, 0.0);
    v[next++] = 1.0;
    return v;
  };
  for (std::size_t k = 0; k < 10; ++k) {
    const double posterior = 0.5 + 0.05 * static_cast<double>(k);
    ASSERT_EQ(full.integrate_approximate_hint(coordinate(),
                                              prior * posterior / (prior - posterior)),
              HintOutcome::kApplied);
    lite.integrate_posterior_error_hints(posterior, 1);

    if (k % 3 == 0) {
      ASSERT_EQ(full.integrate_perfect_error_hint(next++), HintOutcome::kApplied);
      lite.integrate_perfect_error_hints(1);
    }
    EXPECT_EQ(full.dim(), lite.dim());
    EXPECT_NEAR(full.logvol(), lite.logvol(), 1e-9) << k;
  }
  EXPECT_NEAR(full.estimate().beta, lite.estimate().beta, 0.1);
}

TEST(DbddMatrix, PerfectHintOnHintedCoordinateAgreesWithLite) {
  // Table IV's "+1 guess": a perfect hint that lands after the fresh
  // coordinates ran out, on a coordinate that already carries a posterior
  // hint. The lite estimator drops its last hinted coordinate (47); the
  // full estimator conditions that same coordinate away.
  DbddMatrixEstimatorReference full(small_params());
  DbddEstimator lite(small_params());
  const double prior = small_params().error_variance;
  for (std::size_t i = 0; i < 48; ++i) {
    const double posterior = 0.5 + 0.02 * static_cast<double>(i);
    std::vector<double> v(96, 0.0);
    v[i] = 1.0;
    ASSERT_EQ(full.integrate_approximate_hint(v, prior * posterior / (prior - posterior)),
              HintOutcome::kApplied);
    lite.integrate_posterior_error_hints(posterior, 1);
  }
  ASSERT_EQ(full.integrate_perfect_error_hint(47), HintOutcome::kApplied);
  lite.integrate_perfect_error_hints(1);
  EXPECT_EQ(full.dim(), lite.dim());
  EXPECT_NEAR(full.logvol(), lite.logvol(), 1e-9);
  EXPECT_EQ(full.estimate().beta, lite.estimate().beta);
}

TEST(DbddMatrix, GeneralDirectionHintsReduceBeta) {
  DbddMatrixEstimatorReference est(small_params());
  const double baseline = est.estimate().beta;
  // Aggregate hints: <e, v> with v = e_i + e_{i+1} (e.g. a leakage of the
  // SUM of two coefficients — inexpressible in the coordinate-only lite
  // estimator).
  for (std::size_t i = 0; i + 1 < 32; i += 2) {
    std::vector<double> v(96, 0.0);
    v[i] = 1.0;
    v[i + 1] = 1.0;
    est.integrate_perfect_hint(v);
  }
  EXPECT_LT(est.estimate().beta, baseline);
}

TEST(DbddMatrix, RepeatedDirectionIsDegenerate) {
  DbddMatrixEstimatorReference est(small_params());
  std::vector<double> v(96, 0.0);
  v[3] = 1.0;
  EXPECT_EQ(est.integrate_perfect_hint(v), HintOutcome::kApplied);
  const double logvol = est.logvol();
  const std::size_t dim = est.dim();
  // Regression (used to throw std::logic_error): a repeated hint sequence
  // must be survivable mid-sequence — typed rejection, state untouched.
  for (int rep = 0; rep < 3; ++rep) {
    EXPECT_EQ(est.integrate_perfect_hint(v), HintOutcome::kDegenerate);
    EXPECT_EQ(est.logvol(), logvol);
    EXPECT_EQ(est.dim(), dim);
  }
  // An approximate hint along a fully determined direction carries no
  // information either (its posterior equals the prior) — same rejection.
  EXPECT_EQ(est.integrate_approximate_hint(v, 1.0), HintOutcome::kDegenerate);
  EXPECT_EQ(est.rejected_hints(), 4u);
  // The estimator keeps working after rejections.
  std::vector<double> w(96, 0.0);
  w[5] = 1.0;
  EXPECT_EQ(est.integrate_perfect_hint(w), HintOutcome::kApplied);
}

TEST(DbddMatrix, Validation) {
  DbddParams bad;
  EXPECT_THROW(DbddMatrixEstimatorReference{bad}, std::invalid_argument);
  DbddMatrixEstimatorReference est(small_params());
  EXPECT_THROW(est.integrate_perfect_hint(std::vector<double>(3, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(est.integrate_approximate_hint(std::vector<double>(96, 1.0), 0.0),
               std::invalid_argument);
  EXPECT_THROW(est.integrate_perfect_error_hint(48), std::invalid_argument);
}
