// Unit tests for the numeric substrate: RNG, matrices, statistics and
// distribution helpers.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>
#include <vector>

#include "numeric/bits.hpp"
#include "numeric/distributions.hpp"
#include "numeric/matrix.hpp"
#include "numeric/rng.hpp"
#include "numeric/stats.hpp"

namespace num = reveal::num;

TEST(Bits, HammingWeight) {
  EXPECT_EQ(num::hamming_weight(std::uint32_t{0}), 0);
  EXPECT_EQ(num::hamming_weight(std::uint32_t{1}), 1);
  EXPECT_EQ(num::hamming_weight(std::uint32_t{0xFFFFFFFFu}), 32);
  EXPECT_EQ(num::hamming_weight(std::uint64_t{0xFFFFFFFFFFFFFFFFull}), 64);
  EXPECT_EQ(num::hamming_weight(std::uint32_t{0b1011}), 3);
}

TEST(Bits, HammingDistance) {
  EXPECT_EQ(num::hamming_distance(std::uint32_t{0}, std::uint32_t{0}), 0);
  EXPECT_EQ(num::hamming_distance(std::uint32_t{0b1100}, std::uint32_t{0b1010}), 2);
  EXPECT_EQ(num::hamming_distance(std::uint32_t{0}, ~std::uint32_t{0}), 32);
}

TEST(Rng, DeterministicPerSeed) {
  num::Xoshiro256StarStar a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
  bool differs = false;
  num::Xoshiro256StarStar a2(42);
  for (int i = 0; i < 100; ++i) {
    if (a2() != c()) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformBelowRespectsBound) {
  num::Xoshiro256StarStar rng(1);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_below(17), 17u);
  }
  EXPECT_EQ(rng.uniform_below(1), 0u);
}

TEST(Rng, UniformIntCoversRange) {
  num::Xoshiro256StarStar rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const std::int64_t v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  num::Xoshiro256StarStar rng(5);
  double sum = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double u = rng.uniform_double();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kDraws, 0.5, 0.01);
}

TEST(Rng, GaussianMoments) {
  num::Xoshiro256StarStar rng(11);
  num::RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian(2.0, 3.0));
  EXPECT_NEAR(stats.mean(), 2.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 3.0, 0.05);
}

TEST(Rng, GaussianMatchesStandardNormal) {
  // Per seed, N = 1M ziggurat draws against the exact normal: the
  // Kolmogorov-Smirnov statistic at alpha = 0.01, skew and excess kurtosis
  // at about five standard errors (mean and variance: GaussianMoments), and
  // the two-sided tail mass beyond the ziggurat's tail edge r = 3.654 (the
  // out-of-line tail sampler) and beyond 4 within four binomial standard
  // deviations.
  constexpr std::size_t kN = 1'000'000;
  const double n = static_cast<double>(kN);
  for (const std::uint64_t seed : {1ull, 2ull, 20261017ull}) {
    num::Xoshiro256StarStar rng(seed);
    std::vector<double> x(kN);
    double m3 = 0.0, m4 = 0.0;
    std::size_t beyond_r = 0, beyond_4 = 0;
    for (double& v : x) {
      v = rng.gaussian();
      const double v2 = v * v;
      m3 += v2 * v;
      m4 += v2 * v2;
      beyond_r += std::abs(v) > 3.6541528853610088;
      beyond_4 += std::abs(v) > 4.0;
    }
    EXPECT_NEAR(m3 / n, 0.0, 5.0 * std::sqrt(15.0 / n)) << seed;
    EXPECT_NEAR(m4 / n - 3.0, 0.0, 5.0 * std::sqrt(96.0 / n)) << seed;

    for (const auto& [edge, count] : {std::pair{3.6541528853610088, beyond_r},
                                      std::pair{4.0, beyond_4}}) {
      const double p = std::erfc(edge / std::sqrt(2.0));
      EXPECT_NEAR(static_cast<double>(count), n * p, 4.0 * std::sqrt(n * p * (1.0 - p)))
          << "seed " << seed << " edge " << edge;
    }

    std::sort(x.begin(), x.end());
    double d = 0.0;
    for (std::size_t i = 0; i < kN; ++i) {
      const double cdf = num::normal_cdf(x[i]);
      d = std::max({d, static_cast<double>(i + 1) / n - cdf, cdf - static_cast<double>(i) / n});
    }
    EXPECT_LT(std::sqrt(n) * d, 1.63) << seed;
  }
}

TEST(Rng, GaussianStreamIsPinned) {
  // The measurement-noise kernel's output for one seed, bit for bit: a
  // change here moves every capture, every golden fixture and every
  // checkpoint (bump the checkpoint format with it).
  constexpr double kExpected[] = {
      -0x1.b93c3f928ef7ap-3, 0x1.2c8cd6d008acep-1,  -0x1.c978a68362547p-1,
      0x1.37064cee8dd3dp+0,  0x1.b7b487499e927p+0,  0x1.9e7f1b2747d3p+0,
      -0x1.b8dda3d900f8cp-1, 0x1.43d0e95e533bp+0,   0x1.2de7621c8bf97p+0,
      0x1.32c153d93c17bp+0,  -0x1.1e470a857fe1p+0,  -0x1.00a57e28ab7f8p-1,
      0x1.df62de591627ep-1,  -0x1.4a512c63321fep-1, -0x1.6a586baaecae6p-1,
      -0x1.89419a36e23fep-2};
  num::Xoshiro256StarStar rng(42);
  for (const double expected : kExpected) EXPECT_EQ(rng.gaussian(), expected);
}

TEST(Rng, BernoulliFrequency) {
  num::Xoshiro256StarStar rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  num::Xoshiro256StarStar a(99);
  num::Xoshiro256StarStar child = a.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == child()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Matrix, IdentityAndDiagonal) {
  const auto id = num::Matrix::identity(3);
  EXPECT_EQ(id(0, 0), 1.0);
  EXPECT_EQ(id(0, 1), 0.0);
  const auto d = num::Matrix::diagonal({2.0, 5.0});
  EXPECT_EQ(d(1, 1), 5.0);
  EXPECT_EQ(d(1, 0), 0.0);
}

TEST(Matrix, MultiplyMatchesManual) {
  num::Matrix a(2, 3), b(3, 2);
  double v = 1.0;
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = v++;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 2; ++c) b(r, c) = v++;
  const num::Matrix p = a * b;
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12].
  EXPECT_EQ(p(0, 0), 1 * 7 + 2 * 9 + 3 * 11);
  EXPECT_EQ(p(1, 1), 4 * 8 + 5 * 10 + 6 * 12);
}

TEST(Matrix, ShapeMismatchThrows) {
  num::Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  num::Matrix c(2, 2);
  EXPECT_THROW(a + c, std::invalid_argument);
  EXPECT_THROW((void)a.at(5, 0), std::out_of_range);
}

TEST(Matrix, CholeskySolveRoundtrip) {
  // SPD matrix A = L0 * L0^T.
  num::Matrix a(3, 3);
  const double entries[3][3] = {{4, 2, 1}, {2, 5, 3}, {1, 3, 6}};
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = entries[r][c];
  const auto chol = num::cholesky(a);
  ASSERT_TRUE(chol.ok);
  const std::vector<double> x_true = {1.0, -2.0, 0.5};
  const std::vector<double> b = a.apply(x_true);
  const std::vector<double> x = num::cholesky_solve(chol.lower, b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(Matrix, CholeskyRejectsIndefinite) {
  num::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 5.0;
  a(1, 0) = 5.0;
  a(1, 1) = 1.0;  // indefinite
  EXPECT_FALSE(num::cholesky(a).ok);
  EXPECT_THROW(num::log_det_spd(a), std::domain_error);
}

TEST(Matrix, LogDetMatchesKnown) {
  const auto d = num::Matrix::diagonal({2.0, 3.0, 4.0});
  EXPECT_NEAR(num::log_det_spd(d), std::log(24.0), 1e-12);
}

TEST(Matrix, InvertSpd) {
  num::Matrix a(2, 2);
  a(0, 0) = 4.0;
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 3.0;
  const num::Matrix inv = num::invert_spd(a);
  const num::Matrix prod = a * inv;
  EXPECT_NEAR(prod(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(prod(0, 1), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(prod(1, 1), 1.0, 1e-12);
}

TEST(Stats, NeumaierSumTracksLongDoubleOracle) {
  // 10k heterogeneous log-volume-sized contributions: the compensated sum
  // must stay within a few ulp of a long double accumulation, where a naive
  // double sum drifts measurably.
  num::Xoshiro256StarStar rng(9);
  num::NeumaierSum sum;
  long double oracle = 0.0L;
  double naive = 0.0;
  for (int i = 0; i < 10000; ++i) {
    // Alternate large and tiny addends so low bits are actually at risk.
    const double v = (i % 2 == 0) ? rng.uniform_double() * 1e8
                                  : rng.uniform_double() * 1e-8;
    sum.add(v);
    oracle += static_cast<long double>(v);
    naive += v;
  }
  const double compensated_err =
      std::fabs(static_cast<double>(static_cast<long double>(sum.value()) - oracle));
  const double naive_err =
      std::fabs(static_cast<double>(static_cast<long double>(naive) - oracle));
  // The total is ~2.5e11, so one double ulp is ~3e-5; the compensated sum
  // must land within a few ulp while the naive sum drifts by dozens.
  EXPECT_LE(compensated_err, 1e-4);
  EXPECT_LE(compensated_err, naive_err);
}

TEST(Stats, NeumaierSumCancellation) {
  // Classic compensation demo: 1 + 1e100 - 1e100 == 1 only with the
  // correction term folded back in.
  num::NeumaierSum sum;
  sum.add(1.0);
  sum.add(1e100);
  sum.add(-1e100);
  EXPECT_EQ(sum.value(), 1.0);
  num::NeumaierSum seeded(2.5);
  seeded.add(0.5);
  EXPECT_EQ(seeded.value(), 3.0);
}

TEST(Stats, RunningMatchesBatch) {
  num::Xoshiro256StarStar rng(3);
  std::vector<double> xs;
  num::RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(1.0, 2.0);
    xs.push_back(x);
    rs.add(x);
  }
  // Two-pass batch mean and sample variance.
  double sum = 0.0;
  for (const double x : xs) sum += x;
  const double m = sum / static_cast<double>(xs.size());
  EXPECT_NEAR(rs.mean(), m, 1e-9);
  double sq = 0.0;
  for (const double x : xs) sq += (x - m) * (x - m);
  EXPECT_NEAR(rs.variance(), sq / static_cast<double>(xs.size() - 1), 1e-9);
}

TEST(Stats, RunningCovarianceMatchesManual) {
  // Perfectly correlated pair: cov = var.
  num::RunningCovariance cov(2);
  for (int i = 0; i < 10; ++i) {
    const double x = i;
    cov.add({x, 2.0 * x});
  }
  // Sample covariance scatter / (n - 1); var(i for i < 10) = 55/6.
  num::Matrix c = cov.scatter();
  c *= 1.0 / static_cast<double>(cov.count() - 1);
  EXPECT_NEAR(c(0, 0), 55.0 / 6.0, 1e-9);
  EXPECT_NEAR(c(0, 1), 2.0 * c(0, 0), 1e-9);
  EXPECT_NEAR(c(1, 1), 4.0 * c(0, 0), 1e-9);
}

TEST(Distributions, NormalPdfCdf) {
  EXPECT_NEAR(num::normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(num::normal_cdf(1.96), 0.975, 1e-3);
}

TEST(Distributions, RoundedClippedPmfSumsToOne) {
  double total = 0.0;
  for (int k = -45; k <= 45; ++k) total += num::rounded_clipped_normal_pmf(k, 3.19, 41.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  // Outside the clip: zero.
  EXPECT_EQ(num::rounded_clipped_normal_pmf(42, 3.19, 41.0), 0.0);
}

TEST(Distributions, ZeroProbabilityMatchesInterval) {
  const double p0 = num::rounded_clipped_normal_pmf(0, 3.19, 41.0);
  // P(|X| <= 0.5) for sigma = 3.19: about 0.1245.
  EXPECT_NEAR(p0, 0.1245, 0.002);
}

TEST(Distributions, PositiveTailMoments) {
  const double mean = num::positive_tail_mean(3.19, 41.0);
  const double var = num::positive_tail_variance(3.19, 41.0);
  EXPECT_GT(mean, 2.0);
  EXPECT_LT(mean, 3.5);
  EXPECT_GT(var, 2.0);
  EXPECT_LT(var, 6.0);
}

TEST(Distributions, SoftmaxPosterior) {
  const auto p = num::log_scores_to_posterior({0.0, std::log(3.0)});
  EXPECT_NEAR(p[0], 0.25, 1e-12);
  EXPECT_NEAR(p[1], 0.75, 1e-12);
  // Stability with large magnitudes.
  const auto q = num::log_scores_to_posterior({-1e6, -1e6 + std::log(2.0)});
  EXPECT_NEAR(q[1], 2.0 / 3.0, 1e-9);
}
