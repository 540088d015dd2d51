// Lattice reduction tests: GSO invariants, LLL properties (parameterized
// random bases), enumeration vs. brute force, and BKZ improvement.

#include <gtest/gtest.h>

#include <cmath>

#include "lattice/lattice.hpp"
#include "numeric/rng.hpp"

using namespace reveal::lattice;

namespace {

Basis random_basis(std::size_t n, std::int64_t magnitude,
                   reveal::num::Xoshiro256StarStar& rng) {
  // Triangular-dominant construction guarantees full rank.
  Basis basis(n, std::vector<std::int64_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      basis[i][j] = rng.uniform_int(-magnitude, magnitude);
    }
    basis[i][i] += 3 * magnitude;  // dominance
  }
  return basis;
}

/// Brute-force shortest nonzero vector by coefficient enumeration in
/// [-bound, bound]^n (tiny n only).
long double brute_force_shortest(const Basis& basis, std::int64_t bound) {
  const std::size_t n = basis.size();
  std::vector<std::int64_t> coeff(n, -bound);
  long double best = 1e300L;
  for (;;) {
    bool nonzero = false;
    for (const auto c : coeff) {
      if (c != 0) nonzero = true;
    }
    if (nonzero) {
      std::vector<std::int64_t> v(basis[0].size(), 0);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < v.size(); ++j) v[j] += coeff[i] * basis[i][j];
      }
      const long double ns = norm_sq(v);
      if (ns > 0 && ns < best) best = ns;
    }
    std::size_t k = 0;
    while (k < n && coeff[k] == bound) coeff[k++] = -bound;
    if (k == n) break;
    ++coeff[k];
  }
  return best;
}

}  // namespace

TEST(Gso, OrthogonalityAndNorms) {
  // b1 = (3,0), b2 = (1,2): b2* = (0,2).
  const Basis basis = {{3, 0}, {1, 2}};
  const Gso gso = compute_gso(basis);
  EXPECT_NEAR(static_cast<double>(gso.norms_sq[0]), 9.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(gso.norms_sq[1]), 4.0, 1e-9);
  EXPECT_NEAR(static_cast<double>(gso.mu[1][0]), 1.0 / 3.0, 1e-9);
}

TEST(Gso, ProductOfNormsIsDeterminantSquared) {
  // det of {{2,0},{0,5}} is 10; prod ||b*||^2 = 100.
  const Basis basis = {{2, 0}, {0, 5}};
  const Gso gso = compute_gso(basis);
  EXPECT_NEAR(static_cast<double>(gso.norms_sq[0] * gso.norms_sq[1]), 100.0, 1e-9);
}

TEST(Lll, ClassicExample) {
  // The textbook example: LLL must shorten this basis.
  Basis basis = {{1, 1, 1}, {-1, 0, 2}, {3, 5, 6}};
  lll_reduce(basis);
  EXPECT_TRUE(is_lll_reduced(basis));
  EXPECT_LE(norm_sq(shortest_row(basis)), 3.0L);
}

TEST(Lll, RejectsBadDelta) {
  Basis basis = {{1, 0}, {0, 1}};
  EXPECT_THROW(lll_reduce(basis, {0.1}), std::invalid_argument);
  EXPECT_THROW(lll_reduce(basis, {1.5}), std::invalid_argument);
}

TEST(Lll, RaggedBasisRejected) {
  Basis basis = {{1, 0}, {0}};
  EXPECT_THROW(lll_reduce(basis), std::invalid_argument);
  EXPECT_THROW(compute_gso(Basis{}), std::invalid_argument);
}

class LllProperty : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(LllProperty, OutputIsReducedAndSameLattice) {
  const auto [n, seed] = GetParam();
  reveal::num::Xoshiro256StarStar rng(seed);
  Basis basis = random_basis(n, 50, rng);
  const Gso before = compute_gso(basis);
  // Lattice volume = prod ||b*_i|| is invariant under LLL.
  long double log_vol_before = 0.0L;
  for (const auto v : before.norms_sq) log_vol_before += 0.5L * std::log(static_cast<double>(v));

  lll_reduce(basis);
  EXPECT_TRUE(is_lll_reduced(basis)) << "n=" << n << " seed=" << seed;

  const Gso after = compute_gso(basis);
  long double log_vol_after = 0.0L;
  for (const auto v : after.norms_sq) log_vol_after += 0.5L * std::log(static_cast<double>(v));
  EXPECT_NEAR(static_cast<double>(log_vol_before), static_cast<double>(log_vol_after), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomBases, LllProperty,
                         ::testing::Combine(::testing::Values(std::size_t{2}, std::size_t{4},
                                                              std::size_t{8}, std::size_t{12}),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(Enumeration, MatchesBruteForceOnTinyLattices) {
  reveal::num::Xoshiro256StarStar rng(2026);
  for (int rep = 0; rep < 10; ++rep) {
    Basis basis = random_basis(3, 6, rng);
    lll_reduce(basis);
    const Gso gso = compute_gso(basis);
    const EnumResult res = enumerate_shortest(gso, 0, basis.size(),
                                              gso.norms_sq[0] * 4.0L);
    ASSERT_TRUE(res.found);
    const long double brute = brute_force_shortest(basis, 3);
    EXPECT_NEAR(static_cast<double>(res.norm_sq), static_cast<double>(brute), 1e-6)
        << "rep " << rep;
  }
}

TEST(Enumeration, RespectsRadius) {
  const Basis basis = {{5, 0}, {0, 7}};
  const Gso gso = compute_gso(basis);
  // Radius below the shortest vector: nothing found.
  const EnumResult res = enumerate_shortest(gso, 0, 2, 24.0L);
  EXPECT_FALSE(res.found);
  // Radius 26 captures (5, 0).
  const EnumResult res2 = enumerate_shortest(gso, 0, 2, 26.0L);
  ASSERT_TRUE(res2.found);
  EXPECT_NEAR(static_cast<double>(res2.norm_sq), 25.0, 1e-9);
}

TEST(Enumeration, BadBoundsThrow) {
  const Basis basis = {{1, 0}, {0, 1}};
  const Gso gso = compute_gso(basis);
  EXPECT_THROW(enumerate_shortest(gso, 1, 1), std::invalid_argument);
  EXPECT_THROW(enumerate_shortest(gso, 0, 3), std::invalid_argument);
}

TEST(Bkz, AtLeastAsGoodAsLll) {
  reveal::num::Xoshiro256StarStar rng(31337);
  for (int rep = 0; rep < 3; ++rep) {
    Basis lll_basis = random_basis(12, 40, rng);
    Basis bkz_basis = lll_basis;
    lll_reduce(lll_basis);
    BkzParams params;
    params.block_size = 6;
    params.max_tours = 8;
    bkz_reduce(bkz_basis, params);
    EXPECT_EQ(bkz_basis.size(), lll_basis.size());  // dependency removal is clean
    EXPECT_LE(static_cast<double>(norm_sq(shortest_row(bkz_basis))),
              static_cast<double>(norm_sq(shortest_row(lll_basis))) + 1e-6);
    EXPECT_TRUE(is_lll_reduced(bkz_basis, 0.99, 1e-4));
  }
}

TEST(Bkz, FullBlockFindsShortestVector) {
  // With block_size = n, BKZ's first projected block is the whole lattice:
  // b1 becomes a shortest vector.
  reveal::num::Xoshiro256StarStar rng(5150);
  Basis basis = random_basis(6, 10, rng);
  Basis copy = basis;
  BkzParams params;
  params.block_size = 6;
  params.max_tours = 10;
  bkz_reduce(basis, params);
  const long double found = norm_sq(basis[0]);
  // Verify against enumeration over the LLL-reduced copy.
  lll_reduce(copy);
  const Gso gso = compute_gso(copy);
  const EnumResult best = enumerate_shortest(gso, 0, 6, gso.norms_sq[0] * 2.0L);
  const long double reference =
      best.found ? best.norm_sq : gso.norms_sq[0];
  EXPECT_NEAR(static_cast<double>(found), static_cast<double>(reference), 1e-6);
}

TEST(Bkz, ParameterValidation) {
  Basis basis = {{1, 0}, {0, 1}};
  BkzParams params;
  params.block_size = 1;
  EXPECT_THROW(bkz_reduce(basis, params), std::invalid_argument);
}

TEST(Lll, HermiteFactorOnQaryLattices) {
  // LLL's root Hermite factor on random q-ary lattices is ~1.02 — the
  // constant the DBDD estimator's small-beta interpolation is anchored to.
  reveal::num::Xoshiro256StarStar rng(808);
  const std::int64_t q = 1009;
  const std::size_t m = 12, k = 6, d = m;  // q-ary: [qI_k 0; A I_{m-k}]
  double sum_rhf = 0.0;
  int trials = 0;
  for (int rep = 0; rep < 5; ++rep) {
    Basis basis(d, std::vector<std::int64_t>(d, 0));
    for (std::size_t i = 0; i < k; ++i) basis[i][i] = q;
    for (std::size_t i = k; i < d; ++i) {
      for (std::size_t j = 0; j < k; ++j) basis[i][j] = rng.uniform_int(0, q - 1);
      basis[i][i] = 1;
    }
    lll_reduce(basis);
    const double shortest = std::sqrt(static_cast<double>(norm_sq(shortest_row(basis))));
    // det = q^k; rhf = (shortest / det^(1/d))^(1/d).
    const double det_root = std::pow(static_cast<double>(q),
                                     static_cast<double>(k) / static_cast<double>(d));
    const double rhf = std::pow(shortest / det_root, 1.0 / static_cast<double>(d));
    sum_rhf += rhf;
    ++trials;
  }
  const double mean_rhf = sum_rhf / trials;
  EXPECT_GT(mean_rhf, 0.95);  // can beat the GSA prediction at tiny dims
  EXPECT_LT(mean_rhf, 1.06);  // but must stay near the LLL regime
}

TEST(Bkz, QaryLatticeShortVector) {
  // BKZ on a q-ary lattice must find a vector noticeably shorter than the
  // trivial q-vectors.
  reveal::num::Xoshiro256StarStar rng(909);
  const std::int64_t q = 1009;
  const std::size_t m = 14, k = 7;
  Basis basis(m, std::vector<std::int64_t>(m, 0));
  for (std::size_t i = 0; i < k; ++i) basis[i][i] = q;
  for (std::size_t i = k; i < m; ++i) {
    for (std::size_t j = 0; j < k; ++j) basis[i][j] = rng.uniform_int(0, q - 1);
    basis[i][i] = 1;
  }
  BkzParams params;
  params.block_size = 8;
  params.max_tours = 8;
  bkz_reduce(basis, params);
  const double shortest = std::sqrt(static_cast<double>(norm_sq(shortest_row(basis))));
  EXPECT_LT(shortest, static_cast<double>(q) / 4.0);
}
