// Differential suite for the paper-scale lattice plane: the dense full-Sigma
// DBDD reference's typed exhaustion and its agreement with the lightweight
// estimator at the paper's dimensions, the maintained FlatGso vs
// compute_gso, the fast BKZ loop vs the per-position-recompute reference,
// and the CN11-style BKZ simulator vs its naive anchor.
//
// Registered under both the ASan/UBSan and TSan configs (see
// tests/CMakeLists.txt): the flat GSO buffers and the simulator's prefix
// sums are the riskiest pointer arithmetic in the analysis plane.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numbers>
#include <random>
#include <vector>

#include "lattice/bkz_sim.hpp"
#include "lattice/lattice.hpp"
#include "lwe/dbdd.hpp"
#include "lwe/dbdd_matrix.hpp"

using namespace reveal;
using lwe::DbddMatrixEstimatorReference;
using lwe::HintOutcome;

namespace {

lwe::DbddParams tight_params(std::size_t n) {
  // q tight enough that the instance is not already broken at beta = 2.
  lwe::DbddParams p;
  p.secret_dim = n;
  p.error_dim = n;
  p.q = 67.0;
  p.secret_variance = 2.0 / 3.0;
  p.error_variance = 2.25;
  return p;
}

lattice::Basis random_basis(std::mt19937_64& rng, std::size_t n, int spread,
                            int diag) {
  lattice::Basis basis(n, std::vector<std::int64_t>(n, 0));
  std::uniform_int_distribution<int> entry(-spread, spread);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) basis[i][j] = entry(rng);
    basis[i][i] += diag;
  }
  return basis;
}

}  // namespace

// ---------------------------------------------------------------------------
// Full-Sigma reference estimator.

TEST(MatrixOutcomes, ExhaustionIsTypedNotThrown) {
  lwe::DbddParams p = tight_params(3);  // ambient dim 6
  DbddMatrixEstimatorReference est(p);
  std::size_t applied = 0;
  std::vector<HintOutcome> tail;
  for (std::size_t c = 0; c < 6; ++c) {
    const HintOutcome out = est.integrate_perfect_coordinate_hints({c})[0];
    if (out == HintOutcome::kApplied) ++applied;
    tail.push_back(out);
  }
  // d - 1 = 5 coordinates can be eliminated; the sixth must be a typed
  // rejection (never a throw mid-sequence).
  EXPECT_EQ(applied, 5u);
  EXPECT_EQ(tail.back(), HintOutcome::kExhausted);
  EXPECT_EQ(est.dim(), 2u);
  // Approximate hints still integrate into the remaining coordinate.
  std::vector<double> v(6, 0.0);
  v[5] = 1.0;
  EXPECT_EQ(est.integrate_approximate_hint(v, 1.0), HintOutcome::kApplied);
}

TEST(MatrixLite, AgreesWithLightweightAtPaperDims) {
  // n = m = 1024 smoke: the full-Sigma plane and the lightweight tracker
  // must tell the same story on the paper's instance under coordinate
  // hints.
  lwe::DbddParams p;
  p.secret_dim = p.error_dim = 1024;
  p.q = 132120577.0;
  p.secret_variance = p.error_variance = 3.2 * 3.2;
  DbddMatrixEstimatorReference full(p);
  lwe::DbddEstimator lite(p);
  std::vector<std::size_t> coords;
  for (std::size_t i = 0; i < 200; ++i) coords.push_back(i);
  (void)full.integrate_perfect_coordinate_hints(coords);
  lite.integrate_perfect_error_hints(200);
  EXPECT_EQ(full.dim(), lite.dim());
  EXPECT_NEAR(full.logvol(), lite.logvol(), 1e-6 * std::fabs(lite.logvol()));
  EXPECT_NEAR(full.estimate().beta, lite.estimate().beta, 0.1);
}

// ---------------------------------------------------------------------------
// Incremental GSO: FlatGso::ensure vs compute_gso, and enumeration parity.

TEST(FlatGsoIncremental, EnsureMatchesComputeGsoAfterPerturbations) {
  std::mt19937_64 rng(31);
  for (int trial = 0; trial < 6; ++trial) {
    lattice::Basis basis = random_basis(rng, 14, 30, 90);
    lattice::FlatGso gso(basis);
    gso.ensure(basis.size() - 1, basis);
    std::uniform_int_distribution<std::size_t> row_pick(1, basis.size() - 1);
    std::uniform_int_distribution<int> mul(-3, 3);
    for (int step = 0; step < 12; ++step) {
      // Size-reduction-shaped perturbation: row k -= m * row j (j < k).
      const std::size_t k = row_pick(rng);
      const std::size_t j = k - 1;
      const int m = mul(rng);
      for (std::size_t c = 0; c < basis[k].size(); ++c)
        basis[k][c] -= m * basis[j][c];
      gso.invalidate_from(k);
      gso.ensure(basis.size() - 1, basis);
      const lattice::Gso full = lattice::compute_gso(basis);
      for (std::size_t i = 0; i < basis.size(); ++i) {
        ASSERT_EQ(gso.norms_sq(i), full.norms_sq[i]) << "row " << i;
        for (std::size_t c = 0; c < i; ++c)
          ASSERT_EQ(gso.mu(i, c), full.mu[i][c]) << i << "," << c;
      }
    }
  }
}

TEST(FlatGsoIncremental, EnumerationAgreesAcrossGsoRepresentations) {
  std::mt19937_64 rng(47);
  for (int trial = 0; trial < 5; ++trial) {
    const lattice::Basis basis = random_basis(rng, 12, 25, 70);
    const lattice::Gso full = lattice::compute_gso(basis);
    lattice::FlatGso flat(basis);
    flat.ensure(basis.size() - 1, basis);
    for (std::size_t begin = 0; begin + 2 <= basis.size(); begin += 3) {
      const std::size_t end = std::min(begin + 6, basis.size());
      const auto a = lattice::enumerate_shortest(full, begin, end);
      const auto b = lattice::enumerate_shortest(flat, begin, end);
      ASSERT_EQ(a.found, b.found);
      ASSERT_EQ(a.coefficients, b.coefficients);
      ASSERT_EQ(a.norm_sq, b.norm_sq);
    }
  }
}

TEST(BkzDifferential, FastMatchesReferenceFuzz) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 6; ++trial) {
    const std::size_t n = 10 + 4 * static_cast<std::size_t>(trial % 3);
    lattice::BkzParams params;
    params.block_size = 4 + static_cast<std::size_t>(trial % 3) * 3;
    params.max_tours = 6;
    lattice::Basis fast_basis = random_basis(rng, n, 40, 120);
    lattice::Basis ref_basis = fast_basis;
    const std::size_t fast_ins = lattice::bkz_reduce(fast_basis, params);
    const std::size_t ref_ins = lattice::bkz_reduce_reference(ref_basis, params);
    EXPECT_EQ(fast_ins, ref_ins);
    EXPECT_EQ(fast_basis, ref_basis);
  }
}

// ---------------------------------------------------------------------------
// BKZ simulator: fast vs naive anchor, and external anchors.

TEST(BkzSimDifferential, ProfilesAreBitIdentical) {
  std::mt19937_64 rng(5);
  std::uniform_real_distribution<double> noise(-0.05, 0.05);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t d = 30 + 17 * static_cast<std::size_t>(trial);
    std::vector<double> profile(d);
    const double slope = 0.004 + 0.004 * static_cast<double>(trial % 4);
    for (std::size_t i = 0; i < d; ++i)
      profile[i] =
          slope * (static_cast<double>(d) / 2 - static_cast<double>(i)) +
          noise(rng) + 1.5;
    lattice::BkzSimParams params;
    params.max_tours = 32;
    const std::size_t beta = 2 + static_cast<std::size_t>(rng() % (d - 2));
    const auto fast = lattice::simulate_bkz_profile(profile, beta, params);
    const auto ref = lattice::simulate_bkz_profile_reference(profile, beta, params);
    ASSERT_EQ(fast, ref) << "d=" << d << " beta=" << beta;
    // The rank table's crossover to the GH regime (44 | 45, 46) and its
    // all-tail extreme (beta = d: every position's rank is d - k).
    for (const std::size_t fixed : {std::size_t{2}, std::size_t{44}, std::size_t{45},
                                    std::size_t{46}, d}) {
      if (fixed > d) continue;
      ASSERT_EQ(lattice::simulate_bkz_profile(profile, fixed, params),
                lattice::simulate_bkz_profile_reference(profile, fixed, params))
          << "d=" << d << " beta=" << fixed;
    }
  }
}

TEST(BkzSimDifferential, IntersectBetaMatchesReferenceFuzz) {
  std::mt19937_64 rng(6);
  std::uniform_real_distribution<double> noise(-0.02, 0.02);
  for (int trial = 0; trial < 8; ++trial) {
    const std::size_t d = 40 + 23 * static_cast<std::size_t>(trial);
    std::vector<double> profile(d);
    const double slope = 0.004 + 0.005 * static_cast<double>(trial % 3);
    for (std::size_t i = 0; i < d; ++i)
      profile[i] =
          slope * (static_cast<double>(d) / 2 - static_cast<double>(i)) +
          noise(rng) + 2.0;
    lattice::BkzSimParams params;
    params.max_tours = 24;
    EXPECT_EQ(lattice::simulated_intersect_beta(profile, params),
              lattice::simulated_intersect_beta_reference(profile, params))
        << "d=" << d;
  }
}

TEST(BkzSimDifferential, IntersectBetaMatchesReferenceOnEstimatorProfiles) {
  // DbddEstimator profiles at q = 3329, sigma = 3.2, on both sides of the
  // GSA closed form the search starts from, at the default tour budget.
  struct Case {
    std::size_t n;
    std::size_t perfect;
  };
  const Case cases[] = {
      {64, 4}, {64, 8}, {80, 16},  // perfect hints: cliff-shaped profiles
      {384, 384},  // every error known: closed form 23.8, simulated beta 2
      {56, 0},     // closed form 2, simulated beta 16
      {1, 0},      // d = 3
      {1, 1},      // d = 2
  };
  for (const Case& c : cases) {
    lwe::DbddParams p;
    p.secret_dim = p.error_dim = c.n;
    p.q = 3329.0;
    p.secret_variance = p.error_variance = 3.2 * 3.2;
    lwe::DbddEstimator est(p);
    est.integrate_perfect_error_hints(c.perfect);
    const std::vector<double> profile = est.normalized_log_profile();
    EXPECT_EQ(lattice::simulated_intersect_beta(profile),
              lattice::simulated_intersect_beta_reference(profile))
        << "n=" << c.n << " perfect=" << c.perfect;
  }
}

TEST(BkzSimDifferential, IntersectBetaMatchesReferenceBelowTheClosedForm) {
  // Profiles with a steep tail under a flat body: the simulated beta (7 to
  // 75) sits well below the closed form, so the search gallops downwards.
  struct Case {
    std::size_t d;
    double slope, tail_slope;
    std::size_t tail;
    double top;
  };
  const Case cases[] = {
      {152, 0.0103, 0.5326, 12, 3.021}, {157, 0.0068, 0.3182, 17, 3.496},
      {139, 0.0066, 0.4223, 11, 2.707}, {120, 0.0062, 0.3353, 22, 3.782},
      {133, 0.0121, 0.1666, 25, 4.099},
  };
  lattice::BkzSimParams params;
  params.max_tours = 24;
  for (const Case& c : cases) {
    std::vector<double> profile(c.d);
    const std::size_t knee = c.d - c.tail;
    for (std::size_t i = 0; i < c.d; ++i)
      profile[i] = i < knee ? c.top - c.slope * static_cast<double>(i)
                            : c.top - c.slope * static_cast<double>(knee) -
                                  c.tail_slope * static_cast<double>(i - knee);
    EXPECT_EQ(lattice::simulated_intersect_beta(profile, params),
              lattice::simulated_intersect_beta_reference(profile, params))
        << "d=" << c.d;
  }
}

TEST(BkzSimDifferential, IntersectBetaReturnsDimensionWhenNothingSucceeds) {
  // A zero profile fails the predicate at every beta, so d = 2 and d = 3
  // both land on the "no beta succeeds" answer d.
  for (const std::size_t d : {std::size_t{2}, std::size_t{3}}) {
    const std::vector<double> profile(d, 0.0);
    EXPECT_EQ(lattice::simulated_intersect_beta(profile), static_cast<double>(d));
    EXPECT_EQ(lattice::simulated_intersect_beta_reference(profile),
              static_cast<double>(d));
  }
}

TEST(BkzSimAnchor, TracksClosedFormOnSmallInstances) {
  // Overlapping-dimension differential anchor: in regimes where the GSA
  // closed form is trustworthy, the simulator must land within a few bikz.
  for (const std::size_t n : {64u, 128u}) {
    lwe::DbddParams p;
    p.secret_dim = p.error_dim = n;
    p.q = 3329.0;
    p.secret_variance = p.error_variance = 2.25;
    const lwe::DbddEstimator est(p);
    const double closed = est.estimate().beta;
    const double sim = est.estimate_simulated().beta;
    const double sim_ref = est.estimate_simulated_reference().beta;
    EXPECT_EQ(sim, sim_ref);
    EXPECT_NEAR(sim, closed, 20.0) << "n=" << n;
  }
}

TEST(BkzSimAnchor, PaperScaleCurveIsSane) {
  // n = m = 1024, q = 132120577, sigma = 3.2 (paper section V): no hints
  // lands near the paper's 382 bikz; hints only ever lower the estimate;
  // full error knowledge breaks the instance outright.
  lwe::DbddParams p;
  p.secret_dim = p.error_dim = 1024;
  p.q = 132120577.0;
  p.secret_variance = p.error_variance = 3.2 * 3.2;

  lwe::DbddEstimator none(p);
  const double closed0 = none.estimate().beta;
  const double sim0 = none.estimate_simulated().beta;
  EXPECT_NEAR(sim0, 382.25, 30.0);  // paper Table III headline
  EXPECT_NEAR(sim0, closed0, 30.0);

  double prev = sim0;
  for (const std::size_t hints : {512u, 900u}) {
    lwe::DbddEstimator est(p);
    est.integrate_perfect_error_hints(hints);
    const double sim = est.estimate_simulated().beta;
    EXPECT_LT(sim, prev);
    EXPECT_NEAR(sim, est.estimate().beta, 10.0) << hints << " hints";
    prev = sim;
  }

  lwe::DbddEstimator full(p);
  full.integrate_perfect_error_hints(1024);
  EXPECT_LE(full.estimate_simulated().beta, 40.0);
}

TEST(BkzSimAnchor, PaperCurvesMatchTablesIIIAndIV) {
  // The simulated Tables III/IV curves at n = m = 1024, q = 132120577,
  // sigma = 3.2 (bench_lattice's paper_curves leg), value for value: a
  // simulator or search change that moves any table entry fails here.
  lwe::DbddParams p;
  p.secret_dim = p.error_dim = 1024;
  p.q = 132120577.0;
  p.secret_variance = p.error_variance = 3.2 * 3.2;
  const double sign_var = p.error_variance * (1.0 - 2.0 / std::numbers::pi);
  const std::size_t counts[] = {0, 128, 256, 512, 768, 900, 1000, 1024};
  const double full[] = {394, 326, 265, 161, 79, 36, 26, 2};
  const double sign_only[] = {394, 392, 390, 386, 382, 380, 378, 378};
  for (std::size_t i = 0; i < std::size(counts); ++i) {
    lwe::DbddEstimator full_est(p);
    full_est.integrate_perfect_error_hints(counts[i]);
    EXPECT_EQ(full_est.estimate_simulated().beta, full[i]) << counts[i] << " hints";
    lwe::DbddEstimator sign_est(p);
    sign_est.integrate_posterior_error_hints(sign_var, counts[i]);
    EXPECT_EQ(sign_est.estimate_simulated().beta, sign_only[i])
        << counts[i] << " sign-only hints";
  }
}

TEST(BkzSimAnchor, SmallDimensionActualReductionAnchor) {
  // Ground-truth anchor with generous margins: a planted near-diagonal
  // basis is easy (its profile is balanced), and actual BKZ at the block
  // size the simulator regime implies must find a vector no longer than
  // the Gaussian-heuristic ballpark of the instance.
  std::mt19937_64 rng(404);
  lattice::Basis basis = random_basis(rng, 20, 10, 40);
  long double det_proxy = 0.0;
  {
    const lattice::Gso gso = lattice::compute_gso(basis);
    for (std::size_t i = 0; i < basis.size(); ++i)
      det_proxy += 0.5L * std::log(static_cast<double>(gso.norms_sq[i]));
  }
  lattice::BkzParams params;
  params.block_size = 8;
  (void)lattice::bkz_reduce(basis, params);
  const std::vector<std::int64_t> shortest = lattice::shortest_row(basis);
  const double found_log = 0.5 * std::log(static_cast<double>(
                               lattice::norm_sq(shortest)));
  const double gh_log = lattice::log_gaussian_heuristic(
      basis.size(), static_cast<double>(det_proxy));
  EXPECT_LE(found_log, gh_log + 1.5);  // within e^1.5 of the GH radius
}
