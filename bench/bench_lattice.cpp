// Paper-scale lattice-plane regression harness: the maintained-GSO BKZ and
// the BKZ-simulator bikz estimator, each timed against its
// pre-optimization reference with identity gates, plus the n = 1024 paper
// curves.
//
// Modes:
//   * default: one full run with human-readable output;
//   * --json [--smoke]: emit BENCH_lattice.json and exit nonzero if an
//     identity gate fails (always) or a speedup gate fails (full runs
//     only; --smoke shrinks the instances below the regime where the
//     asymptotic wins show).
//
// Paper anchor (RevEAL section V): n = m = 1024, q = 132120577,
// sigma = 3.2 — the full-attack (Table III) and sign-only (Table IV)
// bikz-vs-hints curves. The paper_curves leg reproduces both end-to-end
// through the simulator fast path and records the wall clock.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "lattice/bkz_sim.hpp"
#include "lattice/lattice.hpp"
#include "lwe/dbdd.hpp"
#include "numeric/rng.hpp"

using namespace reveal;

namespace {

// Speedup floors, enforced in full (non-smoke) json runs.
constexpr double kBkzGsoGate = 1.5;             // maintained-GSO BKZ
constexpr double kSimGate = 5.0;                // bracketed beta search vs linear scan
constexpr double kCurveWallBudgetMs = 600000.0; // "minutes, not hours"

struct Timer {
  std::chrono::steady_clock::time_point t0 = std::chrono::steady_clock::now();
  [[nodiscard]] double ms() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  }
};

/// Best-of-`passes` wall time of f() in milliseconds (first call doubles as
/// warmup for the cheap, cold-start-sensitive legs).
template <typename F>
double time_best_ms(F&& f, int passes) {
  double best = std::numeric_limits<double>::infinity();
  for (int p = 0; p < passes; ++p) {
    Timer t;
    f();
    best = std::min(best, t.ms());
  }
  return best;
}

/// Best-of-passes wall times (ms) of a fast leg and its reference, their
/// passes alternating so a noisy stretch of the host lands on both legs or
/// on neither.
template <typename F, typename G>
std::pair<double, double> time_best_pair_ms(F&& fast, int fast_passes, G&& ref,
                                            int ref_passes) {
  double fast_best = std::numeric_limits<double>::infinity();
  double ref_best = std::numeric_limits<double>::infinity();
  for (int p = 0; p < std::max(fast_passes, ref_passes); ++p) {
    if (p < fast_passes) fast_best = std::min(fast_best, time_best_ms(fast, 1));
    if (p < ref_passes) ref_best = std::min(ref_best, time_best_ms(ref, 1));
  }
  return {fast_best, ref_best};
}

/// The paper's LWE instance (n = m = 1024) scaled down by `shrink`.
lwe::DbddParams paper_params(std::size_t shrink = 1) {
  lwe::DbddParams p;
  p.secret_dim = 1024 / shrink;
  p.error_dim = 1024 / shrink;
  p.q = 132120577.0;
  p.secret_variance = 3.2 * 3.2;
  p.error_variance = 3.2 * 3.2;
  return p;
}

/// Near-diagonal dense-noise basis (the DBDD-embedding shape).
lattice::Basis make_basis(std::size_t n, std::uint64_t seed) {
  num::Xoshiro256StarStar rng(seed);
  lattice::Basis basis(n, std::vector<std::int64_t>(n, 0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) basis[i][j] = rng.uniform_int(-50, 50);
    basis[i][i] += 150;
  }
  return basis;
}

int run_json_harness(bool smoke) {
  const char* out_path = "BENCH_lattice.json";

  // Process warmup: touch every code path once at toy size so the first
  // timed leg does not absorb cold-start costs (page faults, frequency
  // ramp, lazy dynamic linking).
  {
    lattice::Basis wb = make_basis(12, 3);
    lattice::BkzParams wp;
    wp.block_size = 6;
    (void)lattice::bkz_reduce(wb, wp);
    wb = make_basis(12, 3);
    (void)lattice::bkz_reduce_reference(wb, wp);
  }

  // ---- leg 1: maintained-GSO BKZ vs per-position recompute -------------
  const std::size_t bkz_n = smoke ? 18 : 34;
  lattice::BkzParams bkz_params;
  bkz_params.block_size = smoke ? 8 : 12;
  bkz_params.max_tours = 8;
  const lattice::Basis bkz_input = make_basis(bkz_n, 11);

  lattice::Basis bkz_fast_basis;
  std::size_t bkz_fast_ins = 0;
  lattice::Basis bkz_ref_basis;
  std::size_t bkz_ref_ins = 0;
  const auto [bkz_fast_ms, bkz_ref_ms] = time_best_pair_ms(
      [&] {
        bkz_fast_basis = bkz_input;
        bkz_fast_ins = lattice::bkz_reduce(bkz_fast_basis, bkz_params);
      },
      3,
      [&] {
        bkz_ref_basis = bkz_input;
        bkz_ref_ins = lattice::bkz_reduce_reference(bkz_ref_basis, bkz_params);
      },
      3);

  const double bkz_speedup = bkz_fast_ms > 0.0 ? bkz_ref_ms / bkz_fast_ms : 0.0;
  const bool bkz_identical =
      bkz_fast_basis == bkz_ref_basis && bkz_fast_ins == bkz_ref_ins;

  // ---- leg 2: BKZ-simulator beta search vs linear-scan anchor ----------
  // Overlapping-dimension anchor: moderate dim so the O(d^2)-per-tour
  // reference scan stays benchmarkable; q small enough that the intersect
  // lands mid-range.
  lwe::DbddParams sim_p;
  sim_p.secret_dim = sim_p.error_dim = smoke ? 64 : 256;
  sim_p.q = 3329.0;
  sim_p.secret_variance = sim_p.error_variance = 2.25;
  lattice::BkzSimParams sim_params;
  sim_params.max_tours = 48;
  const std::vector<double> sim_profile =
      lwe::DbddEstimator(sim_p).normalized_log_profile();

  double sim_beta_fast = 0.0;
  double sim_beta_ref = 0.0;
  const auto [sim_fast_ms, sim_ref_ms] = time_best_pair_ms(
      [&] {
        sim_beta_fast = lattice::simulated_intersect_beta(sim_profile, sim_params);
      },
      3,
      [&] {
        sim_beta_ref =
            lattice::simulated_intersect_beta_reference(sim_profile, sim_params);
      },
      smoke ? 2 : 1);

  const double sim_speedup = sim_fast_ms > 0.0 ? sim_ref_ms / sim_fast_ms : 0.0;
  const auto prof_fast = lattice::simulate_bkz_profile(
      sim_profile, static_cast<std::size_t>(sim_beta_fast), sim_params);
  const auto prof_ref = lattice::simulate_bkz_profile_reference(
      sim_profile, static_cast<std::size_t>(sim_beta_fast), sim_params);
  const bool sim_identical =
      sim_beta_fast == sim_beta_ref && prof_fast == prof_ref;

  // ---- leg 3: paper curves (Tables III/IV shape at n = 1024) -----------
  const lwe::DbddParams paper = paper_params(smoke ? 8 : 1);
  const std::vector<std::size_t> curve_counts =
      smoke ? std::vector<std::size_t>{0, 64, 128}
            : std::vector<std::size_t>{0, 128, 256, 512, 768, 900, 1000, 1024};
  // Sign-only hints: posterior replacement by the sign-conditioned
  // half-Gaussian variance sigma^2 * (1 - 2/pi) (paper Table IV).
  const double sign_var = paper.error_variance * (1.0 - 2.0 / std::numbers::pi);

  struct CurvePoint {
    std::size_t count;
    double closed_full, sim_full, closed_sign, sim_sign;
  };
  std::vector<CurvePoint> curve;
  Timer t_curve;
  for (const std::size_t c : curve_counts) {
    lwe::DbddEstimator full_est(paper);
    full_est.integrate_perfect_error_hints(c);
    lwe::DbddEstimator sign_est(paper);
    sign_est.integrate_posterior_error_hints(sign_var, c);
    curve.push_back({c, full_est.estimate().beta,
                     full_est.estimate_simulated().beta,
                     sign_est.estimate().beta,
                     sign_est.estimate_simulated().beta});
  }
  const double curve_wall_ms = t_curve.ms();

  bool curve_sane = curve_wall_ms <= kCurveWallBudgetMs;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    // More hints can only lower (or hold) the attack cost.
    curve_sane = curve_sane && curve[i].sim_full <= curve[i - 1].sim_full &&
                 curve[i].sim_sign <= curve[i - 1].sim_sign + 1e-9;
  }
  // The simulator and the GSA closed form anchor each other at zero hints.
  curve_sane =
      curve_sane && std::fabs(curve.front().sim_full - curve.front().closed_full) <= 60.0;
  // Full knowledge of every error coordinate breaks the instance outright.
  curve_sane = curve_sane && curve.back().sim_full <= 40.0;

  // ---- gates ------------------------------------------------------------
  const bool identity_ok = bkz_identical && sim_identical && curve_sane;
  const bool speedups_ok = bkz_speedup >= kBkzGsoGate && sim_speedup >= kSimGate;
  const bool passed = identity_ok && (smoke || speedups_ok);

  FILE* out = std::fopen(out_path, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"lattice\",\n  \"smoke\": %s,\n",
               smoke ? "true" : "false");
  std::fprintf(out,
               "  \"bkz_gso\": {\"n\": %zu, \"block\": %zu, \"insertions\": %zu, "
               "\"fast_ms\": %.2f, \"baseline_ms\": %.2f, \"speedup\": %.2f, "
               "\"identical\": %s},\n",
               bkz_n, bkz_params.block_size, bkz_fast_ins, bkz_fast_ms,
               bkz_ref_ms, bkz_speedup, bkz_identical ? "true" : "false");
  std::fprintf(out,
               "  \"bkz_sim\": {\"profile_dim\": %zu, \"beta\": %.2f, "
               "\"fast_ms\": %.2f, \"baseline_ms\": %.2f, \"speedup\": %.2f, "
               "\"identical\": %s},\n",
               sim_profile.size(), sim_beta_fast, sim_fast_ms, sim_ref_ms,
               sim_speedup, sim_identical ? "true" : "false");
  std::fprintf(out, "  \"paper_curves\": {\"dim\": %zu, \"wall_ms\": %.1f, "
               "\"sane\": %s, \"points\": [\n",
               lwe::DbddEstimator(paper).dim(), curve_wall_ms,
               curve_sane ? "true" : "false");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    std::fprintf(out,
                 "    {\"hints\": %zu, \"closed_full\": %.2f, \"sim_full\": %.2f, "
                 "\"closed_sign\": %.2f, \"sim_sign\": %.2f}%s\n",
                 curve[i].count, curve[i].closed_full, curve[i].sim_full,
                 curve[i].closed_sign, curve[i].sim_sign,
                 i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(out, "  ]},\n");
  std::fprintf(out,
               "  \"gates\": {\"bkz_gso_speedup_min\": %.1f, "
               "\"sim_speedup_min\": %.1f, \"enforced\": %s},\n",
               kBkzGsoGate, kSimGate, smoke ? "false" : "true");
  std::fprintf(out, "  \"passed\": %s\n}\n", passed ? "true" : "false");
  std::fclose(out);

  std::printf("bkz (n=%zu, b=%zu): fast %.1f ms  baseline %.1f ms  speedup "
              "%.2fx  identical %d\n",
              bkz_n, bkz_params.block_size, bkz_fast_ms, bkz_ref_ms,
              bkz_speedup, bkz_identical);
  std::printf("bkz sim (d=%zu): beta %.0f  fast %.1f ms  baseline %.1f ms  "
              "speedup %.2fx  identical %d\n",
              sim_profile.size(), sim_beta_fast, sim_fast_ms, sim_ref_ms,
              sim_speedup, sim_identical);
  std::printf("paper curves (dim %zu, %zu points x 2 adversaries): %.1f ms, "
              "sane %d\n",
              lwe::DbddEstimator(paper).dim(), curve.size(), curve_wall_ms,
              curve_sane);
  for (const CurvePoint& pt : curve) {
    std::printf("  hints %4zu: full closed %7.2f sim %7.2f | sign closed "
                "%7.2f sim %7.2f\n",
                pt.count, pt.closed_full, pt.sim_full, pt.closed_sign,
                pt.sim_sign);
  }

  if (!passed) {
    std::fprintf(stderr,
                 "bench_lattice: gate FAILED (identity %s, speedups %s)\n",
                 identity_ok ? "ok" : "violated",
                 speedups_ok ? "ok" : "below threshold");
    return 1;
  }
  std::printf("bench_lattice: all gates passed\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  // --json is the only mode; without it, run the full harness anyway so a
  // bare invocation is still useful.
  const bench::Cli cli(argc, argv, {{"--json"}, {"--smoke"}});
  return run_json_harness(cli.has("--smoke"));
}
