#include "lattice/bkz_sim.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace reveal::lattice {

namespace {

constexpr double kTwoPiE = 2.0 * std::numbers::pi * std::numbers::e;
constexpr double kSmallBeta = 2.0;
constexpr double kSmallBetaDelta = 1.0219;  // experimental rhf of LLL-ish reduction
constexpr double kFormulaFloor = 36.0;
/// Below this block rank the Gaussian heuristic overstates reduction power
/// (tiny blocks "win" far too much per tour and flatten the profile); the
/// simulator switches to the root-Hermite model there. 45 is the CN11
/// choice of where GH behaviour sets in.
constexpr std::size_t kGhMinRank = 45;
/// First upward step of the bracket search: the simulated beta sits a few
/// bikz above the closed form on smooth profiles.
constexpr std::size_t kFirstStepUp = 8;

double delta_formula(double beta) {
  return std::pow(std::pow(std::numbers::pi * beta, 1.0 / beta) * beta / kTwoPiE,
                  1.0 / (2.0 * (beta - 1.0)));
}

/// The rank-only part of log_block_head: lgamma(b/2+1) in the GH regime,
/// (b-1)*ln(delta(b)) below it.
double rank_constant(std::size_t b) {
  const double bd = static_cast<double>(b);
  if (b >= kGhMinRank) return std::lgamma(0.5 * bd + 1.0);
  return (bd - 1.0) * std::log(root_hermite_delta(bd));
}

/// log_block_head from its rank constant. The one place the update is
/// written, so the tabulated and the per-call paths round alike.
double head_from_constant(std::size_t b, double c, double log_vol) {
  const double bd = static_cast<double>(b);
  if (b >= kGhMinRank) return (c + log_vol) / bd - 0.5 * std::log(std::numbers::pi);
  // Halving is exact, so rank 2 (every body position of the beta = 2
  // simulation each search starts with) keeps the divider off its chain.
  if (b == 2) return c + log_vol * 0.5;
  return c + log_vol / bd;
}

bool intersect_success(const std::vector<double>& sim, std::size_t beta) {
  return 0.5 * std::log(static_cast<double>(beta)) <= sim[sim.size() - beta];
}

}  // namespace

double root_hermite_delta(double beta) {
  if (beta < kSmallBeta) beta = kSmallBeta;
  if (beta >= kFormulaFloor) return delta_formula(beta);
  // Log-linear interpolation between (2, 1.0219) and (36, formula(36)).
  const double lo = std::log(kSmallBetaDelta);
  const double hi = std::log(delta_formula(kFormulaFloor));
  const double t = (beta - kSmallBeta) / (kFormulaFloor - kSmallBeta);
  return std::exp(lo + t * (hi - lo));
}

double gsa_intersect_beta(std::size_t dim, double logvol) {
  const auto d = static_cast<double>(dim);
  // f(beta) >= 0 iff BKZ-beta succeeds:
  //   f = (2*beta - d - 1)*ln(delta) + logvol/d - 0.5*ln(beta)
  const auto f = [d, logvol](double beta) {
    return (2.0 * beta - d - 1.0) * std::log(root_hermite_delta(beta)) +
           logvol / d - 0.5 * std::log(beta);
  };
  double lo = kSmallBeta;
  double hi = d;
  if (f(lo) >= 0.0) return lo;  // complete break: even (near-)LLL succeeds
  if (f(hi) < 0.0) return hi;   // beyond full enumeration of the instance
  for (int iter = 0; iter < 200 && hi - lo > 1e-3; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (f(mid) >= 0.0) hi = mid;
    else lo = mid;
  }
  return 0.5 * (lo + hi);
}

double log_gaussian_heuristic(std::size_t b, double log_vol) {
  const double bd = static_cast<double>(b);
  return (std::lgamma(0.5 * bd + 1.0) + log_vol) / bd -
         0.5 * std::log(std::numbers::pi);
}

double log_block_head(std::size_t b, double log_vol) {
  return head_from_constant(b, rank_constant(b), log_vol);
}

std::vector<double> simulate_bkz_profile(std::vector<double> l, std::size_t beta,
                                         const BkzSimParams& params) {
  const std::size_t d = l.size();
  if (d == 0) throw std::invalid_argument("bkz_sim: empty profile");
  if (beta < 2 || d < 2) return l;

  // Every block rank a tour meets: beta in the body, d - k in the tail.
  const std::size_t max_rank = std::min(beta, d);
  std::vector<double> constant(max_rank + 1, 0.0);
  for (std::size_t b = 2; b <= max_rank; ++b) constant[b] = rank_constant(b);

  // prefix[j] = l[0] + ... + l[j-1] of the current profile, summed in index
  // order as the reference does.
  std::vector<double> prefix(d + 1, 0.0);
  for (std::size_t j = 0; j < d; ++j) prefix[j + 1] = prefix[j] + l[j];

  for (std::size_t tour = 0; tour < params.max_tours; ++tour) {
    // Untouched head (CN11's phi): positions keep their value until the
    // first one improves, so the new prefix there is the old one and the
    // block volumes carry no dependence from one position to the next.
    std::size_t k = 0;
    for (; k + 1 < d; ++k) {
      const std::size_t b = std::min(beta, d - k);
      if (head_from_constant(b, constant[b], prefix[k + b] - prefix[k]) < l[k]) break;
    }
    // From the first improved position on, every position takes its block
    // head (the last one the exact remainder). Positions are updated in
    // place, and prefix[k + 1] becomes the new prefix sum: later positions
    // read only prefix entries above it.
    double new_acc = prefix[k];
    double max_delta = 0.0;
    for (; k < d; ++k) {
      const std::size_t b = std::min(beta, d - k);
      const double log_vol = prefix[k + b] - new_acc;
      const double val = b == 1 ? log_vol : head_from_constant(b, constant[b], log_vol);
      max_delta = std::max(max_delta, std::fabs(val - l[k]));
      l[k] = val;
      new_acc += val;
      prefix[k + 1] = new_acc;
    }
    if (max_delta <= params.convergence) break;
  }
  return l;
}

std::vector<double> simulate_bkz_profile_reference(std::vector<double> l,
                                                   std::size_t beta,
                                                   const BkzSimParams& params) {
  const std::size_t d = l.size();
  if (d == 0) throw std::invalid_argument("bkz_sim: empty profile");
  if (beta < 2 || d < 2) return l;

  std::vector<double> next(d, 0.0);
  for (std::size_t tour = 0; tour < params.max_tours; ++tour) {
    bool untouched = true;  // CN11's phi: no position improved yet this tour
    double max_delta = 0.0;
    for (std::size_t k = 0; k < d; ++k) {
      const std::size_t b = std::min(beta, d - k);
      // Volume of the projected block [k, k+b): what the first k+b old
      // positions held, minus what the already-fixed new prefix consumed.
      double po = 0.0;
      for (std::size_t j = 0; j < k + b; ++j) po += l[j];
      double pn = 0.0;
      for (std::size_t j = 0; j < k; ++j) pn += next[j];
      const double log_vol = po - pn;
      double val;
      if (b == 1) {
        val = log_vol;  // last position absorbs the exact remainder
      } else {
        const double g = log_block_head(b, log_vol);
        if (untouched) {
          if (g < l[k]) {
            val = g;
            untouched = false;
          } else {
            val = l[k];
          }
        } else {
          val = g;
        }
      }
      max_delta = std::max(max_delta, std::fabs(val - l[k]));
      next[k] = val;
    }
    l.swap(next);
    if (max_delta <= params.convergence) break;
  }
  return l;
}

double simulated_intersect_beta(const std::vector<double>& log_profile,
                                const BkzSimParams& params) {
  const std::size_t d = log_profile.size();
  if (d < 2)
    throw std::invalid_argument("simulated_intersect_beta: profile too small");
  const auto pred = [&](std::size_t beta) {
    return intersect_success(simulate_bkz_profile(log_profile, beta, params), beta);
  };
  if (pred(2) || d == 2) return 2.0;

  // Bracket the boundary around the GSA closed form of the same volume,
  // galloping outwards with doubling steps until pred(lo) fails and
  // pred(hi) holds. pred(2) is already known to fail.
  double logvol = 0.0;
  for (const double x : log_profile) logvol += x;
  std::size_t probe = std::clamp(
      static_cast<std::size_t>(gsa_intersect_beta(d, logvol)), std::size_t{3}, d);
  std::size_t lo = 2;      // pred(lo) fails
  std::size_t hi = probe;  // pred(hi) holds once the gallop ends
  if (pred(probe)) {
    for (std::size_t step = 1; hi - lo > 1; step *= 2) {
      probe = hi - std::min(step, hi - lo - 1);
      if (!pred(probe)) {
        lo = probe;
        break;
      }
      hi = probe;
    }
  } else {
    lo = probe;
    for (std::size_t step = kFirstStepUp;; step *= 2) {
      if (lo == d) return static_cast<double>(d);  // no beta succeeds
      hi = std::min(lo + step, d);
      if (pred(hi)) break;
      lo = hi;
    }
  }
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (pred(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return static_cast<double>(hi);
}

double simulated_intersect_beta_reference(const std::vector<double>& log_profile,
                                          const BkzSimParams& params) {
  const std::size_t d = log_profile.size();
  if (d < 2)
    throw std::invalid_argument("simulated_intersect_beta: profile too small");
  for (std::size_t beta = 2; beta <= d; ++beta) {
    if (intersect_success(simulate_bkz_profile_reference(log_profile, beta, params),
                          beta))
      return static_cast<double>(beta);
  }
  return static_cast<double>(d);
}

}  // namespace reveal::lattice
