// Table IV reproduction: cost of the attack when ONLY the branch
// vulnerability is exploited — the adversary learns the sign of every
// coefficient (and which are exactly zero) but not the values.
//
//   zero coefficients  -> perfect hints
//   signed coefficients -> posterior replacement with the one-sided
//                          (half-Gaussian) conditional variance
//   "+ guesses"        -> additionally guess the most likely value of one
//                          signed coefficient (a perfect hint that is only
//                          correct with probability ~P(v = 1 | v > 0)).

#include <cstdio>

#include "bench_common.hpp"
#include "numeric/distributions.hpp"

using namespace reveal;
using namespace reveal::core;

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {});
  bench::print_header(
      "Table IV",
      "Cost of attack with hints from ONLY the branch vulnerability\n"
      "(signs + zeros) for SEAL-128. Signs alone must NOT break the scheme.");

  const lwe::DbddParams params = bench::seal128_params();

  const lwe::SecurityEstimate baseline = lwe::estimate_lwe_security(params);
  std::printf("\n");
  bench::print_row("attack without hints (bikz)", 382.25, baseline.beta);

  // Sign/zero information measured on the simulated target (the classifier
  // is exact, so the hint counts follow the sampled distribution).
  std::printf("\ncollecting 1024 sign measurements...\n");
  CampaignConfig cfg = bench::default_campaign(64);
  SamplerCampaign campaign(cfg);
  RevealAttack attack;
  attack.train(campaign.collect_windows(150, /*seed_base=*/1));
  const bench::AttackRun run = bench::attack_campaign(attack, cfg, 60000, 1024 / cfg.n);
  const std::vector<CoefficientGuess> guesses = run.guesses();
  bench::print_row("branch (sign) success probability (%)", 100.0, run.sign_accuracy());

  lwe::DbddEstimator sign_only(params);
  const HintSummary summary = integrate_sign_only_hints(sign_only, guesses, 3.19, 41.0);
  const lwe::SecurityEstimate with_signs = sign_only.estimate();
  std::printf("\n  hint breakdown: %zu zeros (perfect), %zu signs (conditional variance "
              "%.2f)\n",
              summary.perfect, summary.approximate, summary.mean_residual_variance);
  bench::print_row("attack with sign-only hints (bikz)", 253.29, with_signs.beta);
  bench::print_row("attack with sign-only hints (bits)", 84.34, with_signs.bits);

  // "+ guesses": guess the most likely value of one signed coefficient and
  // integrate it as a perfect hint; the guess succeeds with probability
  // P(v = most-likely | sign) of the one-sided rounded Gaussian.
  lwe::DbddEstimator with_guess(params);
  integrate_sign_only_hints(with_guess, guesses, 3.19, 41.0);
  with_guess.integrate_perfect_error_hints(1);
  const lwe::SecurityEstimate with_guesses = with_guess.estimate();
  const double p1 = num::rounded_clipped_normal_pmf(1, 3.19, 41.0);
  double p_pos = 0.0;
  for (int k = 1; k <= 41; ++k) p_pos += num::rounded_clipped_normal_pmf(k, 3.19, 41.0);
  const double guess_success = p1 / p_pos;
  std::printf("\n");
  bench::print_row("attack with hints & 1 guess (bikz)", 252.83, with_guesses.beta);
  bench::print_row("number of guesses", 1.0, 1.0);
  bench::print_row("guess success probability (%)", 20.0, 100.0 * guess_success);

  std::printf("\nconclusion (paper): \"signs alone cannot recover the plaintext\n"
              "message\" — the sign-only bikz stays far above the full-hint cost\n"
              "of Table III, and so it does here: %.1f >> full-hint cost.\n",
              with_signs.beta);
  return 0;
}
