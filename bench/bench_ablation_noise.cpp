// Ablation (paper §V-B): attack quality vs. measurement noise.
//
// "Since the noise of the platform increases with the operating frequency
// of the device, we set the operating frequency to a constant 1.5 MHz.
// Attacking devices with higher clock frequency may require more advanced
// measurement equipment." — we sweep the scope-noise sigma and report how
// each stage of the attack degrades.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"

using namespace reveal;
using namespace reveal::core;

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {{"--quick"}});
  const bool quick = cli.has("--quick");
  bench::print_header(
      "Ablation: measurement noise",
      "Sign accuracy, value accuracy and hinted bikz vs. noise sigma\n"
      "(proxy for the operating-frequency discussion of paper §V-B).");

  const lwe::DbddParams params = bench::seal128_params();
  const double baseline = lwe::estimate_lwe_security(params).beta;

  std::printf("\n%10s %12s %12s %14s   (no-hint baseline: %.1f bikz)\n", "sigma",
              "sign acc %", "value acc %", "hinted bikz", baseline);

  const double sigmas[] = {0.02, 0.08, 0.15, 0.30, 0.60};
  const std::size_t profile_runs = quick ? 60 : 250;
  const std::size_t attack_runs = quick ? 8 : 16;
  for (const double sigma : sigmas) {
    CampaignConfig cfg = bench::default_campaign(64);
    cfg.leakage.noise_sigma = sigma;
    SamplerCampaign campaign(cfg);
    RevealAttack attack;
    attack.train(campaign.collect_windows(profile_runs, /*seed_base=*/1));

    const bench::AttackRun run = bench::attack_campaign(attack, cfg, 80000, attack_runs);
    // The first 1024 guesses, cycled when the run has fewer, hint the
    // paper's m = 1024 error coordinates.
    std::vector<CoefficientGuess> guesses = run.guesses();
    const std::size_t total = guesses.size();
    guesses.resize(std::min<std::size_t>(total, 1024));
    while (guesses.size() < 1024) guesses.push_back(guesses[guesses.size() % total]);

    lwe::DbddEstimator est(params);
    integrate_guess_hints(est, guesses, bench::kPaperHints);
    const double hinted = est.estimate().beta;

    std::printf("%10.2f %12.1f %12.1f %14.1f\n", sigma, run.sign_accuracy(),
                run.diag.confusion.overall_accuracy(), hinted);
  }
  std::printf("\nexpected shape: accuracy and hint strength degrade monotonically\n"
              "with noise; the sign (control-flow) leak survives far more noise\n"
              "than the value (data-flow) leak.\n");
  return 0;
}
