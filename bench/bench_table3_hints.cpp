// Table III reproduction: cost of the primal attack with/without hints for
// the SEAL-128 parameter set (n = 1024, q = 132120577, sigma = 3.2),
// reported as the BKZ block size ("bikz") of the DBDD-reduced instance.
//
// Two hint-integration methodologies are shown:
//   (paper)   every measurement is integrated as a (near-)perfect hint —
//             the paper observes posterior variances "very close if not
//             equal to 0" and obtains 12.2 bikz;
//   (honest)  hints carry the *measured* posterior variance of our
//             template attack at the default acquisition noise.

#include <cstdio>

#include "bench_common.hpp"

using namespace reveal;
using namespace reveal::core;

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {});
  bench::print_header(
      "Table III",
      "Cost of attack with/without hints for SEAL-128 (bikz; bits = bikz/2.986).");

  const lwe::DbddParams params = bench::seal128_params();

  // --- row 1: attack without hints ---------------------------------------
  const lwe::SecurityEstimate baseline = lwe::estimate_lwe_security(params);
  std::printf("\n");
  bench::print_row("attack without hints (bikz)", 382.25, baseline.beta);
  bench::print_row("attack without hints (bits)", 128.0, baseline.bits);

  // --- measurements: 1024 coefficient guesses from the simulated target --
  std::printf("\ncollecting 1024 measured coefficient hints (16 captures x 64)...\n");
  CampaignConfig cfg = bench::default_campaign(64);
  SamplerCampaign campaign(cfg);
  RevealAttack attack;
  attack.train(campaign.collect_windows(600, /*seed_base=*/1));
  // 16 captures x 64 windows: the engine's estimate is over the m = 1024
  // error coordinates of `params`, one hint each.
  const bench::AttackRun run = bench::attack_campaign(attack, cfg, 40000, 1024 / cfg.n);
  std::printf("per-coefficient ML accuracy over the hint set: %.1f%%\n",
              run.diag.confusion.overall_accuracy());

  // --- row 2 (paper methodology): all measurements as perfect hints ------
  lwe::DbddEstimator paper_style(params);
  paper_style.integrate_perfect_error_hints(1024);
  const lwe::SecurityEstimate with_hints_paper = paper_style.estimate();
  std::printf("\n");
  bench::print_row("attack with hints, paper methodology (bikz)", 12.2,
                   with_hints_paper.beta);
  bench::print_row("attack with hints, paper methodology (bits)", 4.4,
                   with_hints_paper.bits);
  bench::print_note(
      "paper: measured posterior variances ~0 => all hints perfect;\n"
      "  both numbers land in 'complete break' territory (residual search\n"
      "  over a handful of candidates; see bench_toy_recovery / the\n"
      "  residual_search end-to-end demo).");

  // --- row 3 (honest calibration): measured posterior variances ----------
  const HintSummary& summary = run.result.hint_totals;
  std::printf("\n");
  std::printf("  measured hint quality: %zu perfect, %zu approximate (mean residual "
              "variance %.2f)\n",
              summary.perfect, summary.approximate, summary.mean_residual_variance);
  bench::print_row("attack with measured-variance hints (bikz)", 12.2, run.result.report.bikz);
  bench::print_row("attack with measured-variance hints (bits)", 4.4, run.result.report.bits);
  bench::print_note(
      "honest calibration keeps the positive-value ambiguity (Hamming-weight\n"
      "  collisions, cf. Table I) in the hint variances, so the residual\n"
      "  hardness stays higher than the paper's idealized 12.2 bikz; the\n"
      "  qualitative conclusion (massive security loss from one trace) holds.");
  return 0;
}
