// Table II reproduction: guessing probabilities derived from selected
// measurements — one randomly chosen measurement per true value in
// {-2..2}, showing its posterior over the candidate values plus the
// centered mean and variance (the inputs to the LWE-with-hints framework).

#include <cstdio>

#include "bench_common.hpp"
#include "numeric/rng.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

/// Posterior mass a guess assigns to value `v` (0 if outside support).
double mass_at(const CoefficientGuess& g, std::int32_t v) {
  for (std::size_t k = 0; k < g.support.size(); ++k) {
    if (g.support[k] == v) return g.posterior[k];
  }
  return 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {{"--default-noise"}});
  const bool lab = !cli.has("--default-noise");
  bench::print_header(
      "Table II",
      "Guessing probabilities of selected measurements for secrets -2..2.\n"
      "Lab-grade acquisition by default (the paper's posteriors round to\n"
      "0/1 in floating point); pass --default-noise for the Table-I setup.");

  CampaignConfig cfg = lab ? bench::lab_campaign(64) : bench::default_campaign(64);
  SamplerCampaign campaign(cfg);
  RevealAttack attack;
  std::printf("\nprofiling...\n");
  attack.train(campaign.collect_windows(150, /*seed_base=*/1));

  // Select one measurement per secret value in -2..2 "uniformly at random".
  const bench::AttackRun run = bench::attack_campaign(attack, cfg, 7000, 40);
  num::Xoshiro256StarStar pick(42);
  std::printf("\n%6s |%10s%10s%10s%10s%10s |%10s%12s\n", "secret", "-2", "-1", "0", "1",
              "2", "centered", "variance");
  for (const std::int32_t secret : {0, 1, -1, 2, -2}) {
    // Scan the captures until we find windows with this true value; choose
    // one at random among the first few.
    std::vector<CoefficientGuess> matches;
    for (std::size_t c = 0; c < run.result.captures.size() && matches.size() < 8; ++c) {
      const auto& guesses = run.result.captures[c].guesses;
      const auto& truth = run.result.truth[c];
      if (guesses.size() != truth.size()) continue;
      for (std::size_t i = 0; i < guesses.size(); ++i) {
        if (truth[i] == secret) matches.push_back(guesses[i]);
      }
    }
    if (matches.empty()) {
      std::printf("%6d | (no measurement found)\n", secret);
      continue;
    }
    const auto& g = matches[pick.uniform_below(matches.size())];
    std::printf("%6d |", secret);
    for (const std::int32_t col : {-2, -1, 0, 1, 2}) {
      const double p = mass_at(g, col);
      if (p > 0.9999) std::printf("%10s", "~1");
      else if (p < 1e-4) std::printf("%10s", "0");
      else std::printf("%10.4f", p);
    }
    std::printf(" |%10.3f%12.3e\n", g.posterior_mean(), g.posterior_variance());
  }

  std::printf(
      "\npaper Table II: the diagonal probabilities are ~1 and the variances\n"
      "are ~0 (floating-point rounding) -> those measurements enter the DBDD\n"
      "framework as PERFECT hints; lower-confidence ones as approximate hints.\n");
  return 0;
}
