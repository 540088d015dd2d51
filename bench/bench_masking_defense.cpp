// Countermeasure evaluation (paper §V-A): "We do not recommend
// masking-based defenses as they are known to be susceptible against
// single-trace side-channel attacks."
//
// The masked firmware stores every coefficient as a fresh arithmetic share
// pair, wiping out the store-bus leakage — but the sign branches and the
// pre-store registers still handle the unmasked value, so the single-trace
// attack keeps working: sign recovery stays at 100% and the value templates
// retain most of their power.

#include <cstdio>

#include "bench_common.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

struct Outcome {
  double sign_accuracy = 0.0;
  double zero_accuracy = 0.0;
  double value_accuracy = 0.0;
};

Outcome evaluate(bool masked, std::size_t profile_runs, std::size_t attack_runs) {
  CampaignConfig cfg = bench::default_campaign(64);
  cfg.masked_firmware = masked;
  SamplerCampaign campaign(cfg);
  RevealAttack attack;
  attack.train(campaign.collect_windows(profile_runs, /*seed_base=*/1));

  const bench::AttackRun run = bench::attack_campaign(attack, cfg, 70000, attack_runs);
  Outcome out;
  out.sign_accuracy = run.sign_accuracy();
  out.zero_accuracy = run.diag.confusion.accuracy(0);
  out.value_accuracy = run.diag.confusion.overall_accuracy();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {{"--quick"}});
  const bool quick = cli.has("--quick");
  bench::print_header(
      "Countermeasure: first-order masking",
      "Arithmetic share-masked stores vs the single-trace attack — the\n"
      "paper's warning that masking does not stop this attack, quantified.");

  const std::size_t profile_runs = quick ? 80 : 200;
  const std::size_t attack_runs = quick ? 10 : 30;

  std::printf("\nrunning against the unmasked firmware...\n");
  const Outcome base = evaluate(false, profile_runs, attack_runs);
  std::printf("running against the masked firmware...\n");
  const Outcome masked = evaluate(true, profile_runs, attack_runs);

  std::printf("\n%-30s %14s %14s\n", "metric", "unmasked", "masked stores");
  std::printf("%-30s %14.1f %14.1f\n", "sign accuracy (%)", base.sign_accuracy,
              masked.sign_accuracy);
  std::printf("%-30s %14.1f %14.1f\n", "zero detection (%)", base.zero_accuracy,
              masked.zero_accuracy);
  std::printf("%-30s %14.1f %14.1f\n", "value accuracy (%)", base.value_accuracy,
              masked.value_accuracy);

  std::printf(
      "\nreading: the masked stores remove the strongest data-flow POIs (the\n"
      "memory bus), but the sign branches (vulnerability 1) and the registers\n"
      "computing the pre-share value still leak in the same single trace —\n"
      "sign recovery stays perfect and value recovery degrades but does not\n"
      "die. Masking alone cannot stop this attack (paper §V-A); a masked\n"
      "implementation would additionally need a branch-free, share-domain\n"
      "sign computation AND shuffling.\n");
  return 0;
}
