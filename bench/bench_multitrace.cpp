// The single-trace premise (paper §II-B): "Since secret and error values
// are freshly computed for each new encryption operation, the adversary has
// to perform the attack with a single power measurement trace."
//
// This bench quantifies that premise on the simulated target:
//   (a) averaging traces of DIFFERENT encryptions is useless — each trace
//       carries different fresh coefficients, so per-coefficient accuracy
//       cannot improve;
//   (b) if the device could be forced to REPLAY the same randomness
//       (hypothetically), averaging k traces would suppress measurement
//       noise by sqrt(k) and the attack would sharpen — which is exactly
//       why masking-style defenses target multi-trace attacks and why they
//       are beside the point here.

#include <cstdio>

#include "bench_common.hpp"
#include "power/trace_recorder.hpp"

using namespace reveal;
using namespace reveal::core;

int main(int argc, char** argv) {
  const bench::Cli cli(argc, argv, {{"--quick"}});
  const bool quick = cli.has("--quick");
  bench::print_header(
      "Single-trace premise",
      "Why the attack must work with ONE measurement: fresh randomness per\n"
      "encryption makes cross-trace averaging useless.");

  CampaignConfig cfg = bench::default_campaign(64);
  cfg.leakage.noise_sigma = 0.40;  // noisy regime where averaging would pay
  SamplerCampaign campaign(cfg);
  RevealAttack attack;
  std::printf("\nprofiling (noise sigma = %.2f)...\n", cfg.leakage.noise_sigma);
  attack.train(campaign.collect_windows(quick ? 100 : 300, /*seed_base=*/1));

  // (a) Fresh encryptions: single-trace accuracy is all there is.
  const double single = bench::attack_campaign(attack, cfg, 30000, quick ? 10 : 25)
                            .diag.confusion.overall_accuracy();

  // (b) Hypothetical replay: same firmware seed, k independent noise
  // streams, averaged before the attack.
  const VictimProgram prog = build_sampler_firmware(cfg.n, cfg.moduli);
  riscv::Machine machine(prog.memory_bytes);
  const power::LeakageModel model(cfg.leakage);

  std::printf("\n%24s %18s\n", "traces averaged (k)", "value accuracy %");
  std::printf("%24s %18.1f   <- the real setting (fresh randomness)\n", "1 (fresh)",
              single);
  for (const std::size_t k : {1u, 4u, 16u}) {
    std::size_t rok = 0, rtotal = 0;
    for (std::uint64_t run_idx = 0; run_idx < (quick ? 6u : 12u); ++run_idx) {
      const auto fw_seed = static_cast<std::uint32_t>(0xAB0000 + run_idx);
      // Average k replayed traces (identical execution, fresh scope noise).
      std::vector<double> averaged;
      VictimRun run;
      for (std::size_t rep = 0; rep < k; ++rep) {
        power::TraceRecorder recorder(model, 0x5EED0000ULL + run_idx * 64 + rep);
        run = run_victim(prog, machine, fw_seed, &recorder);
        const auto samples = recorder.take_samples();
        if (averaged.empty()) averaged.assign(samples.size(), 0.0);
        for (std::size_t s = 0; s < samples.size(); ++s) averaged[s] += samples[s];
      }
      for (double& v : averaged) v /= static_cast<double>(k);

      const RobustCaptureResult res =
          attack.attack_capture_robust(averaged, cfg.n, cfg.segmentation);
      if (res.guesses.size() != cfg.n) continue;
      for (std::size_t i = 0; i < cfg.n; ++i) {
        const sca::Segment& seg = res.segmentation.segments[i];
        if (seg.window_end - seg.window_begin < 110) continue;
        rok += (res.guesses[i].value == run.noise[i]);
        ++rtotal;
      }
    }
    std::printf("%14zu (replayed) %18.1f%s\n", k,
                100.0 * static_cast<double>(rok) / static_cast<double>(rtotal),
                k == 1 ? "" : "   <- only possible if randomness were reused");
  }

  std::printf(
      "\nreading: with fresh per-encryption randomness there is nothing to\n"
      "average — the attack succeeds or fails on one trace, which is why the\n"
      "paper targets the sampler with a single measurement and why masking\n"
      "(a multi-trace countermeasure) does not address this threat (§V-A).\n");
  return 0;
}
