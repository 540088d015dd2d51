// attack_cli — file-based attack workflow, like an offline engagement:
//
//   attack_cli capture <dir>   victim encrypts; writes pk.bin, ct.bin and
//                              trace.bin (TraceSet with one trace) to <dir>
//   attack_cli attack  <dir>   profiles a clone, loads pk/ct/trace from
//                              <dir>, recovers and prints the plaintext
//   attack_cli both    <dir>   capture then attack (default)
//
// Demonstrates the serialization layer (seal/serialization.hpp, sca::TraceSet
// I/O) and that the attack needs nothing but the public artifacts.

#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "core/acquisition.hpp"
#include "core/attack.hpp"
#include "core/message_recovery.hpp"
#include "core/residual_search.hpp"
#include "sca/trace.hpp"
#include "seal/encryptor.hpp"
#include "seal/sampler.hpp"
#include "seal/serialization.hpp"

using namespace reveal;
using namespace reveal::core;

namespace {

constexpr std::size_t kN = 64;
constexpr std::uint64_t kQ = 132120577ULL;

seal::EncryptionParameters make_params() {
  seal::EncryptionParameters parms;
  parms.set_poly_modulus_degree(kN);
  parms.set_coeff_modulus({seal::Modulus(kQ)});
  parms.set_plain_modulus(256);
  return parms;
}

CampaignConfig lab_config() {
  CampaignConfig cfg;
  cfg.n = kN;
  cfg.moduli = {kQ};
  cfg.leakage.noise_sigma = 0.01;
  cfg.leakage.bit_deviation = 0.35;
  return cfg;
}

int do_capture(const std::string& dir, std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  const seal::Context ctx(make_params());
  seal::StandardRandomGenerator rng(seed);
  const seal::KeyGenerator keygen(ctx, rng);
  const seal::Encryptor encryptor(ctx, keygen.public_key());

  SamplerCampaign campaign(lab_config());
  const FullCapture cap = campaign.capture(seed + 7);
  if (cap.segments.size() != kN) {
    std::fprintf(stderr, "capture: segmentation failed (%zu windows)\n",
                 cap.segments.size());
    return 1;
  }

  // The victim message (kept out of the artifact directory, of course).
  const std::string message = "files-only attack: nothing but pk, ct, trace";
  std::vector<std::uint64_t> msg(kN, 0);
  for (std::size_t i = 0; i < message.size() && i < kN; ++i) {
    msg[i] = static_cast<unsigned char>(message[i]);
  }
  seal::EncryptionWitness witness;
  seal::sample_poly_ternary(witness.u, rng, ctx);
  (void)seal::sample_error_poly(rng, ctx, &witness.e1);
  witness.e2 = cap.noise;
  const seal::Ciphertext ct =
      encryptor.encrypt_with_witness(seal::Plaintext(msg), witness);

  seal::save_public_key_file(keygen.public_key(), dir + "/pk.bin");
  seal::save_ciphertext_file(ct, dir + "/ct.bin");
  sca::TraceSet traces;
  sca::Trace t;
  t.samples = cap.trace;
  traces.add(std::move(t));
  traces.save(dir + "/trace.bin");

  std::printf("capture: wrote %s/{pk.bin, ct.bin, trace.bin} (%zu samples)\n",
              dir.c_str(), cap.trace.size());
  std::printf("capture: victim message was: \"%s\"\n", message.c_str());
  return 0;
}

int do_attack(const std::string& dir) {
  const seal::Context ctx(make_params());
  seal::PublicKey pk;
  seal::Ciphertext ct;
  sca::TraceSet traces;
  try {
    pk = seal::load_public_key_file(dir + "/pk.bin");
    ct = seal::load_ciphertext_file(dir + "/ct.bin");
    traces = sca::TraceSet::load(dir + "/trace.bin");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "attack: cannot load the artifacts in %s: %s\n", dir.c_str(),
                 e.what());
    return 1;
  }
  if (traces.empty()) {
    std::fprintf(stderr, "attack: no trace in %s\n", dir.c_str());
    return 1;
  }
  if (!seal::conforms_to(pk.p1, ctx)) {
    std::fprintf(stderr, "attack: public key does not match the parameters\n");
    return 1;
  }
  if (ct.size() != 2 || !seal::conforms_to(ct[0], ctx) || !seal::conforms_to(ct[1], ctx)) {
    std::fprintf(stderr, "attack: ciphertext does not match the parameters\n");
    return 1;
  }

  std::printf("attack: profiling a clone device...\n");
  const CampaignConfig cfg = lab_config();
  SamplerCampaign campaign(cfg);
  RevealAttack attack;
  attack.train(campaign.collect_windows(150, /*seed_base=*/1));

  std::printf("attack: segmenting the captured trace...\n");
  const RobustCaptureResult res =
      attack.attack_capture_robust(traces[0].samples, kN, cfg.segmentation);
  if (res.guesses.size() != kN) {
    std::fprintf(stderr, "attack: expected %zu windows, found %zu\n", kN,
                 res.segmentation.segments.size());
    return 1;
  }

  ResidualSearchConfig rs;
  rs.max_tries = 1000000;
  const ResidualSearchResult search = residual_search(ctx, pk, ct, res.guesses, rs);
  if (!search.found) {
    std::printf("attack: residual search exhausted (%zu tried) — capture another trace\n",
                search.tried);
    return 2;
  }
  const auto plain = recover_message(ctx, pk, ct, search.e2);
  if (!plain.has_value()) {
    std::fprintf(stderr, "attack: recovery inconsistency\n");
    return 1;
  }
  std::string message;
  for (std::size_t i = 0; i < kN; ++i) {
    const auto c = static_cast<char>((*plain)[i]);
    if (c == 0) break;
    message.push_back(c);
  }
  std::printf("attack: RECOVERED MESSAGE: \"%s\"\n", message.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "both";
  if (argc > 3 || (mode != "capture" && mode != "attack" && mode != "both")) {
    std::fprintf(stderr, "usage: %s [capture|attack|both] [dir]\n", argv[0]);
    return 64;
  }
  const std::string dir =
      argc > 2 ? argv[2]
               : (std::filesystem::temp_directory_path() / "reveal_attack").string();

  if (mode == "capture") return do_capture(dir, 20260706);
  if (mode == "attack") return do_attack(dir);
  // both: retry with fresh captures until the residual search lands
  // (roughly one in two lab-grade traces is within budget).
  for (std::uint64_t seed = 20260706; seed < 20260712; ++seed) {
    if (do_capture(dir, seed) != 0) continue;
    const int rc = do_attack(dir);
    if (rc != 2) return rc;
    std::printf("(trace too noisy for the budget; trying another capture)\n\n");
  }
  return 1;
}
