// Quickstart: the mini-SEAL BFV library — keygen, encryption and
// decryption, plus the two sampler variants the paper compares (vulnerable
// v3.2 vs patched v3.6-style).
//
//   ./quickstart

#include <cstdio>

#include "seal/decryptor.hpp"
#include "seal/encryption_params.hpp"
#include "seal/encryptor.hpp"
#include "seal/keys.hpp"

using namespace reveal::seal;

int main() {
  std::printf("== RevEAL quickstart: BFV over R_q = Z_q[x]/(x^n + 1) ==\n\n");

  // The paper's parameter set: n = 1024, q = 132120577 (SEAL-128 smallest).
  const Context ctx(EncryptionParameters::seal_128_1024());
  std::printf("parameters: n = %zu, q = %llu, t = %llu, sigma = %.2f\n", ctx.n(),
              static_cast<unsigned long long>(ctx.coeff_modulus().value()),
              static_cast<unsigned long long>(ctx.plain_modulus().value()),
              ctx.parms().noise_standard_deviation());

  StandardRandomGenerator rng(2022);
  const KeyGenerator keygen(ctx, rng);
  const Encryptor encryptor(ctx, keygen.public_key());  // vulnerable sampler
  const Decryptor decryptor(ctx, keygen.secret_key());

  // Encrypt a small polynomial and decrypt it again.
  const Plaintext a(std::vector<std::uint64_t>{1, 2, 3});
  const Plaintext result = decryptor.decrypt(encryptor.encrypt(a, rng));
  std::printf("\nEnc/Dec of [1, 2, 3] decrypts to: [%llu, %llu, %llu]\n",
              static_cast<unsigned long long>(result[0]),
              static_cast<unsigned long long>(result[1]),
              static_cast<unsigned long long>(result[2]));
  if (!(result == a)) {
    std::fprintf(stderr, "quickstart: decryption does not match the plaintext\n");
    return 1;
  }

  // The patched (v3.6-style) sampler produces the same ciphertext given the
  // same randomness — the fix changes control flow, not the distribution.
  StandardRandomGenerator r1(99), r2(99);
  const Encryptor enc_vuln(ctx, keygen.public_key(), SamplerVariant::kVulnerableV32);
  const Encryptor enc_patched(ctx, keygen.public_key(), SamplerVariant::kPatchedV36);
  const Ciphertext v1 = enc_vuln.encrypt(a, r1);
  const Ciphertext v2 = enc_patched.encrypt(a, r2);
  std::printf("\nvulnerable vs patched sampler, same seed: ciphertexts %s\n",
              v1[0] == v2[0] && v1[1] == v2[1] ? "IDENTICAL" : "differ");
  std::printf("\n(see full_attack_demo for what the v3.2 sampler leaks)\n");
  return 0;
}
