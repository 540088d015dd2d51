#pragma once
// BFV encryption (paper Eq. 1):
//   (c0, c1) = ([Δ·m + p0·u + e1]_q, [p1·u + e2]_q)
//
// The error polynomials e1, e2 come from the vulnerable
// set_poly_coeffs_normal sampler — the attack surface. The encryptor can
// optionally expose an `EncryptionWitness` carrying the exact sampled
// values, used as ground truth when evaluating the attack, and supports
// encrypting with externally supplied randomness (e.g. noise sampled on the
// RISC-V victim so the captured power trace corresponds to this exact
// ciphertext).

#include <cstdint>
#include <vector>

#include "seal/ciphertext.hpp"
#include "seal/encryption_params.hpp"
#include "seal/keys.hpp"
#include "seal/random.hpp"

namespace reveal::seal {

/// The fresh per-encryption secrets; recovering e1/e2 (and hence u) is
/// exactly what the paper's attack does.
struct EncryptionWitness {
  Poly u;                        ///< ternary encryption sample
  std::vector<std::int64_t> e1;  ///< signed Gaussian noise for c0
  std::vector<std::int64_t> e2;  ///< signed Gaussian noise for c1
};

enum class SamplerVariant {
  kVulnerableV32,  ///< set_poly_coeffs_normal (branching; paper target)
  kPatchedV36,     ///< branch-free v3.6-style sampler
};

class Encryptor {
 public:
  Encryptor(const Context& context, const PublicKey& pk,
            SamplerVariant sampler = SamplerVariant::kVulnerableV32);

  /// Encrypts `plain`, drawing u, e1, e2 from `random`. If `witness` is
  /// non-null it receives the sampled secrets.
  [[nodiscard]] Ciphertext encrypt(const Plaintext& plain, UniformRandomGenerator& random,
                                   EncryptionWitness* witness = nullptr) const;

  /// Encrypts with fully specified randomness (deterministic; used to tie a
  /// ciphertext to a power trace captured on the simulated target).
  [[nodiscard]] Ciphertext encrypt_with_witness(const Plaintext& plain,
                                                const EncryptionWitness& witness) const;

  /// Scales a plaintext by Delta: result = Δ·m mod q.
  [[nodiscard]] Poly scale_plain(const Plaintext& plain) const;

 private:
  /// (c0, c1) = (Δ·m + p0·u + e1, p1·u + e2) mod q.
  [[nodiscard]] Ciphertext combine(const Plaintext& plain, const Poly& u, const Poly& e1,
                                   const Poly& e2) const;

  const Context& context_;
  const PublicKey& pk_;
  SamplerVariant sampler_;
};

}  // namespace reveal::seal
