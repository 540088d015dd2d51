#pragma once
// Key material and key generation for the BFV scheme.

#include "seal/encryption_params.hpp"
#include "seal/poly.hpp"
#include "seal/random.hpp"

namespace reveal::seal {

/// Secret key: ternary polynomial s (coefficient representation).
struct SecretKey {
  Poly s;
};

/// Public key: pk = (p0, p1) = ([-(a s + e)]_q, a).
struct PublicKey {
  Poly p0;
  Poly p1;
};

/// Generates sk / pk per the BFV KeyGen of §II-A.
class KeyGenerator {
 public:
  /// Draws the secret key, then the public key, from `random`.
  KeyGenerator(const Context& context, UniformRandomGenerator& random);

  [[nodiscard]] const SecretKey& secret_key() const noexcept { return secret_key_; }
  [[nodiscard]] const PublicKey& public_key() const noexcept { return public_key_; }

 private:
  SecretKey secret_key_;
  PublicKey public_key_;
};

}  // namespace reveal::seal
