#pragma once
// BFV decryption: m = [ round(t/q · [c0 + c1·s]_q) ]_t.
//
// Works for any number of RNS components: the noisy inner product is
// CRT-composed into a BigUInt per coefficient, then the exact rational
// rounding is done with multi-precision arithmetic.

#include "seal/ciphertext.hpp"
#include "seal/encryption_params.hpp"
#include "seal/keys.hpp"

namespace reveal::seal {

/// The BFV rounding step shared by decryption and message recovery: for
/// v = Δ·m + noise (mod q, RNS, coefficient representation), CRT-composes
/// each coefficient x_i and returns m_i = ⌊(t·x_i + ⌊q/2⌋)/q⌋ mod t with
/// trailing zeros trimmed.
[[nodiscard]] Plaintext decode_scaled(const Context& context, const Poly& v);

class Decryptor {
 public:
  Decryptor(const Context& context, const SecretKey& sk);

  /// Decrypts a fresh 2-component ciphertext; throws std::invalid_argument
  /// for any other component count.
  [[nodiscard]] Plaintext decrypt(const Ciphertext& ct) const;

 private:
  const Context& context_;
  SecretKey sk_;
};

}  // namespace reveal::seal
