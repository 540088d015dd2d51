#pragma once
// BFV decryption: m = [ round(t/q · [c0 + c1·s]_q) ]_t.
//
// The rounding is exact: q < 2^61 and t < q, so t·x + ⌊q/2⌋ < 2^122 for
// every coefficient x < q, and one 128-bit product and division per
// coefficient computes it.

#include "seal/ciphertext.hpp"
#include "seal/encryption_params.hpp"
#include "seal/keys.hpp"

namespace reveal::seal {

/// The BFV rounding step shared by decryption and message recovery: for
/// v = Δ·m + noise (mod q, coefficient representation), returns
/// m_i = ⌊(t·v_i + ⌊q/2⌋)/q⌋ mod t with trailing zeros trimmed.
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
