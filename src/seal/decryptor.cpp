#include "seal/decryptor.hpp"

#include <stdexcept>

#include "seal/poly.hpp"

namespace reveal::seal {

Plaintext decode_scaled(const Context& context, const Poly& v) {
  if (v.coeff_count() != context.n())
    throw std::invalid_argument("decode_scaled: polynomial does not match context");
  __extension__ typedef unsigned __int128 u128;
  const std::uint64_t q = context.coeff_modulus().value();
  const std::uint64_t t = context.plain_modulus().value();

  std::vector<std::uint64_t> message(context.n(), 0);
  for (std::size_t i = 0; i < context.n(); ++i) {
    const u128 numerator = static_cast<u128>(t) * v[i] + q / 2;
    message[i] = static_cast<std::uint64_t>(numerator / q) % t;
  }
  // Trim trailing zeros for a canonical representation.
  while (!message.empty() && message.back() == 0) message.pop_back();
  return Plaintext(std::move(message));
}

Decryptor::Decryptor(const Context& context, const SecretKey& sk)
    : context_(context), sk_(sk) {
  if (sk_.s.coeff_count() != context_.n())
    throw std::invalid_argument("Decryptor: secret key does not match context");
}

Plaintext Decryptor::decrypt(const Ciphertext& ct) const {
  if (ct.size() != 2)
    throw std::invalid_argument("Decryptor: ciphertext must have 2 components");
  // v = c0 + c1 s (coefficient representation).
  Poly v;
  polyops::multiply_ntt(ct[1], sk_.s, context_.fast_ntt_tables(), v);
  polyops::add(ct[0], v, context_.coeff_modulus(), v);
  return decode_scaled(context_, v);
}

}  // namespace reveal::seal
