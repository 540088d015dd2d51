#include "core/message_recovery.hpp"

#include <stdexcept>

#include "seal/decryptor.hpp"
#include "seal/modarith.hpp"
#include "seal/poly.hpp"
#include "seal/sampler.hpp"

namespace reveal::core {

std::optional<seal::Poly> recover_u(const seal::Context& context, const seal::PublicKey& pk,
                                    const seal::Ciphertext& ct,
                                    const std::vector<std::int64_t>& e2) {
  using namespace reveal::seal;
  if (ct.size() != 2) throw std::invalid_argument("recover_u: need a fresh 2-part ciphertext");
  if (e2.size() != context.n())
    throw std::invalid_argument("recover_u: e2 size does not match context");

  const auto& tables = context.fast_ntt_tables();
  const auto& moduli = context.coeff_modulus();

  Poly e2_poly;
  encode_noise_values(e2, context, e2_poly);

  // numerator = c1 - e2, then divide by p1 pointwise in the NTT domain.
  Poly numerator;
  polyops::sub(ct[1], e2_poly, moduli, numerator);
  polyops::ntt_forward(numerator, tables);

  Poly p1 = pk.p1;
  polyops::ntt_forward(p1, tables);

  Poly u(context.n(), context.coeff_mod_count());
  for (std::size_t j = 0; j < moduli.size(); ++j) {
    for (std::size_t i = 0; i < context.n(); ++i) {
      const std::uint64_t denom = p1.at(i, j);
      if (denom == 0) return std::nullopt;  // p1 not invertible
      u.at(i, j) = mul_mod(numerator.at(i, j), inverse_mod(denom, moduli[j]), moduli[j]);
    }
  }
  polyops::ntt_inverse(u, tables);

  // Consistency: u must be ternary in every RNS component.
  for (std::size_t i = 0; i < context.n(); ++i) {
    const std::uint64_t v0 = u.at(i, 0);
    const std::int64_t centered = center_mod(v0, moduli[0]);
    if (centered < -1 || centered > 1) return std::nullopt;
    for (std::size_t j = 1; j < moduli.size(); ++j) {
      if (center_mod(u.at(i, j), moduli[j]) != centered) return std::nullopt;
    }
  }
  return u;
}

std::optional<seal::Plaintext> recover_message(const seal::Context& context,
                                               const seal::PublicKey& pk,
                                               const seal::Ciphertext& ct,
                                               const std::vector<std::int64_t>& e2) {
  using namespace reveal::seal;
  const std::optional<Poly> u = recover_u(context, pk, ct, e2);
  if (!u.has_value()) return std::nullopt;

  const auto& tables = context.fast_ntt_tables();
  const auto& moduli = context.coeff_modulus();

  // x = c0 - p0*u = Delta*m + e1 (mod q).
  Poly p0u;
  polyops::multiply_ntt(pk.p0, *u, tables, p0u);
  Poly x;
  polyops::sub(ct[0], p0u, moduli, x);

  return decode_scaled(context, x);
}

}  // namespace reveal::core
