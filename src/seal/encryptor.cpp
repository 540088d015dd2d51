#include "seal/encryptor.hpp"

#include <stdexcept>

#include "seal/modarith.hpp"
#include "seal/sampler.hpp"

namespace reveal::seal {

Encryptor::Encryptor(const Context& context, const PublicKey& pk, SamplerVariant sampler)
    : context_(context), pk_(pk), sampler_(sampler) {
  if (pk_.p0.coeff_count() != context_.n() || pk_.p1.coeff_count() != context_.n())
    throw std::invalid_argument("Encryptor: public key does not match context");
}

Poly Encryptor::scale_plain(const Plaintext& plain) const {
  const std::size_t n = context_.n();
  const std::uint64_t t = context_.plain_modulus().value();
  if (plain.coeff_count() > n)
    throw std::invalid_argument("Encryptor: plaintext has too many coefficients");
  Poly result(n);
  for (std::size_t i = 0; i < plain.coeff_count(); ++i) {
    const std::uint64_t m = plain[i];
    if (m >= t) throw std::invalid_argument("Encryptor: plaintext coefficient >= t");
    result[i] = mul_mod(m, context_.delta(), context_.coeff_modulus());
  }
  return result;
}

Ciphertext Encryptor::encrypt(const Plaintext& plain, UniformRandomGenerator& random,
                              EncryptionWitness* witness) const {
  EncryptionWitness local;
  local.u = Poly(context_.n());
  sample_poly_ternary(local.u, random, context_);

  Poly e1_poly(context_.n());
  Poly e2_poly(context_.n());
  if (sampler_ == SamplerVariant::kVulnerableV32) {
    set_poly_coeffs_normal(e1_poly.data(), random, context_, &local.e1);
    set_poly_coeffs_normal(e2_poly.data(), random, context_, &local.e2);
  } else {
    sample_poly_normal_v36(e1_poly.data(), random, context_, &local.e1);
    sample_poly_normal_v36(e2_poly.data(), random, context_, &local.e2);
  }
  Ciphertext ct = combine(plain, local.u, e1_poly, e2_poly);
  if (witness != nullptr) *witness = std::move(local);
  return ct;
}

Ciphertext Encryptor::encrypt_with_witness(const Plaintext& plain,
                                           const EncryptionWitness& witness) const {
  if (witness.u.coeff_count() != context_.n() ||
      witness.e1.size() != context_.n() || witness.e2.size() != context_.n())
    throw std::invalid_argument("encrypt_with_witness: witness does not match context");

  Poly e1_poly;
  Poly e2_poly;
  encode_noise_values(witness.e1, context_, e1_poly);
  encode_noise_values(witness.e2, context_, e2_poly);
  return combine(plain, witness.u, e1_poly, e2_poly);
}

Ciphertext Encryptor::combine(const Plaintext& plain, const Poly& u, const Poly& e1,
                              const Poly& e2) const {
  const auto& tables = context_.fast_ntt_tables();
  const auto& q = context_.coeff_modulus();

  // c0 = Δ·m + p0·u + e1 ; c1 = p1·u + e2.
  Ciphertext ct;
  ct.resize(2, context_.n());
  Poly p0u;
  polyops::multiply_ntt(pk_.p0, u, tables, p0u);
  polyops::add(scale_plain(plain), p0u, q, ct[0]);
  polyops::add(ct[0], e1, q, ct[0]);

  Poly p1u;
  polyops::multiply_ntt(pk_.p1, u, tables, p1u);
  polyops::add(p1u, e2, q, ct[1]);
  return ct;
}

}  // namespace reveal::seal
