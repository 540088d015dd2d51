#include "seal/encryption_params.hpp"

#include <stdexcept>

namespace reveal::seal {

namespace {

bool is_power_of_two(std::size_t v) noexcept { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

EncryptionParameters EncryptionParameters::seal_128_1024() {
  EncryptionParameters parms;
  parms.set_poly_modulus_degree(1024);
  // q = 132120577 = 2^27 - 2^21 + 1; prime, q ≡ 1 (mod 2048) — the smallest
  // SEAL-128 coefficient modulus used in the paper's Table III.
  parms.set_coeff_modulus({Modulus(132120577ULL)});
  parms.set_plain_modulus(256);
  parms.set_noise_standard_deviation(3.19);
  parms.set_noise_max_deviation(41.0);
  return parms;
}

EncryptionParameters EncryptionParameters::toy_256() {
  EncryptionParameters parms;
  parms.set_poly_modulus_degree(256);
  parms.set_coeff_modulus({find_ntt_prime(20, 256)});
  parms.set_plain_modulus(64);
  parms.set_noise_standard_deviation(3.19);
  parms.set_noise_max_deviation(41.0);
  return parms;
}

Context::Context(EncryptionParameters parms) : parms_(std::move(parms)) {
  const std::size_t n = parms_.poly_modulus_degree();
  if (!is_power_of_two(n) || n < 2)
    throw std::invalid_argument("Context: poly_modulus_degree must be a power of two >= 2");
  const auto& moduli = parms_.coeff_modulus();
  if (moduli.empty())
    throw std::invalid_argument("Context: coeff_modulus must not be empty");
  for (std::size_t i = 0; i < moduli.size(); ++i) {
    for (std::size_t j = i + 1; j < moduli.size(); ++j) {
      if (moduli[i] == moduli[j])
        throw std::invalid_argument("Context: duplicate coefficient moduli");
    }
  }
  const auto& t = parms_.plain_modulus();
  if (t.is_zero()) throw std::invalid_argument("Context: plain_modulus not set");
  if (parms_.noise_standard_deviation() <= 0.0 ||
      parms_.noise_max_deviation() < parms_.noise_standard_deviation())
    throw std::invalid_argument("Context: invalid noise distribution parameters");

  fast_ntt_tables_.reserve(moduli.size());
  total_q_ = BigUInt(1);
  for (const auto& q : moduli) {
    fast_ntt_tables_.emplace_back(n, q);  // throws if q is not NTT-friendly
    total_q_ = total_q_ * q.value();
  }
  if (BigUInt(t.value()) >= total_q_)
    throw std::invalid_argument("Context: plain_modulus must be smaller than coeff modulus");

  delta_ = BigUInt::divmod(total_q_, BigUInt(t.value())).quotient;
  delta_mod_qj_.reserve(moduli.size());
  for (const auto& q : moduli) delta_mod_qj_.push_back(delta_.mod_word(q.value()));
}

}  // namespace reveal::seal
