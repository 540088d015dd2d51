#include "seal/encryption_params.hpp"

#include <stdexcept>

namespace reveal::seal {

namespace {

bool is_power_of_two(std::size_t v) noexcept { return v != 0 && (v & (v - 1)) == 0; }

/// The parameters, or std::invalid_argument; the NTT-friendliness of q is
/// checked by the tables the Context builds next.
EncryptionParameters validated(EncryptionParameters parms) {
  const std::size_t n = parms.poly_modulus_degree();
  if (!is_power_of_two(n) || n < 2)
    throw std::invalid_argument("Context: poly_modulus_degree must be a power of two >= 2");
  if (parms.coeff_modulus().is_zero())
    throw std::invalid_argument("Context: coeff_modulus not set");
  const auto& t = parms.plain_modulus();
  if (t.is_zero()) throw std::invalid_argument("Context: plain_modulus not set");
  if (t.value() >= parms.coeff_modulus().value())
    throw std::invalid_argument("Context: plain_modulus must be smaller than coeff modulus");
  if (parms.noise_standard_deviation() <= 0.0 ||
      parms.noise_max_deviation() < parms.noise_standard_deviation())
    throw std::invalid_argument("Context: invalid noise distribution parameters");
  return parms;
}

}  // namespace

EncryptionParameters EncryptionParameters::seal_128_1024() {
  EncryptionParameters parms;
  parms.set_poly_modulus_degree(1024);
  // q = 132120577 = 2^27 - 2^21 + 1; prime, q ≡ 1 (mod 2048) — the smallest
  // SEAL-128 coefficient modulus used in the paper's Table III.
  parms.set_coeff_modulus(Modulus(132120577ULL));
  parms.set_plain_modulus(256);
  parms.set_noise_standard_deviation(3.19);
  parms.set_noise_max_deviation(41.0);
  return parms;
}

EncryptionParameters EncryptionParameters::toy_256() {
  EncryptionParameters parms;
  parms.set_poly_modulus_degree(256);
  parms.set_coeff_modulus(find_ntt_prime(20, 256));
  parms.set_plain_modulus(64);
  parms.set_noise_standard_deviation(3.19);
  parms.set_noise_max_deviation(41.0);
  return parms;
}

Context::Context(EncryptionParameters parms)
    : parms_(validated(std::move(parms))),
      fast_ntt_tables_(parms_.poly_modulus_degree(), parms_.coeff_modulus()),
      delta_(parms_.coeff_modulus().value() / parms_.plain_modulus().value()) {}

}  // namespace reveal::seal
