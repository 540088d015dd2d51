#pragma once
// BFV encryption parameters and the precomputed context, mirroring SEAL's
// EncryptionParameters / SEALContext split. The ciphertext modulus is one
// NTT-friendly prime q < 2^61 — the single 27-bit prime of the paper's
// SEAL-128 n = 1024 parameter set is the case the attack targets.

#include <cstdint>

#include "seal/modulus.hpp"
#include "seal/ntt_fast.hpp"

namespace reveal::seal {

class EncryptionParameters {
 public:
  EncryptionParameters() = default;

  void set_poly_modulus_degree(std::size_t degree) { poly_modulus_degree_ = degree; }
  void set_coeff_modulus(Modulus q) { coeff_modulus_ = q; }
  void set_plain_modulus(const Modulus& t) { plain_modulus_ = t; }
  void set_plain_modulus(std::uint64_t t) { plain_modulus_ = Modulus(t); }
  /// Gaussian error parameters; SEAL default sigma = 3.19 ≈ 8/sqrt(2*pi).
  void set_noise_standard_deviation(double sigma) { noise_standard_deviation_ = sigma; }
  void set_noise_max_deviation(double max_dev) { noise_max_deviation_ = max_dev; }

  [[nodiscard]] std::size_t poly_modulus_degree() const noexcept {
    return poly_modulus_degree_;
  }
  [[nodiscard]] const Modulus& coeff_modulus() const noexcept { return coeff_modulus_; }
  [[nodiscard]] const Modulus& plain_modulus() const noexcept { return plain_modulus_; }
  [[nodiscard]] double noise_standard_deviation() const noexcept {
    return noise_standard_deviation_;
  }
  [[nodiscard]] double noise_max_deviation() const noexcept { return noise_max_deviation_; }

  /// The parameter set attacked in the paper: n = 1024, a single 27-bit
  /// NTT-friendly prime q = 132120577, t = 256, sigma = 3.19
  /// (SEAL-128 smallest parameter set; paper Table III).
  static EncryptionParameters seal_128_1024();

  /// Scaled-down parameters for fast tests: n = 256, 20-bit prime, t = 64.
  static EncryptionParameters toy_256();

 private:
  std::size_t poly_modulus_degree_ = 0;
  Modulus coeff_modulus_;
  Modulus plain_modulus_;
  double noise_standard_deviation_ = 3.19;
  // Paper §II-A: "each sampled coefficient is between -41 and 41".
  double noise_max_deviation_ = 41.0;
};

/// Validated parameters plus everything derived from them: the NTT tables
/// of q and Delta = floor(q/t).
class Context {
 public:
  /// Validates and precomputes; throws std::invalid_argument when the
  /// parameters are unusable (n not a power of two, q unset or not
  /// NTT-friendly, t >= q, ...).
  explicit Context(EncryptionParameters parms);

  [[nodiscard]] const EncryptionParameters& parms() const noexcept { return parms_; }
  [[nodiscard]] std::size_t n() const noexcept { return parms_.poly_modulus_degree(); }
  [[nodiscard]] const Modulus& coeff_modulus() const noexcept {
    return parms_.coeff_modulus();
  }
  [[nodiscard]] const Modulus& plain_modulus() const noexcept {
    return parms_.plain_modulus();
  }
  /// Shoup/Harvey NTT tables of q.
  [[nodiscard]] const FastNttTables& fast_ntt_tables() const noexcept {
    return fast_ntt_tables_;
  }
  /// Delta = floor(q / t), the plaintext scale.
  [[nodiscard]] std::uint64_t delta() const noexcept { return delta_; }

 private:
  EncryptionParameters parms_;
  FastNttTables fast_ntt_tables_;
  std::uint64_t delta_;
};

}  // namespace reveal::seal
