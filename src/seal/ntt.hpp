#pragma once
// Negacyclic Number Theoretic Transform over Z_q[x]/(x^n + 1).
//
// Precomputes powers of a primitive 2n-th root of unity psi in bit-reversed
// order (SEAL/Harvey layout). Forward transform is Cooley-Tukey, inverse is
// Gentleman-Sande with a final n^{-1} scaling; the psi^i twists make the
// transform negacyclic so that pointwise products realize multiplication
// modulo x^n + 1.

#include <cstdint>
#include <vector>

#include "seal/modulus.hpp"

namespace reveal::seal {

class NttTables {
 public:
  /// Precomputes tables for degree-n transforms mod q. Requirements:
  /// n a power of two, q prime with q ≡ 1 (mod 2n). Throws otherwise.
  NttTables(std::size_t n, const Modulus& q);

  [[nodiscard]] std::size_t n() const noexcept { return n_; }
  [[nodiscard]] const Modulus& modulus() const noexcept { return q_; }

  /// In-place forward negacyclic NTT (coefficient order in, bit-reversed
  /// evaluation order out — consistent with inverse_transform).
  void forward_transform(std::uint64_t* values) const noexcept;

  /// In-place inverse negacyclic NTT.
  void inverse_transform(std::uint64_t* values) const noexcept;

  void forward_transform(std::vector<std::uint64_t>& values) const;
  void inverse_transform(std::vector<std::uint64_t>& values) const;

 private:
  std::size_t n_ = 0;
  int log_n_ = 0;
  Modulus q_;
  std::uint64_t psi_ = 0;          // primitive 2n-th root of unity
  std::uint64_t inv_n_ = 0;        // n^{-1} mod q
  std::vector<std::uint64_t> root_powers_;      // psi^bitrev(i)
  std::vector<std::uint64_t> inv_root_powers_;  // psi^{-bitrev(i)} layout for GS
};

/// Bit reversal of `value` within `bits` bits.
[[nodiscard]] std::size_t reverse_bits(std::size_t value, int bits) noexcept;

}  // namespace reveal::seal
