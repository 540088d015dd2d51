#pragma once
// Modulus with precomputed Barrett constants, mirroring SEAL's SmallModulus.
//
// Supports moduli up to 61 bits. The Barrett constant floor(2^128 / q) is
// stored as two 64-bit words so that 128-bit products can be reduced without
// division, exactly as SEAL does.

#include <cstddef>
#include <cstdint>

namespace reveal::seal {

class Modulus {
 public:
  Modulus() = default;

  /// Constructs a modulus; throws std::invalid_argument unless
  /// 2 <= value < 2^61.
  explicit Modulus(std::uint64_t value);

  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  [[nodiscard]] int bit_count() const noexcept { return bit_count_; }
  [[nodiscard]] bool is_zero() const noexcept { return value_ == 0; }
  [[nodiscard]] bool is_prime() const noexcept { return is_prime_; }

  /// Barrett reduction of a 64-bit operand.
  [[nodiscard]] std::uint64_t reduce(std::uint64_t input) const noexcept;

  /// Barrett reduction of a 128-bit operand given as (high, low) words.
  [[nodiscard]] std::uint64_t reduce128(std::uint64_t high, std::uint64_t low) const noexcept;

  friend bool operator==(const Modulus& a, const Modulus& b) noexcept {
    return a.value_ == b.value_;
  }

 private:
  std::uint64_t value_ = 0;
  std::uint64_t const_ratio_[2] = {0, 0};  // floor(2^128 / value), low/high word
  int bit_count_ = 0;
  bool is_prime_ = false;
};

/// Deterministic Miller-Rabin primality test, exact for all 64-bit inputs.
[[nodiscard]] bool is_prime_u64(std::uint64_t n) noexcept;

/// Finds the largest prime p < 2^bit_count with p ≡ 1 (mod 2n), suitable as
/// an NTT-friendly coefficient modulus for polynomial degree n. bit_count
/// must be in [8, 61]; throws std::runtime_error if no prime exists in the
/// search window.
[[nodiscard]] Modulus find_ntt_prime(int bit_count, std::size_t poly_degree);

}  // namespace reveal::seal
