#pragma once
// Minimal arbitrary-precision unsigned integer.
//
// Needed for CRT composition of multi-limb RNS ciphertext moduli and for the
// exact ⌊t·v/q⌉ rounding in BFV decryption. Only the handful of operations
// the decryption path needs are provided; performance is adequate for the
// few thousand values per decryption.

#include <cstdint>
#include <string>
#include <vector>

namespace reveal::seal {

class BigUInt {
 public:
  BigUInt() = default;
  /// From a single 64-bit value.
  explicit BigUInt(std::uint64_t value);

  /// Value as limbs, least significant first (normalized: no leading zeros).
  [[nodiscard]] const std::vector<std::uint64_t>& limbs() const noexcept { return limbs_; }
  [[nodiscard]] bool is_zero() const noexcept { return limbs_.empty(); }
  /// Number of significant bits (0 for zero).
  [[nodiscard]] std::size_t bit_count() const noexcept;
  /// Value of bit i (false beyond the top).
  [[nodiscard]] bool bit(std::size_t i) const noexcept;
  /// Low 64 bits.
  [[nodiscard]] std::uint64_t low_word() const noexcept {
    return limbs_.empty() ? 0 : limbs_[0];
  }
  [[nodiscard]] std::string to_string() const;  // decimal

  BigUInt& operator+=(const BigUInt& rhs);
  BigUInt& operator-=(const BigUInt& rhs);  // requires *this >= rhs
  BigUInt& operator<<=(std::size_t bits);
  BigUInt& operator>>=(std::size_t bits);

  friend BigUInt operator+(BigUInt a, const BigUInt& b) { return a += b; }
  friend BigUInt operator-(BigUInt a, const BigUInt& b) { return a -= b; }

  /// Full product.
  friend BigUInt operator*(const BigUInt& a, const BigUInt& b);
  /// Product with a 64-bit word.
  friend BigUInt operator*(const BigUInt& a, std::uint64_t b);

  /// Three-way comparison.
  [[nodiscard]] int compare(const BigUInt& rhs) const noexcept;
  friend bool operator==(const BigUInt& a, const BigUInt& b) noexcept {
    return a.compare(b) == 0;
  }
  friend bool operator<(const BigUInt& a, const BigUInt& b) noexcept {
    return a.compare(b) < 0;
  }
  friend bool operator<=(const BigUInt& a, const BigUInt& b) noexcept {
    return a.compare(b) <= 0;
  }
  friend bool operator>(const BigUInt& a, const BigUInt& b) noexcept {
    return a.compare(b) > 0;
  }
  friend bool operator>=(const BigUInt& a, const BigUInt& b) noexcept {
    return a.compare(b) >= 0;
  }

  /// Quotient and remainder; throws std::domain_error on division by zero.
  struct DivResult;
  [[nodiscard]] static DivResult divmod(const BigUInt& numerator, const BigUInt& denominator);

  /// value mod m (m a 64-bit word, nonzero).
  [[nodiscard]] std::uint64_t mod_word(std::uint64_t m) const;

 private:
  void normalize() noexcept;
  std::vector<std::uint64_t> limbs_;  // little-endian
};

struct BigUInt::DivResult {
  BigUInt quotient;
  BigUInt remainder;
};

}  // namespace reveal::seal
