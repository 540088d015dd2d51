#include "seal/modulus.hpp"

#include <stdexcept>

namespace reveal::seal {

namespace {

__extension__ typedef unsigned __int128 u128;

int bit_length(std::uint64_t v) noexcept {
  int bits = 0;
  while (v != 0) {
    ++bits;
    v >>= 1;
  }
  return bits;
}

std::uint64_t mulmod_u64(std::uint64_t a, std::uint64_t b, std::uint64_t m) noexcept {
  return static_cast<std::uint64_t>(static_cast<u128>(a) * b % m);
}

std::uint64_t powmod_u64(std::uint64_t base, std::uint64_t exp, std::uint64_t m) noexcept {
  std::uint64_t result = 1 % m;
  base %= m;
  while (exp != 0) {
    if (exp & 1) result = mulmod_u64(result, base, m);
    base = mulmod_u64(base, base, m);
    exp >>= 1;
  }
  return result;
}

}  // namespace

bool is_prime_u64(std::uint64_t n) noexcept {
  if (n < 2) return false;
  for (std::uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL,
                          29ULL, 31ULL, 37ULL}) {
    if (n % p == 0) return n == p;
  }
  // Write n-1 = d * 2^r.
  std::uint64_t d = n - 1;
  int r = 0;
  while ((d & 1) == 0) {
    d >>= 1;
    ++r;
  }
  // These witnesses are deterministic for all n < 2^64.
  for (std::uint64_t a : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 13ULL, 17ULL, 19ULL, 23ULL,
                          29ULL, 31ULL, 37ULL}) {
    std::uint64_t x = powmod_u64(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 0; i < r - 1; ++i) {
      x = mulmod_u64(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

Modulus::Modulus(std::uint64_t value) {
  if (value < 2 || value >= (std::uint64_t{1} << 61))
    throw std::invalid_argument("Modulus: value must satisfy 2 <= value < 2^61");
  value_ = value;
  bit_count_ = bit_length(value);
  is_prime_ = is_prime_u64(value);
  // const_ratio = floor(2^128 / value) computed by 128-bit long division.
  // 2^128 / v: first divide 2^64 by v to get the high word contribution.
  const u128 numerator_high = (static_cast<u128>(1) << 64);
  const u128 q_high = numerator_high / value;
  const u128 r_high = numerator_high % value;
  const u128 q_low = (r_high << 64) / value;
  const_ratio_[1] = static_cast<std::uint64_t>(q_high);
  const_ratio_[0] = static_cast<std::uint64_t>(q_low);
}

std::uint64_t Modulus::reduce(std::uint64_t input) const noexcept {
  // Single-word Barrett: q_hat = floor(input * floor(2^128/q) / 2^128);
  // the estimate is off by at most one multiple of value_.
  const std::uint64_t q_hat =
      static_cast<std::uint64_t>(((static_cast<u128>(input) * const_ratio_[1]) +
                                  ((static_cast<u128>(input) * const_ratio_[0]) >> 64)) >>
                                 64);
  std::uint64_t result = input - q_hat * value_;
  if (result >= value_) result -= value_;
  return result;
}

std::uint64_t Modulus::reduce128(std::uint64_t high, std::uint64_t low) const noexcept {
  // Barrett reduction of a 128-bit value following SEAL's barrett_reduce_128.
  // tmp3 = floor(input * const_ratio / 2^128), then input - tmp3 * value.
  const std::uint64_t cr0 = const_ratio_[0];
  const std::uint64_t cr1 = const_ratio_[1];

  // Round 1: multiply low word.
  const u128 low_cr0 = static_cast<u128>(low) * cr0;
  const std::uint64_t carry1 = static_cast<std::uint64_t>(low_cr0 >> 64);
  const u128 low_cr1 = static_cast<u128>(low) * cr1;
  const u128 tmp2 = low_cr1 + carry1;
  const std::uint64_t tmp1 = static_cast<std::uint64_t>(tmp2);
  const std::uint64_t carry2 = static_cast<std::uint64_t>(tmp2 >> 64);

  // Round 2: multiply high word.
  const u128 high_cr0 = static_cast<u128>(high) * cr0;
  const u128 tmp3 = high_cr0 + tmp1;
  const std::uint64_t carry3 = static_cast<std::uint64_t>(tmp3 >> 64);
  const std::uint64_t tmp4 = high * cr1 + carry2 + carry3;

  // Barrett subtraction: result = low - tmp4 * value (mod 2^64).
  std::uint64_t result = low - tmp4 * value_;
  if (result >= value_) result -= value_;
  return result;
}

Modulus find_ntt_prime(int bit_count, std::size_t poly_degree) {
  if (bit_count < 8 || bit_count > 61)
    throw std::invalid_argument("find_ntt_prime: bit_count must be in [8, 61]");
  const std::uint64_t two_n = static_cast<std::uint64_t>(poly_degree) * 2;
  // Start at the largest candidate ≡ 1 (mod 2n) below 2^bit_count.
  std::uint64_t candidate = ((std::uint64_t{1} << bit_count) - 1) / two_n * two_n + 1;
  while (candidate > two_n) {
    if (candidate < (std::uint64_t{1} << bit_count) && is_prime_u64(candidate))
      return Modulus(candidate);
    candidate -= two_n;
  }
  throw std::runtime_error("find_ntt_prime: no NTT-friendly prime found");
}

}  // namespace reveal::seal
