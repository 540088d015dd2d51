// Tests for the multi-precision unsigned integer used in CRT composition
// and BFV decryption rounding.

#include <gtest/gtest.h>

#include "numeric/rng.hpp"
#include "seal/biguint.hpp"

using reveal::seal::BigUInt;

namespace {
__extension__ typedef unsigned __int128 u128;

BigUInt from_u128(u128 v) {
  BigUInt out(static_cast<std::uint64_t>(v >> 64));
  out <<= 64;
  out += BigUInt(static_cast<std::uint64_t>(v));
  return out;
}

u128 to_u128(const BigUInt& v) {
  u128 out = 0;
  const auto& limbs = v.limbs();
  if (limbs.size() > 2) throw std::runtime_error("overflow in test helper");
  if (limbs.size() >= 2) out = static_cast<u128>(limbs[1]) << 64;
  if (!limbs.empty()) out |= limbs[0];
  return out;
}
}  // namespace

TEST(BigUInt, ZeroBehaviour) {
  BigUInt z;
  EXPECT_TRUE(z.is_zero());
  EXPECT_EQ(z.bit_count(), 0u);
  EXPECT_EQ(z.to_string(), "0");
  EXPECT_EQ(z.low_word(), 0u);
  BigUInt z2(0);
  EXPECT_TRUE(z2.is_zero());
  EXPECT_EQ(z.compare(z2), 0);
}

TEST(BigUInt, AddSubRandomized) {
  reveal::num::Xoshiro256StarStar rng(101);
  for (int i = 0; i < 1000; ++i) {
    const u128 a = (static_cast<u128>(rng()) << 32) | rng();
    const u128 b = (static_cast<u128>(rng()) << 32) | rng();
    const u128 lo = a < b ? a : b;
    const u128 hi = a < b ? b : a;
    EXPECT_EQ(to_u128(from_u128(a) + from_u128(b)), a + b);
    EXPECT_EQ(to_u128(from_u128(hi) - from_u128(lo)), hi - lo);
  }
}

TEST(BigUInt, SubtractionUnderflowThrows) {
  EXPECT_THROW(BigUInt(3) -= BigUInt(5), std::domain_error);
}

TEST(BigUInt, MultiplyRandomized) {
  reveal::num::Xoshiro256StarStar rng(102);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t a = rng();
    const std::uint64_t b = rng();
    EXPECT_EQ(to_u128(BigUInt(a) * BigUInt(b)), static_cast<u128>(a) * b);
    EXPECT_EQ(to_u128(BigUInt(a) * b), static_cast<u128>(a) * b);
  }
}

TEST(BigUInt, Shifts) {
  BigUInt v(1);
  v <<= 100;
  EXPECT_EQ(v.bit_count(), 101u);
  EXPECT_TRUE(v.bit(100));
  EXPECT_FALSE(v.bit(99));
  v >>= 100;
  EXPECT_EQ(to_u128(v), 1u);
  v >>= 10;  // shifts to zero
  EXPECT_TRUE(v.is_zero());
}

TEST(BigUInt, CompareOrdering) {
  EXPECT_LT(BigUInt(3), BigUInt(5));
  EXPECT_GT(BigUInt(5), BigUInt(3));
  BigUInt big(1);
  big <<= 64;
  EXPECT_GT(big, BigUInt(~std::uint64_t{0}));
}

TEST(BigUInt, DivmodRandomized) {
  reveal::num::Xoshiro256StarStar rng(103);
  for (int i = 0; i < 300; ++i) {
    const u128 a = (static_cast<u128>(rng()) << 64) | rng();
    const u128 b = (static_cast<u128>(rng() % 0xFFFFFFFFull) + 1);
    const auto [q, r] = BigUInt::divmod(from_u128(a), from_u128(b));
    EXPECT_EQ(to_u128(q), a / b);
    EXPECT_EQ(to_u128(r), a % b);
  }
}

TEST(BigUInt, DivmodByZeroThrows) {
  EXPECT_THROW(BigUInt::divmod(BigUInt(1), BigUInt(0)), std::domain_error);
}

TEST(BigUInt, ModWord) {
  reveal::num::Xoshiro256StarStar rng(104);
  for (int i = 0; i < 300; ++i) {
    const u128 a = (static_cast<u128>(rng()) << 64) | rng();
    const std::uint64_t m = rng() | 1;
    EXPECT_EQ(from_u128(a).mod_word(m), static_cast<std::uint64_t>(a % m));
  }
  EXPECT_THROW((void)BigUInt(5).mod_word(0), std::domain_error);
}

TEST(BigUInt, ToStringKnownValues) {
  EXPECT_EQ(BigUInt(12345).to_string(), "12345");
  BigUInt v(1);
  v <<= 64;  // 2^64
  EXPECT_EQ(v.to_string(), "18446744073709551616");
}

TEST(BigUInt, CompositeChain) {
  // (2^64 - 1) * 132120577 + 42, then divide back out.
  const BigUInt q(132120577);
  const BigUInt x = BigUInt(~std::uint64_t{0}) * q + BigUInt(42);
  const auto [quot, rem] = BigUInt::divmod(x, q);
  EXPECT_EQ(quot, BigUInt(~std::uint64_t{0}));
  EXPECT_EQ(rem, BigUInt(42));
}
