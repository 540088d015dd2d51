// Tests for Modulus (Barrett reduction) and scalar modular arithmetic.

#include <gtest/gtest.h>

#include "numeric/rng.hpp"
#include "seal/modarith.hpp"
#include "seal/modulus.hpp"

namespace seal = reveal::seal;

namespace {
__extension__ typedef unsigned __int128 u128;
}

TEST(Modulus, RejectsBadValues) {
  EXPECT_THROW(seal::Modulus(0), std::invalid_argument);
  EXPECT_THROW(seal::Modulus(1), std::invalid_argument);
  EXPECT_THROW(seal::Modulus(std::uint64_t{1} << 61), std::invalid_argument);
  EXPECT_NO_THROW(seal::Modulus(2));
  EXPECT_NO_THROW(seal::Modulus((std::uint64_t{1} << 61) - 1));
}

TEST(Modulus, BasicProperties) {
  const seal::Modulus q(132120577);
  EXPECT_EQ(q.value(), 132120577u);
  EXPECT_EQ(q.bit_count(), 27);
  EXPECT_TRUE(q.is_prime());
}

TEST(Modulus, ReduceMatchesOperatorPercent) {
  reveal::num::Xoshiro256StarStar rng(2024);
  const std::uint64_t moduli[] = {2, 3, 132120577, (std::uint64_t{1} << 61) - 1, 4294967291ULL};
  for (const std::uint64_t m : moduli) {
    const seal::Modulus q(m);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t x = rng();
      EXPECT_EQ(q.reduce(x), x % m) << "m=" << m << " x=" << x;
    }
  }
}

TEST(Modulus, Reduce128MatchesWideModulo) {
  reveal::num::Xoshiro256StarStar rng(7);
  const std::uint64_t moduli[] = {3, 97, 132120577, (std::uint64_t{1} << 61) - 1};
  for (const std::uint64_t m : moduli) {
    const seal::Modulus q(m);
    for (int i = 0; i < 2000; ++i) {
      const std::uint64_t hi = rng();
      const std::uint64_t lo = rng();
      const u128 wide = (static_cast<u128>(hi) << 64) | lo;
      EXPECT_EQ(q.reduce128(hi, lo), static_cast<std::uint64_t>(wide % m));
    }
  }
}

TEST(Primality, KnownValues) {
  EXPECT_FALSE(seal::is_prime_u64(0));
  EXPECT_FALSE(seal::is_prime_u64(1));
  EXPECT_TRUE(seal::is_prime_u64(2));
  EXPECT_TRUE(seal::is_prime_u64(3));
  EXPECT_FALSE(seal::is_prime_u64(4));
  EXPECT_TRUE(seal::is_prime_u64(132120577));
  EXPECT_TRUE(seal::is_prime_u64((std::uint64_t{1} << 61) - 1));  // Mersenne
  EXPECT_FALSE(seal::is_prime_u64(3215031751ULL));  // strong pseudoprime to 2,3,5,7
  EXPECT_TRUE(seal::is_prime_u64(18446744073709551557ULL));  // largest 64-bit prime
}

TEST(Primality, FindNttPrime) {
  const seal::Modulus q = seal::find_ntt_prime(27, 1024);
  EXPECT_TRUE(q.is_prime());
  EXPECT_EQ((q.value() - 1) % 2048, 0u);
  EXPECT_LT(q.value(), std::uint64_t{1} << 27);
  // The paper's modulus is an NTT prime for n = 1024.
  EXPECT_EQ((132120577 - 1) % 2048, 0);
}

TEST(ModArith, AddSubNegate) {
  const seal::Modulus q(17);
  EXPECT_EQ(seal::add_mod(16, 5, q), 4u);
  EXPECT_EQ(seal::sub_mod(3, 5, q), 15u);
  EXPECT_EQ(seal::negate_mod(0, q), 0u);
  EXPECT_EQ(seal::negate_mod(5, q), 12u);
}

TEST(ModArith, MulModMatchesWide) {
  reveal::num::Xoshiro256StarStar rng(55);
  const seal::Modulus q((std::uint64_t{1} << 61) - 1);
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t a = rng() % q.value();
    const std::uint64_t b = rng() % q.value();
    const u128 expect = static_cast<u128>(a) * b % q.value();
    EXPECT_EQ(seal::mul_mod(a, b, q), static_cast<std::uint64_t>(expect));
  }
}

TEST(ModArith, PowMod) {
  const seal::Modulus q(97);
  EXPECT_EQ(seal::pow_mod(2, 0, q), 1u);
  EXPECT_EQ(seal::pow_mod(2, 10, q), 1024 % 97);
  // Fermat: a^(q-1) = 1.
  for (std::uint64_t a = 1; a < 20; ++a) EXPECT_EQ(seal::pow_mod(a, 96, q), 1u);
}

TEST(ModArith, InverseMod) {
  const seal::Modulus q(132120577);
  for (std::uint64_t a : {2ULL, 3ULL, 12345ULL, 132120576ULL}) {
    const std::uint64_t inv = seal::inverse_mod(a, q);
    EXPECT_EQ(seal::mul_mod(a, inv, q), 1u);
  }
  EXPECT_THROW((void)seal::inverse_mod(0, q), std::invalid_argument);
  const seal::Modulus composite(16);
  EXPECT_THROW((void)seal::inverse_mod(3, composite), std::invalid_argument);
}

TEST(ModArith, PrimitiveRoot) {
  const seal::Modulus q(132120577);
  const std::uint64_t psi = seal::minimal_primitive_root(2048, q);
  // psi^1024 = -1 and psi^2048 = 1.
  EXPECT_EQ(seal::pow_mod(psi, 1024, q), q.value() - 1);
  EXPECT_EQ(seal::pow_mod(psi, 2048, q), 1u);
  // Minimality: psi is the smallest among all primitive 2048th roots.
  std::uint64_t any_root = 0;
  ASSERT_TRUE(seal::try_primitive_root(2048, q, any_root));
  EXPECT_LE(psi, any_root);
}

TEST(ModArith, PrimitiveRootFailsWhenImpossible) {
  const seal::Modulus q(17);  // 16 = 2^4; no 64th root of unity
  std::uint64_t root = 0;
  EXPECT_FALSE(seal::try_primitive_root(64, q, root));
  EXPECT_THROW((void)seal::minimal_primitive_root(64, q), std::runtime_error);
}

TEST(ModArith, CenterMod) {
  const seal::Modulus q(17);
  EXPECT_EQ(seal::center_mod(0, q), 0);
  EXPECT_EQ(seal::center_mod(8, q), 8);
  EXPECT_EQ(seal::center_mod(9, q), -8);
  EXPECT_EQ(seal::center_mod(16, q), -1);
}
