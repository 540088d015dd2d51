// Cross-module property sweeps (parameterized / randomized with fixed
// seeds): algebraic laws that must hold for ALL inputs, exercised over
// parameter grids — the "wide net" compliment to the targeted unit tests.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "numeric/distributions.hpp"
#include "numeric/rng.hpp"
#include "seal/biguint.hpp"
#include "seal/decryptor.hpp"
#include "seal/encryptor.hpp"
#include "seal/keys.hpp"
#include "seal/modarith.hpp"
#include "seal/sampler.hpp"
#include "riscv/assembler.hpp"
#include "riscv/machine.hpp"

using namespace reveal;
namespace seal = reveal::seal;

namespace {
__extension__ typedef unsigned __int128 u128;
}

// ---------------------------------------------------------------------------
// Modular arithmetic laws over a grid of moduli.

class ModArithLaws : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ModArithLaws, FieldAxiomsHold) {
  const seal::Modulus q(GetParam());
  num::Xoshiro256StarStar rng(GetParam());
  for (int rep = 0; rep < 300; ++rep) {
    const std::uint64_t a = rng() % q.value();
    const std::uint64_t b = rng() % q.value();
    const std::uint64_t c = rng() % q.value();
    // Commutativity and associativity.
    ASSERT_EQ(seal::add_mod(a, b, q), seal::add_mod(b, a, q));
    ASSERT_EQ(seal::mul_mod(a, b, q), seal::mul_mod(b, a, q));
    ASSERT_EQ(seal::add_mod(seal::add_mod(a, b, q), c, q),
              seal::add_mod(a, seal::add_mod(b, c, q), q));
    ASSERT_EQ(seal::mul_mod(seal::mul_mod(a, b, q), c, q),
              seal::mul_mod(a, seal::mul_mod(b, c, q), q));
    // Distributivity.
    ASSERT_EQ(seal::mul_mod(a, seal::add_mod(b, c, q), q),
              seal::add_mod(seal::mul_mod(a, b, q), seal::mul_mod(a, c, q), q));
    // Additive inverse.
    ASSERT_EQ(seal::add_mod(a, seal::negate_mod(a, q), q), 0u);
    // Subtraction round trip.
    ASSERT_EQ(seal::add_mod(seal::sub_mod(a, b, q), b, q), a);
    // Multiplicative inverse (prime moduli, nonzero a).
    if (q.is_prime() && a != 0) {
      ASSERT_EQ(seal::mul_mod(a, seal::inverse_mod(a, q), q), 1u);
    }
    // Exponent law: a^(x+y) = a^x * a^y.
    const std::uint64_t x = rng() % 1000;
    const std::uint64_t y = rng() % 1000;
    ASSERT_EQ(seal::pow_mod(a, x + y, q),
              seal::mul_mod(seal::pow_mod(a, x, q), seal::pow_mod(a, y, q), q));
  }
}

INSTANTIATE_TEST_SUITE_P(ModulusGrid, ModArithLaws,
                         ::testing::Values(3ULL, 257ULL, 65537ULL, 132120577ULL,
                                           (std::uint64_t{1} << 61) - 1,
                                           4294967291ULL));

// ---------------------------------------------------------------------------
// BigUInt ring laws against 128-bit reference arithmetic.

TEST(BigUIntLaws, RingAxiomsRandomized) {
  num::Xoshiro256StarStar rng(777);
  for (int rep = 0; rep < 500; ++rep) {
    const std::uint64_t a = rng(), b = rng(), c = rng() % 1000;
    const seal::BigUInt A(a), B(b), C(c);
    // (A + B) * C == A*C + B*C — verified limb-exactly via decimal strings.
    const seal::BigUInt lhs = (A + B) * C;
    const seal::BigUInt rhs = A * C + B * C;
    ASSERT_EQ(lhs, rhs);
    // divmod law: A = q*B + r with r < B.
    if (b != 0) {
      const auto [quot, rem] = seal::BigUInt::divmod(A, B);
      ASSERT_LT(rem, B);
      ASSERT_EQ(quot * B + rem, A);
    }
    // Shift laws.
    seal::BigUInt shifted = A;
    shifted <<= 37;
    seal::BigUInt back = shifted;
    back >>= 37;
    ASSERT_EQ(back, A);
  }
}

// ---------------------------------------------------------------------------
// BFV: encrypt/decrypt roundtrip over a grid.

class BfvGrid
    : public ::testing::TestWithParam<std::tuple<std::size_t, int, std::uint64_t>> {};

TEST_P(BfvGrid, Roundtrip) {
  const auto [n, q_bits, t] = GetParam();
  seal::EncryptionParameters parms;
  parms.set_poly_modulus_degree(n);
  parms.set_coeff_modulus({seal::find_ntt_prime(q_bits, n)});
  parms.set_plain_modulus(t);
  const seal::Context ctx(parms);
  seal::StandardRandomGenerator rng(n * 1000 + q_bits);
  const seal::KeyGenerator keygen(ctx, rng);
  const seal::Encryptor encryptor(ctx, keygen.public_key());
  const seal::Decryptor decryptor(ctx, keygen.secret_key());

  num::Xoshiro256StarStar msg_rng(n + t);
  for (int rep = 0; rep < 3; ++rep) {
    std::vector<std::uint64_t> m(n);
    for (std::size_t i = 0; i < n; ++i) m[i] = msg_rng.uniform_below(t);
    const seal::Plaintext plain(m);
    ASSERT_EQ(decryptor.decrypt(encryptor.encrypt(plain, rng)), plain);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, BfvGrid,
    ::testing::Values(std::make_tuple(std::size_t{64}, 25, std::uint64_t{16}),
                      std::make_tuple(std::size_t{128}, 27, std::uint64_t{64}),
                      std::make_tuple(std::size_t{256}, 30, std::uint64_t{256}),
                      std::make_tuple(std::size_t{512}, 33, std::uint64_t{1024}),
                      std::make_tuple(std::size_t{1024}, 27, std::uint64_t{2})));

// ---------------------------------------------------------------------------
// RV32IM vs host-computed reference over random operands.

class MachineAluProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MachineAluProperty, MatchesHostSemantics) {
  using namespace reveal::riscv;
  num::Xoshiro256StarStar rng(GetParam());
  for (int rep = 0; rep < 60; ++rep) {
    const auto a = static_cast<std::uint32_t>(rng());
    const auto b = static_cast<std::uint32_t>(rng());
    Assembler as;
    as.li(a0, static_cast<std::int32_t>(a));
    as.li(a1, static_cast<std::int32_t>(b));
    as.add(a2, a0, a1);
    as.sub(a3, a0, a1);
    as.xor_(a4, a0, a1);
    as.and_(a5, a0, a1);
    as.or_(a6, a0, a1);
    as.mul(a7, a0, a1);
    as.sltu(t0, a0, a1);
    as.slt(t1, a0, a1);
    as.divu(t2, a0, a1);
    as.remu(t3, a0, a1);
    as.ebreak();
    Machine m(4096);
    m.load_program(as.assemble());
    ASSERT_EQ(m.run(100), Machine::StopReason::kHalt);
    ASSERT_EQ(m.reg(a2), a + b);
    ASSERT_EQ(m.reg(a3), a - b);
    ASSERT_EQ(m.reg(a4), a ^ b);
    ASSERT_EQ(m.reg(a5), a & b);
    ASSERT_EQ(m.reg(a6), a | b);
    ASSERT_EQ(m.reg(a7), a * b);
    ASSERT_EQ(m.reg(t0), a < b ? 1u : 0u);
    ASSERT_EQ(m.reg(t1),
              static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b) ? 1u : 0u);
    ASSERT_EQ(m.reg(t2), b == 0 ? ~0u : a / b);
    ASSERT_EQ(m.reg(t3), b == 0 ? a : a % b);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MachineAluProperty, ::testing::Values(1u, 2u, 3u));

// ---------------------------------------------------------------------------
// Sampler distribution invariance: library sampler, firmware sampler and
// the CDT sampler must agree on the coarse distribution shape.

TEST(SamplerAgreement, ZeroAndSignProbabilitiesMatchAcrossImplementations) {
  const double p0_expected = num::rounded_clipped_normal_pmf(0, 3.19, 41.0);

  // Library sampler.
  const seal::Context ctx(seal::EncryptionParameters::toy_256());
  seal::StandardRandomGenerator gen(1);
  std::size_t zeros = 0, total = 0, positives = 0;
  for (int rep = 0; rep < 80; ++rep) {
    std::vector<std::int64_t> sampled;
    (void)seal::sample_error_poly(gen, ctx, &sampled);
    for (const auto v : sampled) {
      zeros += (v == 0);
      positives += (v > 0);
      ++total;
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / static_cast<double>(total), p0_expected, 0.01);
  // Sign symmetry.
  EXPECT_NEAR(static_cast<double>(positives) / static_cast<double>(total),
              (1.0 - p0_expected) / 2.0, 0.01);
}
