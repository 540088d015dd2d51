// Polynomial operations mod q.

#include <gtest/gtest.h>

#include "numeric/rng.hpp"
#include "seal/modarith.hpp"
#include "seal/poly.hpp"

namespace seal = reveal::seal;

namespace {

seal::Poly random_poly(std::size_t n, const seal::Modulus& q,
                       reveal::num::Xoshiro256StarStar& rng) {
  seal::Poly p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = rng() % q.value();
  return p;
}

}  // namespace

class PolyOpsTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 64;
  const seal::Modulus q_ = seal::find_ntt_prime(20, kN);
  const seal::NttTables tables_{kN, q_};
  reveal::num::Xoshiro256StarStar rng_{123};
};

TEST_F(PolyOpsTest, LayoutMatchesSeal) {
  seal::Poly p(kN);
  p[3] = 99;
  // SEAL layout: poly[i] through the raw pointer the sampler writes.
  EXPECT_EQ(p.data()[3], 99u);
  EXPECT_EQ(p.coeff_count(), kN);
}

TEST_F(PolyOpsTest, AddSubRoundtrip) {
  const seal::Poly a = random_poly(kN, q_, rng_);
  const seal::Poly b = random_poly(kN, q_, rng_);
  seal::Poly sum, back;
  seal::polyops::add(a, b, q_, sum);
  seal::polyops::sub(sum, b, q_, back);
  EXPECT_EQ(back, a);
}

TEST_F(PolyOpsTest, NegateTwiceIsIdentity) {
  const seal::Poly a = random_poly(kN, q_, rng_);
  seal::Poly n1, n2;
  seal::polyops::negate(a, q_, n1);
  seal::polyops::negate(n1, q_, n2);
  EXPECT_EQ(n2, a);
  // a + (-a) = 0.
  seal::Poly sum;
  seal::polyops::add(a, n1, q_, sum);
  EXPECT_EQ(sum, seal::Poly(kN));
}

TEST_F(PolyOpsTest, MultiplyNttMatchesSchoolbookPerComponent) {
  const seal::Poly a = random_poly(kN, q_, rng_);
  const seal::Poly b = random_poly(kN, q_, rng_);
  seal::Poly c;
  seal::polyops::multiply_ntt(a, b, tables_, c);
  for (std::size_t k = 0; k < kN; ++k) {
    std::uint64_t expect = 0;
    for (std::size_t i = 0; i < kN; ++i) {
      const std::size_t deg = i <= k ? k - i : kN + k - i;
      // coefficient of x^k gets a_i * b_{k-i} (+) and -a_i*b_{n+k-i}.
      const std::uint64_t prod = seal::mul_mod(a[i], b[deg], q_);
      if (i <= k) expect = seal::add_mod(expect, prod, q_);
      else expect = seal::sub_mod(expect, prod, q_);
    }
    ASSERT_EQ(c[k], expect) << "k=" << k;
  }
}

TEST_F(PolyOpsTest, MultiplyByOneIsIdentity) {
  const seal::Poly a = random_poly(kN, q_, rng_);
  seal::Poly one(kN);
  one[0] = 1;
  seal::Poly c;
  seal::polyops::multiply_ntt(a, one, tables_, c);
  EXPECT_EQ(c, a);
}

TEST_F(PolyOpsTest, MultiplyByXShiftsNegacyclically) {
  seal::Poly a(kN);
  a[kN - 1] = 1;  // x^{n-1}
  seal::Poly x(kN);
  x[1] = 1;  // x
  seal::Poly c;
  seal::polyops::multiply_ntt(a, x, tables_, c);
  // x^n = -1.
  EXPECT_EQ(c[0], q_.value() - 1);
  for (std::size_t i = 1; i < kN; ++i) EXPECT_EQ(c[i], 0u);
}

TEST_F(PolyOpsTest, ShapeMismatchThrows) {
  seal::Poly a(kN), b(kN / 2), out;
  EXPECT_THROW(seal::polyops::add(a, b, q_, out), std::invalid_argument);
  EXPECT_THROW(seal::polyops::ntt_forward(b, tables_), std::invalid_argument);
}

TEST_F(PolyOpsTest, InfinityNormCentered) {
  seal::Poly p(kN);
  p[0] = 5;
  p[1] = q_.value() - 7;  // -7
  EXPECT_EQ(seal::polyops::infinity_norm_centered(p, q_), 7u);
}
