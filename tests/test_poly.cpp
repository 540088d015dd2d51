// RNS polynomial operations.

#include <gtest/gtest.h>

#include "numeric/rng.hpp"
#include "seal/modarith.hpp"
#include "seal/poly.hpp"

namespace seal = reveal::seal;

namespace {

seal::Poly random_poly(std::size_t n, const std::vector<seal::Modulus>& moduli,
                       reveal::num::Xoshiro256StarStar& rng) {
  seal::Poly p(n, moduli.size());
  for (std::size_t j = 0; j < moduli.size(); ++j) {
    for (std::size_t i = 0; i < n; ++i) p.at(i, j) = rng() % moduli[j].value();
  }
  return p;
}

}  // namespace

class PolyOpsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    moduli_ = {seal::find_ntt_prime(20, kN), seal::find_ntt_prime(21, kN)};
    for (const auto& q : moduli_) tables_.emplace_back(kN, q);
  }
  static constexpr std::size_t kN = 64;
  std::vector<seal::Modulus> moduli_;
  std::vector<seal::NttTables> tables_;
  reveal::num::Xoshiro256StarStar rng_{123};
};

TEST_F(PolyOpsTest, LayoutMatchesSeal) {
  seal::Poly p(kN, 2);
  p.at(3, 1) = 99;
  // SEAL layout: poly[i + j*coeff_count].
  EXPECT_EQ(p.data()[3 + 1 * kN], 99u);
  EXPECT_EQ(p.component(1)[3], 99u);
}

TEST_F(PolyOpsTest, AddSubRoundtrip) {
  const seal::Poly a = random_poly(kN, moduli_, rng_);
  const seal::Poly b = random_poly(kN, moduli_, rng_);
  seal::Poly sum, back;
  seal::polyops::add(a, b, moduli_, sum);
  seal::polyops::sub(sum, b, moduli_, back);
  EXPECT_EQ(back, a);
}

TEST_F(PolyOpsTest, NegateTwiceIsIdentity) {
  const seal::Poly a = random_poly(kN, moduli_, rng_);
  seal::Poly n1, n2;
  seal::polyops::negate(a, moduli_, n1);
  seal::polyops::negate(n1, moduli_, n2);
  EXPECT_EQ(n2, a);
  // a + (-a) = 0.
  seal::Poly sum;
  seal::polyops::add(a, n1, moduli_, sum);
  EXPECT_EQ(sum, seal::Poly(kN, moduli_.size()));
}

TEST_F(PolyOpsTest, MultiplyNttMatchesSchoolbookPerComponent) {
  const seal::Poly a = random_poly(kN, moduli_, rng_);
  const seal::Poly b = random_poly(kN, moduli_, rng_);
  seal::Poly c;
  seal::polyops::multiply_ntt(a, b, tables_, c);
  for (std::size_t j = 0; j < moduli_.size(); ++j) {
    const auto& q = moduli_[j];
    for (std::size_t k = 0; k < kN; ++k) {
      std::uint64_t expect = 0;
      for (std::size_t i = 0; i < kN; ++i) {
        const std::size_t deg = i <= k ? k - i : kN + k - i;
        // coefficient of x^k gets a_i * b_{k-i} (+) and -a_i*b_{n+k-i}.
        const std::uint64_t prod = seal::mul_mod(a.at(i, j), b.at(deg, j), q);
        if (i <= k) expect = seal::add_mod(expect, prod, q);
        else expect = seal::sub_mod(expect, prod, q);
      }
      ASSERT_EQ(c.at(k, j), expect) << "j=" << j << " k=" << k;
    }
  }
}

TEST_F(PolyOpsTest, MultiplyByOneIsIdentity) {
  const seal::Poly a = random_poly(kN, moduli_, rng_);
  seal::Poly one(kN, moduli_.size());
  for (std::size_t j = 0; j < moduli_.size(); ++j) one.at(0, j) = 1;
  seal::Poly c;
  seal::polyops::multiply_ntt(a, one, tables_, c);
  EXPECT_EQ(c, a);
}

TEST_F(PolyOpsTest, MultiplyByXShiftsNegacyclically) {
  seal::Poly a(kN, moduli_.size());
  for (std::size_t j = 0; j < moduli_.size(); ++j) a.at(kN - 1, j) = 1;  // x^{n-1}
  seal::Poly x(kN, moduli_.size());
  for (std::size_t j = 0; j < moduli_.size(); ++j) x.at(1, j) = 1;  // x
  seal::Poly c;
  seal::polyops::multiply_ntt(a, x, tables_, c);
  // x^n = -1.
  for (std::size_t j = 0; j < moduli_.size(); ++j) {
    EXPECT_EQ(c.at(0, j), moduli_[j].value() - 1);
    for (std::size_t i = 1; i < kN; ++i) EXPECT_EQ(c.at(i, j), 0u);
  }
}

TEST_F(PolyOpsTest, ShapeMismatchThrows) {
  seal::Poly a(kN, 2), b(kN, 1), out;
  EXPECT_THROW(seal::polyops::add(a, b, moduli_, out), std::invalid_argument);
  std::vector<seal::Modulus> one_mod = {moduli_[0]};
  EXPECT_THROW(seal::polyops::add(a, a, one_mod, out), std::invalid_argument);
}

TEST_F(PolyOpsTest, InfinityNormCentered) {
  const seal::Modulus q = moduli_[0];
  seal::Poly p(kN, 1);
  p.at(0, 0) = 5;
  p.at(1, 0) = q.value() - 7;  // -7
  EXPECT_EQ(seal::polyops::infinity_norm_centered(p, q), 7u);
  seal::Poly two(kN, 2);
  EXPECT_THROW((void)seal::polyops::infinity_norm_centered(two, q), std::invalid_argument);
}
