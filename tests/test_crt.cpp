// CRT composer tests.

#include <gtest/gtest.h>

#include "numeric/rng.hpp"
#include "seal/crt.hpp"
#include "seal/modulus.hpp"

namespace seal = reveal::seal;

TEST(Crt, SingleModulusIsIdentity) {
  const seal::CrtComposer crt({seal::Modulus(97)});
  EXPECT_EQ(crt.compose({std::uint64_t{42}}).low_word(), 42u);
  EXPECT_EQ(crt.total_modulus().low_word(), 97u);
}

TEST(Crt, TwoModuliKnownValue) {
  // x = 23: 23 mod 7 = 2, 23 mod 11 = 1.
  const seal::CrtComposer crt({seal::Modulus(7), seal::Modulus(11)});
  EXPECT_EQ(crt.compose({2, 1}).low_word(), 23u);
  EXPECT_EQ(crt.total_modulus().low_word(), 77u);
}

TEST(Crt, RoundtripRandomized) {
  const std::vector<seal::Modulus> moduli = {
      seal::Modulus(132120577ULL), seal::Modulus(1073479681ULL), seal::Modulus(97)};
  const seal::CrtComposer crt(moduli);
  reveal::num::Xoshiro256StarStar rng(31);
  for (int rep = 0; rep < 200; ++rep) {
    // Draw x < q via limbs, reduce per modulus, recompose.
    const std::uint64_t lo = rng();
    const std::uint64_t hi = rng() % 97;  // keep x < q (~2^63)
    seal::BigUInt x(hi);
    x <<= 56;
    x += seal::BigUInt(lo % (std::uint64_t{1} << 56));
    if (x >= crt.total_modulus()) continue;
    std::vector<std::uint64_t> residues;
    for (const auto& m : moduli) residues.push_back(x.mod_word(m.value()));
    EXPECT_EQ(crt.compose(residues), x) << rep;
  }
}

TEST(Crt, PolyComposition) {
  const std::vector<seal::Modulus> moduli = {seal::Modulus(7), seal::Modulus(11)};
  const seal::CrtComposer crt(moduli);
  seal::Poly p(4, 2);
  p.at(2, 0) = 2;  // 23 mod 7
  p.at(2, 1) = 1;  // 23 mod 11
  EXPECT_EQ(crt.compose(p, 2).low_word(), 23u);
  EXPECT_TRUE(crt.compose(p, 0).is_zero());
}

TEST(Crt, Validation) {
  EXPECT_THROW(seal::CrtComposer({}), std::invalid_argument);
  // Non-coprime moduli have no CRT inverse.
  EXPECT_THROW(seal::CrtComposer({seal::Modulus(8), seal::Modulus(12)}),
               std::invalid_argument);
  const seal::CrtComposer crt({seal::Modulus(7), seal::Modulus(11)});
  EXPECT_THROW((void)crt.compose({std::uint64_t{1}}), std::invalid_argument);
}
