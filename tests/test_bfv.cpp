// End-to-end BFV scheme tests: context validation, encrypt/decrypt
// roundtrips, encryption witnesses.

#include <gtest/gtest.h>

#include <cstdlib>

#include "seal/decryptor.hpp"
#include "seal/encryption_params.hpp"
#include "seal/encryptor.hpp"
#include "seal/keys.hpp"

namespace seal = reveal::seal;

namespace {

struct BfvFixture {
  explicit BfvFixture(seal::EncryptionParameters parms, std::uint64_t seed = 1234)
      : ctx(std::move(parms)), rng(seed), keygen(ctx, rng),
        encryptor(ctx, keygen.public_key()), decryptor(ctx, keygen.secret_key()) {}
  seal::Context ctx;
  seal::StandardRandomGenerator rng;
  seal::KeyGenerator keygen;
  seal::Encryptor encryptor;
  seal::Decryptor decryptor;
};

}  // namespace

TEST(Context, ValidatesParameters) {
  seal::EncryptionParameters p;
  EXPECT_THROW(seal::Context{p}, std::invalid_argument);  // nothing set

  p = seal::EncryptionParameters::toy_256();
  p.set_poly_modulus_degree(100);  // not a power of two
  EXPECT_THROW(seal::Context{p}, std::invalid_argument);

  p = seal::EncryptionParameters::toy_256();
  p.set_coeff_modulus({seal::Modulus(1048573)});  // prime but not ≡ 1 mod 512
  EXPECT_THROW(seal::Context{p}, std::invalid_argument);

  p = seal::EncryptionParameters::toy_256();
  const auto q = p.coeff_modulus()[0];
  p.set_coeff_modulus({q, q});  // duplicate moduli
  EXPECT_THROW(seal::Context{p}, std::invalid_argument);

  p = seal::EncryptionParameters::toy_256();
  p.set_plain_modulus(p.coeff_modulus()[0].value());  // t == q
  EXPECT_THROW(seal::Context{p}, std::invalid_argument);

  p = seal::EncryptionParameters::toy_256();
  p.set_noise_standard_deviation(-1.0);
  EXPECT_THROW(seal::Context{p}, std::invalid_argument);
}

TEST(Context, DeltaComputation) {
  const seal::Context ctx(seal::EncryptionParameters::seal_128_1024());
  // Delta = floor(q / t) = floor(132120577 / 256).
  EXPECT_EQ(ctx.delta().low_word(), 132120577ULL / 256);
  EXPECT_EQ(ctx.delta_mod_qj()[0], 132120577ULL / 256 % 132120577ULL);
  EXPECT_EQ(ctx.total_coeff_modulus().low_word(), 132120577ULL);
}

TEST(Bfv, EncryptDecryptRoundtripToy) {
  BfvFixture f(seal::EncryptionParameters::toy_256());
  const seal::Plaintext m(std::vector<std::uint64_t>{1, 2, 3, 63, 0, 7});
  const seal::Ciphertext ct = f.encryptor.encrypt(m, f.rng);
  EXPECT_EQ(f.decryptor.decrypt(ct), m);
}

TEST(Bfv, EncryptDecryptRoundtripPaperParams) {
  BfvFixture f(seal::EncryptionParameters::seal_128_1024());
  std::vector<std::uint64_t> msg(1024);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = (i * 37 + 11) % 256;
  const seal::Plaintext m(msg);
  const seal::Ciphertext ct = f.encryptor.encrypt(m, f.rng);
  EXPECT_EQ(f.decryptor.decrypt(ct), m);
}

TEST(Bfv, EncryptDecryptMultiModulus) {
  seal::EncryptionParameters p;
  p.set_poly_modulus_degree(256);
  p.set_coeff_modulus(seal::find_ntt_primes(25, 256, 2));
  p.set_plain_modulus(64);
  BfvFixture f(std::move(p));
  const seal::Plaintext m(std::vector<std::uint64_t>{5, 0, 63, 1});
  const seal::Ciphertext ct = f.encryptor.encrypt(m, f.rng);
  EXPECT_EQ(f.decryptor.decrypt(ct), m);
}

TEST(Bfv, PatchedSamplerAlsoDecrypts) {
  seal::EncryptionParameters parms = seal::EncryptionParameters::toy_256();
  const seal::Context ctx(parms);
  seal::StandardRandomGenerator rng(99);
  seal::KeyGenerator keygen(ctx, rng);
  seal::Encryptor enc(ctx, keygen.public_key(), seal::SamplerVariant::kPatchedV36);
  seal::Decryptor dec(ctx, keygen.secret_key());
  const seal::Plaintext m(std::vector<std::uint64_t>{9, 8, 7});
  EXPECT_EQ(dec.decrypt(enc.encrypt(m, rng)), m);
}

TEST(Bfv, WitnessReproducesCiphertext) {
  BfvFixture f(seal::EncryptionParameters::toy_256());
  const seal::Plaintext m(std::vector<std::uint64_t>{4, 5, 6});
  seal::EncryptionWitness witness;
  const seal::Ciphertext ct = f.encryptor.encrypt(m, f.rng, &witness);
  const seal::Ciphertext ct2 = f.encryptor.encrypt_with_witness(m, witness);
  EXPECT_EQ(ct[0], ct2[0]);
  EXPECT_EQ(ct[1], ct2[1]);
}

TEST(Bfv, WitnessNoiseBounded) {
  BfvFixture f(seal::EncryptionParameters::toy_256());
  seal::EncryptionWitness witness;
  (void)f.encryptor.encrypt(seal::Plaintext(std::uint64_t{1}), f.rng, &witness);
  for (const auto v : witness.e1) EXPECT_LE(std::llabs(v), 41);
  for (const auto v : witness.e2) EXPECT_LE(std::llabs(v), 41);
}

TEST(Bfv, DecryptRejectsNonFreshCiphertext) {
  BfvFixture f(seal::EncryptionParameters::toy_256());
  seal::Ciphertext ct = f.encryptor.encrypt(seal::Plaintext(std::uint64_t{1}), f.rng);
  ct.push_back(seal::Poly(f.ctx.n(), f.ctx.coeff_mod_count()));
  EXPECT_THROW((void)f.decryptor.decrypt(ct), std::invalid_argument);
  EXPECT_THROW((void)f.decryptor.decrypt(seal::Ciphertext{}), std::invalid_argument);
  // The shared rounding step rejects a polynomial of another shape.
  EXPECT_THROW((void)seal::decode_scaled(f.ctx, seal::Poly(f.ctx.n() / 2, 1)),
               std::invalid_argument);
}
