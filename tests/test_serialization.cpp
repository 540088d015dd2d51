// Serialization roundtrips, corruption handling, and an offline
// (serialize -> deserialize -> decrypt) workflow.

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "seal/decryptor.hpp"
#include "seal/encryptor.hpp"
#include "seal/serialization.hpp"

namespace seal = reveal::seal;

namespace {

/// FNV-1a 64 of a byte string.
std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct World {
  World()
      : ctx(seal::EncryptionParameters::toy_256()),
        rng(88),
        keygen(ctx, rng),
        encryptor(ctx, keygen.public_key()),
        decryptor(ctx, keygen.secret_key()) {}
  seal::Context ctx;
  seal::StandardRandomGenerator rng;
  seal::KeyGenerator keygen;
  seal::Encryptor encryptor;
  seal::Decryptor decryptor;
};

}  // namespace

TEST(Serialization, PolyRoundtrip) {
  seal::Poly p(16);
  for (std::size_t i = 0; i < 16; ++i) p[i] = i * 100 + 1;
  std::stringstream ss;
  seal::save_poly(p, ss);
  const seal::Poly q = seal::load_poly(ss);
  EXPECT_EQ(p, q);
}

TEST(Serialization, PlaintextRoundtrip) {
  const seal::Plaintext plain(std::vector<std::uint64_t>{1, 2, 3, 0, 5});
  std::stringstream ss;
  seal::save_plaintext(plain, ss);
  EXPECT_EQ(seal::load_plaintext(ss), plain);
}

TEST(Serialization, CiphertextRoundtripDecrypts) {
  World w;
  const seal::Plaintext plain(std::vector<std::uint64_t>{7, 8, 9});
  const seal::Ciphertext ct = w.encryptor.encrypt(plain, w.rng);
  std::stringstream ss;
  seal::save_ciphertext(ct, ss);
  const seal::Ciphertext loaded = seal::load_ciphertext(ss);
  ASSERT_EQ(loaded.size(), ct.size());
  EXPECT_EQ(loaded[0], ct[0]);
  EXPECT_EQ(w.decryptor.decrypt(loaded), plain);
}

TEST(Serialization, KeyRoundtrips) {
  World w;
  std::stringstream pk_stream, sk_stream;
  seal::save_public_key(w.keygen.public_key(), pk_stream);
  seal::save_secret_key(w.keygen.secret_key(), sk_stream);
  const seal::PublicKey pk = seal::load_public_key(pk_stream);
  const seal::SecretKey sk = seal::load_secret_key(sk_stream);
  EXPECT_EQ(pk.p0, w.keygen.public_key().p0);
  EXPECT_EQ(pk.p1, w.keygen.public_key().p1);
  EXPECT_EQ(sk.s, w.keygen.secret_key().s);

  // Loaded keys are fully functional.
  const seal::Encryptor enc2(w.ctx, pk);
  const seal::Decryptor dec2(w.ctx, sk);
  const seal::Plaintext plain(std::uint64_t{33});
  EXPECT_EQ(dec2.decrypt(enc2.encrypt(plain, w.rng)), plain);
}

TEST(Serialization, WrongMagicRejected) {
  World w;
  std::stringstream ss;
  seal::save_public_key(w.keygen.public_key(), ss);
  EXPECT_THROW((void)seal::load_ciphertext(ss), std::runtime_error);
}

TEST(Serialization, TruncatedStreamRejected) {
  World w;
  std::stringstream ss;
  seal::save_ciphertext(w.encryptor.encrypt(seal::Plaintext(std::uint64_t{1}), w.rng), ss);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW((void)seal::load_ciphertext(truncated), std::runtime_error);
}

TEST(Serialization, GarbageRejected) {
  std::stringstream ss("this is definitely not a ciphertext");
  EXPECT_THROW((void)seal::load_ciphertext(ss), std::runtime_error);
}

TEST(Serialization, ConformsTo) {
  World w;
  seal::Poly good(w.ctx.n());
  EXPECT_TRUE(seal::conforms_to(good, w.ctx));
  seal::Poly wrong_shape(w.ctx.n() / 2);
  EXPECT_FALSE(seal::conforms_to(wrong_shape, w.ctx));
  seal::Poly unreduced(w.ctx.n());
  unreduced[0] = w.ctx.coeff_modulus().value();  // == q: not reduced
  EXPECT_FALSE(seal::conforms_to(unreduced, w.ctx));
}

TEST(Serialization, FileHelpersRoundtrip) {
  World w;
  const auto dir = std::filesystem::temp_directory_path();
  const std::string ct_path = (dir / "reveal_ct.bin").string();
  const std::string pk_path = (dir / "reveal_pk.bin").string();

  const seal::Plaintext plain(std::vector<std::uint64_t>{4, 5});
  seal::save_ciphertext_file(w.encryptor.encrypt(plain, w.rng), ct_path);
  seal::save_public_key_file(w.keygen.public_key(), pk_path);

  const seal::Ciphertext ct = seal::load_ciphertext_file(ct_path);
  const seal::PublicKey pk = seal::load_public_key_file(pk_path);
  EXPECT_EQ(w.decryptor.decrypt(ct), plain);
  EXPECT_EQ(pk.p1, w.keygen.public_key().p1);

  std::remove(ct_path.c_str());
  std::remove(pk_path.c_str());
  EXPECT_THROW((void)seal::load_ciphertext_file("/nonexistent/x.bin"), std::runtime_error);
}

TEST(Serialization, ArtifactBytesArePinned) {
  // attack_cli's parameters with fixed seeds. The digests pin the bytes of
  // the pk.bin and ct.bin formats and, through them, the draw order of
  // keygen and encryption and the arithmetic behind every coefficient.
  seal::EncryptionParameters parms;
  parms.set_poly_modulus_degree(64);
  parms.set_coeff_modulus({seal::Modulus(132120577ULL)});
  parms.set_plain_modulus(256);
  const seal::Context ctx(parms);
  seal::StandardRandomGenerator rng(4242);
  const seal::KeyGenerator keygen(ctx, rng);
  const seal::Encryptor encryptor(ctx, keygen.public_key());
  std::vector<std::uint64_t> msg(64);
  for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = (i * 29 + 3) % 256;
  const seal::Ciphertext ct = encryptor.encrypt(seal::Plaintext(msg), rng);

  std::stringstream pk_bytes, ct_bytes;
  seal::save_public_key(keygen.public_key(), pk_bytes);
  seal::save_ciphertext(ct, ct_bytes);
  // Header (tag, version), then per poly: n, component count 1, n words.
  EXPECT_EQ(pk_bytes.str().size(), 8u + 2 * (16 + 64 * 8));
  EXPECT_EQ(ct_bytes.str().size(), 8u + 8 + 2 * (16 + 64 * 8));
  EXPECT_EQ(fnv1a64(pk_bytes.str()), 0x02b9e479573edff7ULL);
  EXPECT_EQ(fnv1a64(ct_bytes.str()), 0x9611a8a93fc552a5ULL);
}
