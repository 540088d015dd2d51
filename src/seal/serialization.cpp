#include "seal/serialization.hpp"

#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace reveal::seal {

namespace {

constexpr std::uint32_t kPolyTag = 0x59'4C'4F'50;        // "POLY"
constexpr std::uint32_t kPlainTag = 0x4E'4C'50'42;       // "BPLN"
constexpr std::uint32_t kCiphertextTag = 0x54'58'43'42;  // "BCXT"
constexpr std::uint32_t kPublicKeyTag = 0x4B'42'55'50;   // "PUBK"
constexpr std::uint32_t kSecretKeyTag = 0x4B'43'45'53;   // "SECK"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_raw(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_raw(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) throw std::runtime_error("serialization: unexpected end of stream");
  return value;
}

void write_header(std::ostream& out, std::uint32_t tag) {
  write_raw(out, tag);
  write_raw(out, kVersion);
}

void expect_header(std::istream& in, std::uint32_t tag, const char* what) {
  const auto got_tag = read_raw<std::uint32_t>(in);
  const auto got_version = read_raw<std::uint32_t>(in);
  if (got_tag != tag)
    throw std::runtime_error(std::string("serialization: bad magic for ") + what);
  if (got_version != kVersion)
    throw std::runtime_error(std::string("serialization: unsupported version for ") + what);
}

void write_u64_vector(std::ostream& out, const std::uint64_t* data, std::size_t count) {
  write_raw<std::uint64_t>(out, count);
  out.write(reinterpret_cast<const char*>(data),
            static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
}

std::vector<std::uint64_t> read_u64_vector(std::istream& in, std::uint64_t max_count) {
  const auto count = read_raw<std::uint64_t>(in);
  // max_count is always <= kMaxElements (2^28) at the call sites, so after
  // this check `count * sizeof(std::uint64_t)` is <= 2^31 and the streamsize
  // cast below cannot wrap.
  if (count > max_count)
    throw std::runtime_error("serialization: implausible element count");
  std::vector<std::uint64_t> data(count);
  in.read(reinterpret_cast<char*>(data.data()),
          static_cast<std::streamsize>(count * sizeof(std::uint64_t)));
  if (!in) throw std::runtime_error("serialization: unexpected end of stream");
  return data;
}

constexpr std::uint64_t kMaxElements = std::uint64_t{1} << 28;  // 2 GiB guard

void save_poly_body(const Poly& poly, std::ostream& out) {
  write_raw<std::uint64_t>(out, poly.coeff_count());
  // Component count: the format keeps the field of the RNS layout, which
  // with the one coefficient modulus is always 1.
  write_raw<std::uint64_t>(out, 1);
  out.write(reinterpret_cast<const char*>(poly.data()),
            static_cast<std::streamsize>(poly.coeff_count() * sizeof(std::uint64_t)));
}

Poly load_poly_body(std::istream& in) {
  const auto n = read_raw<std::uint64_t>(in);
  const auto components = read_raw<std::uint64_t>(in);
  if (components != 1)
    throw std::runtime_error("serialization: a poly has exactly one component");
  if (n == 0 || n > kMaxElements)
    throw std::runtime_error("serialization: implausible poly shape");
  Poly poly(n);
  // n <= kMaxElements (2^28), so the byte count is <= 2^31 and the
  // streamsize cast cannot wrap.
  in.read(reinterpret_cast<char*>(poly.data()),
          static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
  if (!in) throw std::runtime_error("serialization: unexpected end of stream");
  return poly;
}

}  // namespace

void save_poly(const Poly& poly, std::ostream& out) {
  write_header(out, kPolyTag);
  save_poly_body(poly, out);
  if (!out) throw std::runtime_error("serialization: write failed");
}

Poly load_poly(std::istream& in) {
  expect_header(in, kPolyTag, "poly");
  return load_poly_body(in);
}

void save_plaintext(const Plaintext& plain, std::ostream& out) {
  write_header(out, kPlainTag);
  write_u64_vector(out, plain.coeffs().data(), plain.coeff_count());
  if (!out) throw std::runtime_error("serialization: write failed");
}

Plaintext load_plaintext(std::istream& in) {
  expect_header(in, kPlainTag, "plaintext");
  return Plaintext(read_u64_vector(in, kMaxElements));
}

void save_ciphertext(const Ciphertext& ct, std::ostream& out) {
  write_header(out, kCiphertextTag);
  write_raw<std::uint64_t>(out, ct.size());
  for (std::size_t i = 0; i < ct.size(); ++i) save_poly_body(ct[i], out);
  if (!out) throw std::runtime_error("serialization: write failed");
}

Ciphertext load_ciphertext(std::istream& in) {
  expect_header(in, kCiphertextTag, "ciphertext");
  // Only fresh (c0, c1) ciphertexts exist: nothing in the library makes or
  // takes any other size.
  if (read_raw<std::uint64_t>(in) != 2)
    throw std::runtime_error("serialization: a ciphertext has exactly two components");
  Ciphertext ct;
  ct.push_back(load_poly_body(in));
  ct.push_back(load_poly_body(in));
  return ct;
}

void save_public_key(const PublicKey& pk, std::ostream& out) {
  write_header(out, kPublicKeyTag);
  save_poly_body(pk.p0, out);
  save_poly_body(pk.p1, out);
  if (!out) throw std::runtime_error("serialization: write failed");
}

PublicKey load_public_key(std::istream& in) {
  expect_header(in, kPublicKeyTag, "public key");
  PublicKey pk;
  pk.p0 = load_poly_body(in);
  pk.p1 = load_poly_body(in);
  return pk;
}

void save_secret_key(const SecretKey& sk, std::ostream& out) {
  write_header(out, kSecretKeyTag);
  save_poly_body(sk.s, out);
  if (!out) throw std::runtime_error("serialization: write failed");
}

SecretKey load_secret_key(std::istream& in) {
  expect_header(in, kSecretKeyTag, "secret key");
  SecretKey sk;
  sk.s = load_poly_body(in);
  return sk;
}

bool conforms_to(const Poly& poly, const Context& context) {
  if (poly.coeff_count() != context.n()) return false;
  const std::uint64_t q = context.coeff_modulus().value();
  for (std::size_t i = 0; i < poly.coeff_count(); ++i) {
    if (poly[i] >= q) return false;
  }
  return true;
}

void save_ciphertext_file(const Ciphertext& ct, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("serialization: cannot open " + path);
  save_ciphertext(ct, out);
}

Ciphertext load_ciphertext_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("serialization: cannot open " + path);
  return load_ciphertext(in);
}

void save_public_key_file(const PublicKey& pk, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("serialization: cannot open " + path);
  save_public_key(pk, out);
}

PublicKey load_public_key_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("serialization: cannot open " + path);
  return load_public_key(in);
}

}  // namespace reveal::seal
