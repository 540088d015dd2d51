#pragma once
// Binary serialization of the BFV value types (polys, plaintexts,
// ciphertexts, keys) — stream-based with per-type magic tags and a file
// convenience layer. The format is little-endian and
// versioned; loads validate structure and throw std::runtime_error on
// corrupt or mismatched data.

#include <iosfwd>
#include <string>

#include "seal/ciphertext.hpp"
#include "seal/encryption_params.hpp"
#include "seal/keys.hpp"
#include "seal/poly.hpp"

namespace reveal::seal {

void save_poly(const Poly& poly, std::ostream& out);
[[nodiscard]] Poly load_poly(std::istream& in);

void save_plaintext(const Plaintext& plain, std::ostream& out);
[[nodiscard]] Plaintext load_plaintext(std::istream& in);

void save_ciphertext(const Ciphertext& ct, std::ostream& out);
[[nodiscard]] Ciphertext load_ciphertext(std::istream& in);

void save_public_key(const PublicKey& pk, std::ostream& out);
[[nodiscard]] PublicKey load_public_key(std::istream& in);

void save_secret_key(const SecretKey& sk, std::ostream& out);
[[nodiscard]] SecretKey load_secret_key(std::istream& in);

/// True if the poly has the context's degree and every coefficient is
/// reduced mod q.
[[nodiscard]] bool conforms_to(const Poly& poly, const Context& context);

/// File helpers (throw std::runtime_error on I/O failure).
void save_ciphertext_file(const Ciphertext& ct, const std::string& path);
[[nodiscard]] Ciphertext load_ciphertext_file(const std::string& path);
void save_public_key_file(const PublicKey& pk, const std::string& path);
[[nodiscard]] PublicKey load_public_key_file(const std::string& path);

}  // namespace reveal::seal
