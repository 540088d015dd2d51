#pragma once
// CRT (residue number system) composition: maps per-modulus residues back
// to the integer in [0, q1*...*qk). The BFV rounding step (decode_scaled,
// seal/decryptor.hpp) composes through it.

#include <cstdint>
#include <vector>

#include "seal/biguint.hpp"
#include "seal/modulus.hpp"
#include "seal/poly.hpp"

namespace reveal::seal {

class CrtComposer {
 public:
  /// Precomputes the punctured products q/q_j and their inverses mod q_j.
  /// Moduli must be pairwise coprime (primes in practice); throws
  /// std::invalid_argument if an inverse does not exist.
  explicit CrtComposer(const std::vector<Modulus>& moduli);

  [[nodiscard]] const BigUInt& total_modulus() const noexcept { return total_; }

  /// Composes one residue vector (residues[j] mod q_j) into x in [0, q).
  [[nodiscard]] BigUInt compose(const std::vector<std::uint64_t>& residues) const;

  /// Composes coefficient i of an RNS poly.
  [[nodiscard]] BigUInt compose(const Poly& poly, std::size_t i) const;

 private:
  std::vector<Modulus> moduli_;
  BigUInt total_;
  std::vector<BigUInt> punctured_;              // q / q_j
  std::vector<std::uint64_t> inv_punctured_;    // (q/q_j)^{-1} mod q_j
};

}  // namespace reveal::seal
