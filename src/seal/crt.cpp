#include "seal/crt.hpp"

#include <stdexcept>

#include "seal/modarith.hpp"

namespace reveal::seal {

CrtComposer::CrtComposer(const std::vector<Modulus>& moduli) : moduli_(moduli) {
  if (moduli_.empty()) throw std::invalid_argument("CrtComposer: no moduli");
  total_ = BigUInt(1);
  for (const auto& q : moduli_) total_ = total_ * q.value();

  punctured_.reserve(moduli_.size());
  inv_punctured_.reserve(moduli_.size());
  for (std::size_t j = 0; j < moduli_.size(); ++j) {
    BigUInt prod(1);
    for (std::size_t l = 0; l < moduli_.size(); ++l) {
      if (l != j) prod = prod * moduli_[l].value();
    }
    const std::uint64_t residue = prod.mod_word(moduli_[j].value());
    inv_punctured_.push_back(inverse_mod(residue, moduli_[j]));  // throws if not coprime
    punctured_.push_back(std::move(prod));
  }
}

BigUInt CrtComposer::compose(const std::vector<std::uint64_t>& residues) const {
  if (residues.size() != moduli_.size())
    throw std::invalid_argument("CrtComposer::compose: residue count mismatch");
  BigUInt acc;
  for (std::size_t j = 0; j < moduli_.size(); ++j) {
    const std::uint64_t term = mul_mod(residues[j], inv_punctured_[j], moduli_[j]);
    acc += punctured_[j] * term;
  }
  return BigUInt::divmod(acc, total_).remainder;
}

BigUInt CrtComposer::compose(const Poly& poly, std::size_t i) const {
  if (poly.coeff_mod_count() != moduli_.size())
    throw std::invalid_argument("CrtComposer::compose: poly modulus count mismatch");
  std::vector<std::uint64_t> residues(moduli_.size());
  for (std::size_t j = 0; j < moduli_.size(); ++j) residues[j] = poly.at(i, j);
  return compose(residues);
}

}  // namespace reveal::seal
