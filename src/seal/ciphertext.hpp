#pragma once
// Plaintext and ciphertext value types for the BFV scheme.

#include <cstdint>
#include <vector>

#include "seal/poly.hpp"

namespace reveal::seal {

/// Plaintext polynomial in R_t: up to n coefficients, each < t.
/// Stored densely; missing high coefficients are implicitly zero.
class Plaintext {
 public:
  Plaintext() = default;
  explicit Plaintext(std::vector<std::uint64_t> coeffs) : coeffs_(std::move(coeffs)) {}
  /// Constant plaintext.
  explicit Plaintext(std::uint64_t value) : coeffs_{value} {}

  [[nodiscard]] std::size_t coeff_count() const noexcept { return coeffs_.size(); }
  [[nodiscard]] std::uint64_t operator[](std::size_t i) const noexcept {
    return i < coeffs_.size() ? coeffs_[i] : 0;
  }
  [[nodiscard]] std::vector<std::uint64_t>& coeffs() noexcept { return coeffs_; }
  [[nodiscard]] const std::vector<std::uint64_t>& coeffs() const noexcept { return coeffs_; }

  friend bool operator==(const Plaintext& a, const Plaintext& b) noexcept {
    // Equal up to trailing zeros.
    const std::size_t m = a.coeffs_.size() > b.coeffs_.size() ? a.coeffs_.size()
                                                              : b.coeffs_.size();
    for (std::size_t i = 0; i < m; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

 private:
  std::vector<std::uint64_t> coeffs_;
};

/// BFV ciphertext: the 2 polynomials (c0, c1) of an encryption.
class Ciphertext {
 public:
  Ciphertext() = default;

  [[nodiscard]] std::size_t size() const noexcept { return components_.size(); }
  [[nodiscard]] Poly& operator[](std::size_t i) noexcept { return components_[i]; }
  [[nodiscard]] const Poly& operator[](std::size_t i) const noexcept {
    return components_[i];
  }

  void resize(std::size_t count, std::size_t coeff_count, std::size_t coeff_mod_count) {
    components_.assign(count, Poly(coeff_count, coeff_mod_count));
  }
  void push_back(Poly p) { components_.push_back(std::move(p)); }

 private:
  std::vector<Poly> components_;
};

}  // namespace reveal::seal
