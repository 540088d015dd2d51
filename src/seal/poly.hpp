#pragma once
// Polynomial in Z_q[x]/(x^n + 1): n coefficients, each reduced mod q.
//
// A flat uint64 array, as in SEAL. The vulnerable sampler writes it through
// the raw pointer (`poly[i + (j * coeff_count)]`, paper Fig. 2, where the
// one coefficient modulus makes j = 0).

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "seal/modulus.hpp"
#include "seal/ntt.hpp"

namespace reveal::seal {

class Poly {
 public:
  Poly() = default;

  /// Zero polynomial with `coeff_count` coefficients.
  explicit Poly(std::size_t coeff_count) : data_(coeff_count, 0) {}

  [[nodiscard]] std::size_t coeff_count() const noexcept { return data_.size(); }

  /// Coefficient i.
  [[nodiscard]] std::uint64_t& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] std::uint64_t operator[](std::size_t i) const noexcept { return data_[i]; }

  /// Flat view (SEAL pointer idiom) — used by the ported sampler.
  [[nodiscard]] std::uint64_t* data() noexcept { return data_.data(); }
  [[nodiscard]] const std::uint64_t* data() const noexcept { return data_.data(); }

  friend bool operator==(const Poly& a, const Poly& b) noexcept = default;

 private:
  std::vector<std::uint64_t> data_;
};

/// Coefficientwise polynomial operations mod q.
namespace polyops {

/// result = a + b.
void add(const Poly& a, const Poly& b, const Modulus& q, Poly& result);

/// result = a - b.
void sub(const Poly& a, const Poly& b, const Modulus& q, Poly& result);

/// result = -a.
void negate(const Poly& a, const Modulus& q, Poly& result);

/// Pointwise (Hadamard) product of NTT-domain polynomials.
void dyadic_product(const Poly& a, const Poly& b, const Modulus& q, Poly& result);

/// In-place forward/inverse NTT. `Tables` is any transform with n(),
/// modulus() and in-place transforms — NttTables (reference) or
/// FastNttTables (Shoup/Harvey).
template <typename Tables>
void ntt_forward(Poly& a, const Tables& tables) {
  if (tables.n() != a.coeff_count())
    throw std::invalid_argument("polyops::ntt_forward: degree mismatch");
  tables.forward_transform(a.data());
}

template <typename Tables>
void ntt_inverse(Poly& a, const Tables& tables) {
  if (tables.n() != a.coeff_count())
    throw std::invalid_argument("polyops::ntt_inverse: degree mismatch");
  tables.inverse_transform(a.data());
}

/// Negacyclic product a * b mod (x^n + 1) via the supplied NTT tables.
/// Inputs are in coefficient representation; so is the result.
template <typename Tables>
void multiply_ntt(const Poly& a, const Poly& b, const Tables& tables, Poly& result) {
  Poly fa = a;
  Poly fb = b;
  ntt_forward(fa, tables);
  ntt_forward(fb, tables);
  dyadic_product(fa, fb, tables.modulus(), result);
  ntt_inverse(result, tables);
}

/// Infinity norm of the centered representation.
[[nodiscard]] std::uint64_t infinity_norm_centered(const Poly& a, const Modulus& q);

}  // namespace polyops

}  // namespace reveal::seal
