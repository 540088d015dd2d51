#pragma once
// RNS polynomial in Z_q1 x ... x Z_qk [x]/(x^n + 1).
//
// Memory layout matches SEAL: a flat uint64 array where coefficient i of
// RNS component j lives at index i + j * coeff_count — the exact layout the
// vulnerable sampler writes (`poly[i + (j * coeff_count)]`, paper Fig. 2).

#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "seal/modulus.hpp"
#include "seal/ntt.hpp"

namespace reveal::seal {

class Poly {
 public:
  Poly() = default;

  /// Zero polynomial with `coeff_count` coefficients per RNS component.
  Poly(std::size_t coeff_count, std::size_t coeff_mod_count)
      : coeff_count_(coeff_count),
        coeff_mod_count_(coeff_mod_count),
        data_(coeff_count * coeff_mod_count, 0) {}

  [[nodiscard]] std::size_t coeff_count() const noexcept { return coeff_count_; }
  [[nodiscard]] std::size_t coeff_mod_count() const noexcept { return coeff_mod_count_; }

  /// Coefficient i of RNS component j.
  [[nodiscard]] std::uint64_t& at(std::size_t i, std::size_t j) noexcept {
    return data_[i + j * coeff_count_];
  }
  [[nodiscard]] std::uint64_t at(std::size_t i, std::size_t j) const noexcept {
    return data_[i + j * coeff_count_];
  }

  /// Flat view (SEAL pointer idiom) — used by the ported sampler.
  [[nodiscard]] std::uint64_t* data() noexcept { return data_.data(); }
  [[nodiscard]] const std::uint64_t* data() const noexcept { return data_.data(); }

  /// View of the j-th RNS component.
  [[nodiscard]] std::span<std::uint64_t> component(std::size_t j) noexcept {
    return {data_.data() + j * coeff_count_, coeff_count_};
  }
  [[nodiscard]] std::span<const std::uint64_t> component(std::size_t j) const noexcept {
    return {data_.data() + j * coeff_count_, coeff_count_};
  }

  friend bool operator==(const Poly& a, const Poly& b) noexcept {
    return a.coeff_count_ == b.coeff_count_ && a.coeff_mod_count_ == b.coeff_mod_count_ &&
           a.data_ == b.data_;
  }

 private:
  std::size_t coeff_count_ = 0;
  std::size_t coeff_mod_count_ = 0;
  std::vector<std::uint64_t> data_;
};

/// Componentwise polynomial operations over the RNS basis `moduli`
/// (moduli.size() must equal coeff_mod_count of the operands).
namespace polyops {

/// result = a + b (componentwise, per modulus).
void add(const Poly& a, const Poly& b, const std::vector<Modulus>& moduli, Poly& result);

/// result = a - b.
void sub(const Poly& a, const Poly& b, const std::vector<Modulus>& moduli, Poly& result);

/// result = -a.
void negate(const Poly& a, const std::vector<Modulus>& moduli, Poly& result);

/// Pointwise (Hadamard) product of NTT-domain polynomials.
void dyadic_product(const Poly& a, const Poly& b, const std::vector<Modulus>& moduli,
                    Poly& result);

/// In-place forward/inverse NTT of every RNS component. `Tables` is any
/// per-modulus transform with n(), modulus() and in-place transforms —
/// NttTables (reference) or FastNttTables (Shoup/Harvey).
template <typename Tables>
void ntt_forward(Poly& a, const std::vector<Tables>& tables) {
  if (a.coeff_mod_count() != tables.size())
    throw std::invalid_argument("polyops::ntt_forward: table count mismatch");
  for (std::size_t j = 0; j < tables.size(); ++j) {
    if (tables[j].n() != a.coeff_count())
      throw std::invalid_argument("polyops::ntt_forward: degree mismatch");
    tables[j].forward_transform(a.component(j).data());
  }
}

template <typename Tables>
void ntt_inverse(Poly& a, const std::vector<Tables>& tables) {
  if (a.coeff_mod_count() != tables.size())
    throw std::invalid_argument("polyops::ntt_inverse: table count mismatch");
  for (std::size_t j = 0; j < tables.size(); ++j) {
    if (tables[j].n() != a.coeff_count())
      throw std::invalid_argument("polyops::ntt_inverse: degree mismatch");
    tables[j].inverse_transform(a.component(j).data());
  }
}

/// Negacyclic product a * b mod (x^n + 1) via the supplied per-modulus NTT
/// tables. Inputs are in coefficient representation; so is the result.
template <typename Tables>
void multiply_ntt(const Poly& a, const Poly& b, const std::vector<Tables>& tables,
                  Poly& result) {
  if (a.coeff_mod_count() != tables.size())
    throw std::invalid_argument("polyops::multiply_ntt: table count mismatch");
  Poly fa = a;
  Poly fb = b;
  ntt_forward(fa, tables);
  ntt_forward(fb, tables);
  std::vector<Modulus> moduli;
  moduli.reserve(tables.size());
  for (const auto& t : tables) moduli.push_back(t.modulus());
  dyadic_product(fa, fb, moduli, result);
  ntt_inverse(result, tables);
}

/// Infinity norm of the centered representation (single-modulus polys only).
[[nodiscard]] std::uint64_t infinity_norm_centered(const Poly& a, const Modulus& q);

}  // namespace polyops

}  // namespace reveal::seal
