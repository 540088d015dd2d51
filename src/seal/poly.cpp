#include "seal/poly.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "seal/modarith.hpp"

namespace reveal::seal::polyops {

namespace {

void check_shapes(const Poly& a, const Poly& b, const std::vector<Modulus>& moduli) {
  if (a.coeff_count() != b.coeff_count() || a.coeff_mod_count() != b.coeff_mod_count())
    throw std::invalid_argument("polyops: operand shape mismatch");
  if (a.coeff_mod_count() != moduli.size())
    throw std::invalid_argument("polyops: modulus count mismatch");
}

void prepare_result(const Poly& a, Poly& result) {
  if (result.coeff_count() != a.coeff_count() ||
      result.coeff_mod_count() != a.coeff_mod_count()) {
    result = Poly(a.coeff_count(), a.coeff_mod_count());
  }
}

}  // namespace

void add(const Poly& a, const Poly& b, const std::vector<Modulus>& moduli, Poly& result) {
  check_shapes(a, b, moduli);
  prepare_result(a, result);
  for (std::size_t j = 0; j < moduli.size(); ++j) {
    for (std::size_t i = 0; i < a.coeff_count(); ++i) {
      result.at(i, j) = add_mod(a.at(i, j), b.at(i, j), moduli[j]);
    }
  }
}

void sub(const Poly& a, const Poly& b, const std::vector<Modulus>& moduli, Poly& result) {
  check_shapes(a, b, moduli);
  prepare_result(a, result);
  for (std::size_t j = 0; j < moduli.size(); ++j) {
    for (std::size_t i = 0; i < a.coeff_count(); ++i) {
      result.at(i, j) = sub_mod(a.at(i, j), b.at(i, j), moduli[j]);
    }
  }
}

void negate(const Poly& a, const std::vector<Modulus>& moduli, Poly& result) {
  if (a.coeff_mod_count() != moduli.size())
    throw std::invalid_argument("polyops::negate: modulus count mismatch");
  prepare_result(a, result);
  for (std::size_t j = 0; j < moduli.size(); ++j) {
    for (std::size_t i = 0; i < a.coeff_count(); ++i) {
      result.at(i, j) = negate_mod(a.at(i, j), moduli[j]);
    }
  }
}

void dyadic_product(const Poly& a, const Poly& b, const std::vector<Modulus>& moduli,
                    Poly& result) {
  check_shapes(a, b, moduli);
  prepare_result(a, result);
  for (std::size_t j = 0; j < moduli.size(); ++j) {
    for (std::size_t i = 0; i < a.coeff_count(); ++i) {
      result.at(i, j) = mul_mod(a.at(i, j), b.at(i, j), moduli[j]);
    }
  }
}

std::uint64_t infinity_norm_centered(const Poly& a, const Modulus& q) {
  if (a.coeff_mod_count() != 1)
    throw std::invalid_argument("infinity_norm_centered: single-modulus polys only");
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < a.coeff_count(); ++i) {
    const std::int64_t centered = center_mod(a.at(i, 0), q);
    const auto mag = static_cast<std::uint64_t>(std::llabs(centered));
    worst = std::max(worst, mag);
  }
  return worst;
}

}  // namespace reveal::seal::polyops
