#include "seal/poly.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "seal/modarith.hpp"

namespace reveal::seal::polyops {

namespace {

void check_shapes(const Poly& a, const Poly& b) {
  if (a.coeff_count() != b.coeff_count())
    throw std::invalid_argument("polyops: operand shape mismatch");
}

void prepare_result(const Poly& a, Poly& result) {
  if (result.coeff_count() != a.coeff_count()) result = Poly(a.coeff_count());
}

}  // namespace

void add(const Poly& a, const Poly& b, const Modulus& q, Poly& result) {
  check_shapes(a, b);
  prepare_result(a, result);
  for (std::size_t i = 0; i < a.coeff_count(); ++i) result[i] = add_mod(a[i], b[i], q);
}

void sub(const Poly& a, const Poly& b, const Modulus& q, Poly& result) {
  check_shapes(a, b);
  prepare_result(a, result);
  for (std::size_t i = 0; i < a.coeff_count(); ++i) result[i] = sub_mod(a[i], b[i], q);
}

void negate(const Poly& a, const Modulus& q, Poly& result) {
  prepare_result(a, result);
  for (std::size_t i = 0; i < a.coeff_count(); ++i) result[i] = negate_mod(a[i], q);
}

void dyadic_product(const Poly& a, const Poly& b, const Modulus& q, Poly& result) {
  check_shapes(a, b);
  prepare_result(a, result);
  for (std::size_t i = 0; i < a.coeff_count(); ++i) result[i] = mul_mod(a[i], b[i], q);
}

std::uint64_t infinity_norm_centered(const Poly& a, const Modulus& q) {
  std::uint64_t worst = 0;
  for (std::size_t i = 0; i < a.coeff_count(); ++i) {
    const std::int64_t centered = center_mod(a[i], q);
    worst = std::max(worst, static_cast<std::uint64_t>(std::llabs(centered)));
  }
  return worst;
}

}  // namespace reveal::seal::polyops
