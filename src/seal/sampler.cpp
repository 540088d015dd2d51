#include "seal/sampler.hpp"

#include <cmath>
#include <stdexcept>

namespace reveal::seal {

void set_poly_coeffs_normal(std::uint64_t* poly, UniformRandomGenerator& random,
                            const Context& context,
                            std::vector<std::int64_t>* sampled_out) {
  const auto& parms = context.parms();
  const std::size_t coeff_count = context.n();
  const std::uint64_t modulus = context.coeff_modulus().value();
  if (sampled_out != nullptr) sampled_out->assign(coeff_count, 0);

  // --- begin faithful port of SEAL v3.2 (paper Fig. 2) ---
  // Fig. 2 stores every value once per coefficient modulus, at
  // poly[i + (j * coeff_count)]; with the one modulus here that loop runs
  // once (j = 0), so each branch is a single store.
  RandomToStandardAdapter engine(random);
  ClippedNormalDistribution dist(0, parms.noise_standard_deviation(),
                                 parms.noise_max_deviation());
  for (std::size_t i = 0; i < coeff_count; i++) {
    const std::int64_t noise = std::llround(dist(engine));
    if (sampled_out != nullptr) (*sampled_out)[i] = noise;
    if (noise > 0) {
      poly[i] = static_cast<std::uint64_t>(noise);
    } else if (noise < 0) {
      const std::int64_t negated = -noise;  // the negation the attack exploits
      poly[i] = modulus - static_cast<std::uint64_t>(negated);
    } else {
      poly[i] = 0;
    }
  }
  // --- end faithful port ---
}

void sample_poly_normal_v36(std::uint64_t* poly, UniformRandomGenerator& random,
                            const Context& context,
                            std::vector<std::int64_t>* sampled_out) {
  const auto& parms = context.parms();
  const std::size_t coeff_count = context.n();
  const std::uint64_t modulus = context.coeff_modulus().value();
  if (sampled_out != nullptr) sampled_out->assign(coeff_count, 0);

  RandomToStandardAdapter engine(random);
  ClippedNormalDistribution dist(0, parms.noise_standard_deviation(),
                                 parms.noise_max_deviation());
  for (std::size_t i = 0; i < coeff_count; i++) {
    const std::int64_t noise = std::llround(dist(engine));
    if (sampled_out != nullptr) (*sampled_out)[i] = noise;
    // Branch-free sign handling (SEAL v3.6 replaces the if/else chain with
    // an iterator expression of the same shape): `flag` is all-ones exactly
    // when noise < 0, selecting the additive offset q without branching.
    const auto u_noise = static_cast<std::uint64_t>(noise);
    const std::uint64_t flag =
        static_cast<std::uint64_t>(-static_cast<std::int64_t>(noise < 0));
    poly[i] = u_noise + (flag & modulus);
  }
}

void sample_poly_ternary(Poly& poly, UniformRandomGenerator& random, const Context& context) {
  const std::size_t n = context.n();
  if (poly.coeff_count() != n) poly = Poly(n);
  const std::uint64_t q = context.coeff_modulus().value();
  // Rejection-sample a uniform value in {0, 1, 2} from 32-bit words.
  auto draw_ternary = [&random]() -> std::uint32_t {
    for (;;) {
      const std::uint32_t r = random.generate();
      if (r < 0xFFFFFFFFu / 3u * 3u) return r % 3u;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t v = draw_ternary();  // 0 -> 0, 1 -> 1, 2 -> -1
    poly[i] = v == 2 ? q - 1 : v;
  }
}

void sample_poly_uniform(Poly& poly, UniformRandomGenerator& random, const Context& context) {
  const std::size_t n = context.n();
  if (poly.coeff_count() != n) poly = Poly(n);
  const std::uint64_t q = context.coeff_modulus().value();
  // Rejection sampling from 64-bit words below the largest multiple of q.
  const std::uint64_t limit = q * (~std::uint64_t{0} / q);
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t r = 0;
    do {
      r = (static_cast<std::uint64_t>(random.generate()) << 32) | random.generate();
    } while (r >= limit);
    poly[i] = r % q;
  }
}

Poly sample_error_poly(UniformRandomGenerator& random, const Context& context,
                       std::vector<std::int64_t>* sampled_out) {
  Poly poly(context.n());
  set_poly_coeffs_normal(poly.data(), random, context, sampled_out);
  return poly;
}

void encode_noise_values(const std::vector<std::int64_t>& noise, const Context& context,
                         Poly& poly) {
  const std::size_t n = context.n();
  if (noise.size() != n)
    throw std::invalid_argument("encode_noise_values: noise vector size mismatch");
  if (poly.coeff_count() != n) poly = Poly(n);
  const std::uint64_t q = context.coeff_modulus().value();
  for (std::size_t i = 0; i < n; ++i) {
    if (noise[i] > 0) {
      poly[i] = static_cast<std::uint64_t>(noise[i]);
    } else if (noise[i] < 0) {
      poly[i] = q - static_cast<std::uint64_t>(-noise[i]);
    } else {
      poly[i] = 0;
    }
  }
}

}  // namespace reveal::seal
