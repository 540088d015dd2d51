#pragma once
// Polynomial samplers.
//
// `set_poly_coeffs_normal` is a line-for-line port of the SEAL v3.2 routine
// the paper attacks (Fig. 2): the noise value flows through an
// if / else-if / else sign-assignment with a negation on the negative path —
// the three vulnerabilities (branch leakage, value assignment leakage,
// negation leakage) all live here. `sample_poly_normal_v36` is the
// patched, branchless equivalent of the SEAL v3.6 fix.

#include <cstdint>
#include <vector>

#include "seal/encryption_params.hpp"
#include "seal/poly.hpp"
#include "seal/random.hpp"

namespace reveal::seal {

/// SEAL v3.2 Encryptor::set_poly_coeffs_normal (vulnerable).
///
/// `poly` must point to n uint64 slots. If `sampled_out` is non-null it
/// receives the signed noise value of every coefficient (ground truth for
/// attack evaluation).
void set_poly_coeffs_normal(std::uint64_t* poly, UniformRandomGenerator& random,
                            const Context& context,
                            std::vector<std::int64_t>* sampled_out = nullptr);

/// SEAL v3.6-style patched sampler: identical output distribution, but the
/// sign assignment is computed with branch-free arithmetic select, so no
/// instruction-flow difference exists between positive/negative/zero draws.
void sample_poly_normal_v36(std::uint64_t* poly, UniformRandomGenerator& random,
                            const Context& context,
                            std::vector<std::int64_t>* sampled_out = nullptr);

/// Uniform ternary polynomial (coefficients in {-1, 0, 1}) — the R_2
/// distribution used for the secret key s and the encryption sample u.
void sample_poly_ternary(Poly& poly, UniformRandomGenerator& random, const Context& context);

/// Uniform polynomial over [0, q) — used for the public key's `a` part.
void sample_poly_uniform(Poly& poly, UniformRandomGenerator& random, const Context& context);

/// Convenience: samples a fresh error polynomial with the vulnerable sampler.
[[nodiscard]] Poly sample_error_poly(UniformRandomGenerator& random, const Context& context,
                                     std::vector<std::int64_t>* sampled_out = nullptr);

/// Writes a *known* signed noise vector into a poly using the same encoding
/// the samplers use (positive -> value, negative -> q - |value|, zero -> 0).
void encode_noise_values(const std::vector<std::int64_t>& noise, const Context& context,
                         Poly& poly);

}  // namespace reveal::seal
