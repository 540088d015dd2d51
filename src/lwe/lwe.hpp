#pragma once
// LWE instances, the Kannan-style primal embedding, and exact solving with
// perfect hints — the "explore the remaining search space" part of the
// attack at laptop scale.

#include <cstdint>
#include <optional>
#include <vector>

#include "numeric/rng.hpp"
#include "seal/modulus.hpp"

namespace reveal::lwe {

/// b = A s + e (mod q); A is m x n, row-major.
struct LweInstance {
  std::size_t n = 0;  ///< secret dimension
  std::size_t m = 0;  ///< number of samples
  std::uint64_t q = 0;
  std::vector<std::uint64_t> a;  ///< m*n entries, a[i*n + j]
  std::vector<std::uint64_t> b;  ///< m entries

  [[nodiscard]] std::uint64_t at(std::size_t row, std::size_t col) const noexcept {
    return a[row * n + col];
  }
};

/// Distribution of the secret coordinates.
enum class SecretDist {
  kTernary,   ///< uniform {-1, 0, 1} (BFV's R_2)
  kGaussian,  ///< rounded Gaussian with sigma
};

struct LweParams {
  std::size_t n = 16;
  std::size_t m = 32;
  std::uint64_t q = 3329;
  double sigma = 3.0;
  SecretDist secret = SecretDist::kTernary;
};

/// Samples an instance together with its ground-truth secret and error
/// (both centered representations).
struct SampledLwe {
  LweInstance instance;
  std::vector<std::int64_t> secret;
  std::vector<std::int64_t> error;
};
[[nodiscard]] SampledLwe sample_lwe(const LweParams& params, num::Xoshiro256StarStar& rng);

/// Primal (Kannan) embedding: basis of the (m+n+1)-dimensional lattice
/// containing the short vector (e | -s | 1)·? (row convention documented in
/// lwe.cpp). Entries are centered mod q to keep magnitudes small.
[[nodiscard]] std::vector<std::vector<std::int64_t>> kannan_embedding(
    const LweInstance& instance);

/// Recovers the secret from >= n linearly independent *exact* equations
/// a_i·s = b_i - e_i (mod q) by Gaussian elimination (q must be prime).
/// `known_error` holds the hinted error value per sample (std::nullopt =
/// unknown sample, skipped). Returns std::nullopt if the hinted equations
/// do not determine s uniquely.
[[nodiscard]] std::optional<std::vector<std::int64_t>> solve_with_perfect_hints(
    const LweInstance& instance,
    const std::vector<std::optional<std::int64_t>>& known_error);

/// Runs the primal attack (embedding + BKZ) and extracts the secret from
/// the shortest vector. Returns std::nullopt on failure. Practical only for
/// toy dimensions (n <= ~24).
[[nodiscard]] std::optional<std::vector<std::int64_t>> primal_attack(
    const LweInstance& instance, std::size_t block_size, std::size_t max_tours = 16);

}  // namespace reveal::lwe
