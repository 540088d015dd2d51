#include "lwe/lwe.hpp"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

#include "lattice/lattice.hpp"
#include "seal/modarith.hpp"

namespace reveal::lwe {

namespace {

std::int64_t center(std::uint64_t x, std::uint64_t q) noexcept {
  return x > q / 2 ? static_cast<std::int64_t>(x) - static_cast<std::int64_t>(q)
                   : static_cast<std::int64_t>(x);
}

std::uint64_t reduce_signed(std::int64_t x, std::uint64_t q) noexcept {
  const auto qi = static_cast<std::int64_t>(q);
  std::int64_t r = x % qi;
  if (r < 0) r += qi;
  return static_cast<std::uint64_t>(r);
}

}  // namespace

SampledLwe sample_lwe(const LweParams& params, num::Xoshiro256StarStar& rng) {
  if (params.q < 2) throw std::invalid_argument("sample_lwe: q must be >= 2");
  SampledLwe out;
  out.instance.n = params.n;
  out.instance.m = params.m;
  out.instance.q = params.q;
  out.instance.a.resize(params.m * params.n);
  out.instance.b.resize(params.m);
  out.secret.resize(params.n);
  out.error.resize(params.m);

  for (auto& v : out.instance.a) v = rng.uniform_below(params.q);
  for (std::size_t j = 0; j < params.n; ++j) {
    if (params.secret == SecretDist::kTernary) {
      out.secret[j] = rng.uniform_int(-1, 1);
    } else {
      out.secret[j] = std::llround(rng.gaussian(0.0, params.sigma));
    }
  }
  for (std::size_t i = 0; i < params.m; ++i) {
    out.error[i] = std::llround(rng.gaussian(0.0, params.sigma));
    std::int64_t acc = 0;
    for (std::size_t j = 0; j < params.n; ++j) {
      acc += center(out.instance.at(i, j), params.q) * out.secret[j];
      acc %= static_cast<std::int64_t>(params.q);
    }
    out.instance.b[i] = reduce_signed(acc + out.error[i], params.q);
  }
  return out;
}

std::vector<std::vector<std::int64_t>> kannan_embedding(const LweInstance& inst) {
  // Rows (d = m + n + 1 of them, d columns):
  //   [ q*I_m   |  0    | 0 ]   (modular reductions of the samples)
  //   [ A_col_j |  e_j  | 0 ]   (one row per secret coordinate)
  //   [ b       |  0    | 1 ]   (the target row)
  // Then b_row - sum_j s_j*A_rows - k*q_rows = (e | -s | 1): the planted
  // short vector.
  const std::size_t d = inst.m + inst.n + 1;
  std::vector<std::vector<std::int64_t>> basis(d, std::vector<std::int64_t>(d, 0));
  for (std::size_t i = 0; i < inst.m; ++i) {
    basis[i][i] = static_cast<std::int64_t>(inst.q);
  }
  for (std::size_t j = 0; j < inst.n; ++j) {
    auto& row = basis[inst.m + j];
    for (std::size_t i = 0; i < inst.m; ++i) {
      row[i] = center(inst.at(i, j), inst.q);
    }
    row[inst.m + j] = 1;
  }
  auto& target = basis[inst.m + inst.n];
  for (std::size_t i = 0; i < inst.m; ++i) target[i] = center(inst.b[i], inst.q);
  target[d - 1] = 1;
  return basis;
}

std::optional<std::vector<std::int64_t>> solve_with_perfect_hints(
    const LweInstance& inst, const std::vector<std::optional<std::int64_t>>& known_error) {
  if (known_error.size() != inst.m)
    throw std::invalid_argument("solve_with_perfect_hints: hint vector size mismatch");
  const seal::Modulus q(inst.q);
  if (!q.is_prime())
    throw std::invalid_argument("solve_with_perfect_hints: q must be prime");

  // Build the exact system rows: a_i · s = b_i - e_i (mod q).
  std::vector<std::vector<std::uint64_t>> rows;  // n coefficients + rhs
  for (std::size_t i = 0; i < inst.m; ++i) {
    if (!known_error[i].has_value()) continue;
    std::vector<std::uint64_t> row(inst.n + 1);
    for (std::size_t j = 0; j < inst.n; ++j) row[j] = inst.at(i, j);
    const std::int64_t rhs =
        static_cast<std::int64_t>(inst.b[i]) - *known_error[i];
    row[inst.n] = reduce_signed(rhs, inst.q);
    rows.push_back(std::move(row));
  }
  if (rows.size() < inst.n) return std::nullopt;

  // Gaussian elimination mod q.
  std::size_t rank = 0;
  for (std::size_t col = 0; col < inst.n && rank < rows.size(); ++col) {
    std::size_t pivot = rank;
    while (pivot < rows.size() && rows[pivot][col] == 0) ++pivot;
    if (pivot == rows.size()) continue;  // free column -> underdetermined
    std::swap(rows[rank], rows[pivot]);
    const std::uint64_t inv = seal::inverse_mod(rows[rank][col], q);
    for (auto& v : rows[rank]) v = seal::mul_mod(v, inv, q);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      if (r == rank || rows[r][col] == 0) continue;
      const std::uint64_t factor = rows[r][col];
      for (std::size_t c = col; c <= inst.n; ++c) {
        rows[r][c] = seal::sub_mod(rows[r][c], seal::mul_mod(factor, rows[rank][c], q), q);
      }
    }
    ++rank;
  }
  if (rank < inst.n) return std::nullopt;

  std::vector<std::int64_t> secret(inst.n, 0);
  for (std::size_t r = 0; r < rank; ++r) {
    // After full elimination each of the first n pivot rows is e_col = rhs.
    std::size_t col = 0;
    while (col < inst.n && rows[r][col] == 0) ++col;
    if (col == inst.n) continue;
    secret[col] = center(rows[r][inst.n], inst.q);
  }
  return secret;
}

std::optional<std::vector<std::int64_t>> primal_attack(const LweInstance& inst,
                                                       std::size_t block_size,
                                                       std::size_t max_tours) {
  auto basis = kannan_embedding(inst);
  lattice::BkzParams params;
  params.block_size = block_size;
  params.max_tours = max_tours;
  lattice::bkz_reduce(basis, params);

  // Look for a row of the form +-(e | -s | 1).
  const std::size_t d = inst.m + inst.n + 1;
  for (const auto& row : basis) {
    if (row.size() != d) continue;
    const std::int64_t last = row[d - 1];
    if (last != 1 && last != -1) continue;
    std::vector<std::int64_t> secret(inst.n);
    for (std::size_t j = 0; j < inst.n; ++j) {
      secret[j] = -row[inst.m + j] * last;  // undo global sign
    }
    // Verify: b - A s must be small (the error part of the row).
    bool consistent = true;
    for (std::size_t i = 0; i < inst.m && consistent; ++i) {
      std::int64_t acc = 0;
      for (std::size_t j = 0; j < inst.n; ++j) {
        acc += center(inst.at(i, j), inst.q) * secret[j];
        acc %= static_cast<std::int64_t>(inst.q);
      }
      const std::uint64_t residual = reduce_signed(
          static_cast<std::int64_t>(inst.b[i]) - acc, inst.q);
      const std::int64_t centered = center(residual, inst.q);
      if (std::llabs(centered) > static_cast<std::int64_t>(inst.q / 4)) consistent = false;
    }
    if (consistent) return secret;
  }
  return std::nullopt;
}

}  // namespace reveal::lwe
