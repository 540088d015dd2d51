#include "lattice/lattice.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace reveal::lattice {

namespace {
__extension__ typedef __int128 i128;

void check_rectangular(const Basis& basis) {
  if (basis.empty()) throw std::invalid_argument("lattice: empty basis");
  const std::size_t cols = basis.front().size();
  for (const auto& row : basis) {
    if (row.size() != cols) throw std::invalid_argument("lattice: ragged basis");
  }
}

long double dot_ll(const std::vector<std::int64_t>& a, const std::vector<std::int64_t>& b) {
  i128 acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) acc += static_cast<i128>(a[i]) * b[i];
  return static_cast<long double>(acc);
}

/// a -= k * b over the integers.
void axpy(std::vector<std::int64_t>& a, std::int64_t k, const std::vector<std::int64_t>& b) {
  if (k == 0) return;
  for (std::size_t i = 0; i < a.size(); ++i) a[i] -= k * b[i];
}

bool is_zero_row(const std::vector<std::int64_t>& row) {
  for (const std::int64_t v : row) {
    if (v != 0) return false;
  }
  return true;
}

/// LLL loop shared by the public lll_reduce, the dependency-removing
/// variant used inside BKZ, and the GSO-maintaining BKZ fast path (which
/// passes its long-lived FlatGso). Returns the number of swaps. If
/// `remove_dependencies` is set, rows that reduce to zero are erased.
std::size_t lll_core(Basis& basis, double delta, bool remove_dependencies,
                     FlatGso& gso) {
  std::size_t swaps = 0;
  std::size_t k = 1;
  while (k < basis.size()) {
    gso.ensure(k, basis);
    // Size-reduce b_k against b_{k-1} ... b_0, refreshing only GSO row k
    // after every subtraction (rows < k are untouched; rows > k are stale
    // either way and recompute when the sweep reaches them).
    for (std::size_t j = k; j-- > 0;) {
      const long double mu = gso.mu(k, j);
      if (fabsl(mu) > 0.5L) {
        axpy(basis[k], static_cast<std::int64_t>(llroundl(mu)), basis[j]);
        gso.invalidate_from(k);
        gso.ensure(k, basis);
      }
    }

    if (remove_dependencies && is_zero_row(basis[k])) {
      basis.erase(basis.begin() + static_cast<std::ptrdiff_t>(k));
      gso.invalidate_from(k);
      k = std::max<std::size_t>(k, 1);
      if (k >= basis.size()) break;
      continue;
    }

    const long double lhs = gso.norms_sq(k);
    const long double rhs =
        (static_cast<long double>(delta) - gso.mu(k, k - 1) * gso.mu(k, k - 1)) *
        gso.norms_sq(k - 1);
    if (lhs >= rhs) {
      ++k;
    } else {
      std::swap(basis[k], basis[k - 1]);
      gso.invalidate_from(k - 1);
      ++swaps;
      k = k > 1 ? k - 1 : 1;
    }
  }
  return swaps;
}

std::size_t lll_core(Basis& basis, double delta, bool remove_dependencies) {
  FlatGso gso(basis);
  return lll_core(basis, delta, remove_dependencies, gso);
}

/// The pre-optimization loop: full compute_gso after every perturbation.
std::size_t lll_core_reference(Basis& basis, double delta, bool remove_dependencies) {
  std::size_t swaps = 0;
  Gso gso = compute_gso(basis);
  std::size_t k = 1;
  while (k < basis.size()) {
    // Size-reduce b_k against b_{k-1} ... b_0, refreshing the GSO after
    // every subtraction (reducing with b_j only perturbs mu[k][j'] for
    // j' <= j, so one downward pass reaches a fixed point).
    for (std::size_t j = k; j-- > 0;) {
      const long double mu = gso.mu[k][j];
      if (fabsl(mu) > 0.5L) {
        axpy(basis[k], static_cast<std::int64_t>(llroundl(mu)), basis[j]);
        gso = compute_gso(basis);
      }
    }

    if (remove_dependencies && is_zero_row(basis[k])) {
      basis.erase(basis.begin() + static_cast<std::ptrdiff_t>(k));
      gso = compute_gso(basis);
      k = std::max<std::size_t>(k, 1);
      if (k >= basis.size()) break;
      continue;
    }

    const long double lhs = gso.norms_sq[k];
    const long double rhs =
        (static_cast<long double>(delta) - gso.mu[k][k - 1] * gso.mu[k][k - 1]) *
        gso.norms_sq[k - 1];
    if (lhs >= rhs) {
      ++k;
    } else {
      std::swap(basis[k], basis[k - 1]);
      gso = compute_gso(basis);
      ++swaps;
      k = k > 1 ? k - 1 : 1;
    }
  }
  return swaps;
}

/// Uniform GSO accessors so the enumeration core runs unchanged — with
/// identical long double arithmetic — over Gso and FlatGso.
inline long double gso_norm_sq(const Gso& g, std::size_t i) { return g.norms_sq[i]; }
inline long double gso_norm_sq(const FlatGso& g, std::size_t i) { return g.norms_sq(i); }
inline long double gso_mu(const Gso& g, std::size_t i, std::size_t j) {
  return g.mu[i][j];
}
inline long double gso_mu(const FlatGso& g, std::size_t i, std::size_t j) {
  return g.mu(i, j);
}

/// Recursive Fincke-Pohst / Schnorr-Euchner style search.
template <typename GsoT>
struct EnumState {
  const GsoT* gso;
  std::size_t begin;
  std::size_t dim;
  std::vector<std::int64_t> x;
  std::vector<std::int64_t> best;
  long double best_norm;
  bool found;
};

template <typename GsoT>
void enum_dfs(EnumState<GsoT>& st, std::size_t level_plus1, long double rho) {
  if (level_plus1 == 0) {
    if (rho >= st.best_norm) return;
    bool nonzero = false;
    for (const std::int64_t v : st.x) {
      if (v != 0) {
        nonzero = true;
        break;
      }
    }
    if (nonzero) {
      st.best_norm = rho;
      st.best = st.x;
      st.found = true;
    }
    return;
  }
  const std::size_t i = level_plus1 - 1;
  const long double bi = gso_norm_sq(*st.gso, st.begin + i);
  if (bi <= 0.0L) return;  // degenerate direction: nothing to gain
  // Projection center from already-fixed higher coordinates.
  long double c = 0.0L;
  for (std::size_t j = i + 1; j < st.dim; ++j) {
    c -= static_cast<long double>(st.x[j]) * gso_mu(*st.gso, st.begin + j, st.begin + i);
  }
  // Admissible interval from the current bound (a superset once best_norm
  // shrinks during recursion; the per-candidate check below stays exact).
  const long double r = sqrtl((st.best_norm - rho) / bi);
  const auto lo = static_cast<std::int64_t>(ceill(c - r));
  const auto hi = static_cast<std::int64_t>(floorl(c + r));
  for (std::int64_t xi = lo; xi <= hi; ++xi) {
    const long double d = static_cast<long double>(xi) - c;
    const long double contrib = d * d * bi;
    if (rho + contrib >= st.best_norm) continue;
    st.x[i] = xi;
    enum_dfs(st, i, rho + contrib);
  }
  st.x[i] = 0;
}

template <typename GsoT>
EnumResult enumerate_shortest_impl(const GsoT& gso, std::size_t begin,
                                   std::size_t end, long double radius_sq) {
  EnumResult result;
  if (begin >= end)
    throw std::invalid_argument("enumerate_shortest: bad block bounds");
  const std::size_t dim = end - begin;
  if (radius_sq <= 0.0L) radius_sq = gso_norm_sq(gso, begin) * (1.0L - 1e-12L);
  if (radius_sq <= 0.0L) return result;

  EnumState<GsoT> st;
  st.gso = &gso;
  st.begin = begin;
  st.dim = dim;
  st.x.assign(dim, 0);
  st.best.assign(dim, 0);
  st.best_norm = radius_sq;
  st.found = false;
  enum_dfs(st, dim, 0.0L);

  if (st.found) {
    result.found = true;
    result.coefficients = std::move(st.best);
    result.norm_sq = st.best_norm;
  }
  return result;
}

}  // namespace

long double norm_sq(const std::vector<std::int64_t>& v) { return dot_ll(v, v); }

Gso compute_gso(const Basis& basis) {
  check_rectangular(basis);
  const std::size_t n = basis.size();
  Gso gso;
  gso.mu.assign(n, {});
  gso.norms_sq.assign(n, 0.0L);
  std::vector<std::vector<long double>> star(
      n, std::vector<long double>(basis.front().size(), 0.0L));
  for (std::size_t i = 0; i < n; ++i) {
    gso.mu[i].assign(i, 0.0L);
    for (std::size_t c = 0; c < basis[i].size(); ++c) {
      star[i][c] = static_cast<long double>(basis[i][c]);
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (gso.norms_sq[j] <= 0.0L) {
        gso.mu[i][j] = 0.0L;
        continue;
      }
      long double proj = 0.0L;
      for (std::size_t c = 0; c < basis[i].size(); ++c) {
        proj += static_cast<long double>(basis[i][c]) * star[j][c];
      }
      const long double mu = proj / gso.norms_sq[j];
      gso.mu[i][j] = mu;
      for (std::size_t c = 0; c < star[i].size(); ++c) star[i][c] -= mu * star[j][c];
    }
    long double ns = 0.0L;
    for (const long double v : star[i]) ns += v * v;
    gso.norms_sq[i] = ns;
  }
  return gso;
}

FlatGso::FlatGso(const Basis& basis)
    : FlatGso(basis.size(), basis.front().size()) {}

FlatGso::FlatGso(std::size_t rows_capacity, std::size_t cols)
    : rows_(rows_capacity), cols_(cols) {
  star_.assign(rows_ * cols_, 0.0L);
  mu_.assign(rows_ * rows_, 0.0L);
  norms_sq_.assign(rows_, 0.0L);
}

void FlatGso::ensure(std::size_t i, const Basis& basis) {
  if (basis.size() > rows_) {
    // Defensive growth (BKZ pre-sizes capacity, so this is cold): restride
    // the buffers and recompute from scratch.
    rows_ = basis.size();
    star_.assign(rows_ * cols_, 0.0L);
    mu_.assign(rows_ * rows_, 0.0L);
    norms_sq_.assign(rows_, 0.0L);
    valid_ = 0;
  }
  while (valid_ <= i) {
    const std::size_t r = valid_;
    long double* star_r = star_.data() + r * cols_;
    long double* mu_r = mu_.data() + r * rows_;
    for (std::size_t c = 0; c < cols_; ++c) {
      star_r[c] = static_cast<long double>(basis[r][c]);
    }
    for (std::size_t j = 0; j < r; ++j) {
      if (norms_sq_[j] <= 0.0L) {
        mu_r[j] = 0.0L;
        continue;
      }
      const long double* star_j = star_.data() + j * cols_;
      long double proj = 0.0L;
      for (std::size_t c = 0; c < cols_; ++c) {
        proj += static_cast<long double>(basis[r][c]) * star_j[c];
      }
      const long double m = proj / norms_sq_[j];
      mu_r[j] = m;
      for (std::size_t c = 0; c < cols_; ++c) star_r[c] -= m * star_j[c];
    }
    long double ns = 0.0L;
    for (std::size_t c = 0; c < cols_; ++c) ns += star_r[c] * star_r[c];
    norms_sq_[r] = ns;
    ++valid_;
  }
}

std::size_t lll_reduce(Basis& basis, const LllParams& params) {
  check_rectangular(basis);
  if (!(params.delta > 0.25 && params.delta <= 1.0))
    throw std::invalid_argument("lll_reduce: delta must be in (1/4, 1]");
  if (basis.size() < 2) return 0;
  return lll_core(basis, params.delta, /*remove_dependencies=*/false);
}

std::size_t lll_reduce_reference(Basis& basis, const LllParams& params) {
  check_rectangular(basis);
  if (!(params.delta > 0.25 && params.delta <= 1.0))
    throw std::invalid_argument("lll_reduce: delta must be in (1/4, 1]");
  if (basis.size() < 2) return 0;
  return lll_core_reference(basis, params.delta, /*remove_dependencies=*/false);
}

bool is_lll_reduced(const Basis& basis, double delta, double tolerance) {
  const Gso gso = compute_gso(basis);
  const std::size_t n = basis.size();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (fabsl(gso.mu[i][j]) > 0.5L + static_cast<long double>(tolerance))
        return false;
    }
  }
  for (std::size_t k = 1; k < n; ++k) {
    const long double lhs = gso.norms_sq[k];
    const long double rhs =
        (static_cast<long double>(delta) - gso.mu[k][k - 1] * gso.mu[k][k - 1]) *
        gso.norms_sq[k - 1];
    if (lhs < rhs * (1.0L - static_cast<long double>(tolerance))) return false;
  }
  return true;
}

EnumResult enumerate_shortest(const Gso& gso, std::size_t begin, std::size_t end,
                              long double radius_sq) {
  if (end > gso.norms_sq.size())
    throw std::invalid_argument("enumerate_shortest: bad block bounds");
  return enumerate_shortest_impl(gso, begin, end, radius_sq);
}

EnumResult enumerate_shortest(const FlatGso& gso, std::size_t begin, std::size_t end,
                              long double radius_sq) {
  return enumerate_shortest_impl(gso, begin, end, radius_sq);
}

std::size_t bkz_reduce(Basis& basis, const BkzParams& params) {
  check_rectangular(basis);
  if (params.block_size < 2) throw std::invalid_argument("bkz_reduce: block size < 2");
  if (!(params.delta > 0.25 && params.delta <= 1.0))
    throw std::invalid_argument("lll_reduce: delta must be in (1/4, 1]");
  // One GSO for the whole reduction: block positions whose prefix did not
  // change since the last visit re-read valid rows for free, and an
  // insertion at k recomputes rows >= k only. Capacity +1 covers the
  // transient row that insertion adds before dependency removal drops one.
  FlatGso gso(basis.size() + 1, basis.front().size());
  if (basis.size() >= 2) lll_core(basis, params.delta, /*remove_dependencies=*/false, gso);
  std::size_t insertions = 0;

  for (std::size_t tour = 0; tour < params.max_tours; ++tour) {
    bool changed = false;
    for (std::size_t k = 0; k + 1 < basis.size(); ++k) {
      const std::size_t end = std::min(k + params.block_size, basis.size());
      gso.ensure(end - 1, basis);
      const EnumResult best = enumerate_shortest(gso, k, end);
      if (!best.found) continue;
      if (best.norm_sq >= gso.norms_sq(k) * (1.0L - 1e-9L)) continue;
      // Form v = sum_j c_j b_{k+j}, insert before position k, and let LLL
      // with dependency removal restore a proper basis.
      std::vector<std::int64_t> new_row(basis.front().size(), 0);
      for (std::size_t j = 0; j < best.coefficients.size(); ++j) {
        axpy(new_row, -best.coefficients[j], basis[k + j]);
      }
      basis.insert(basis.begin() + static_cast<std::ptrdiff_t>(k), std::move(new_row));
      gso.invalidate_from(k);
      lll_core(basis, params.delta, /*remove_dependencies=*/true, gso);
      ++insertions;
      changed = true;
    }
    if (!changed) break;
  }
  return insertions;
}

std::size_t bkz_reduce_reference(Basis& basis, const BkzParams& params) {
  check_rectangular(basis);
  if (params.block_size < 2) throw std::invalid_argument("bkz_reduce: block size < 2");
  lll_reduce(basis, {params.delta});
  std::size_t insertions = 0;

  for (std::size_t tour = 0; tour < params.max_tours; ++tour) {
    bool changed = false;
    for (std::size_t k = 0; k + 1 < basis.size(); ++k) {
      const std::size_t end = std::min(k + params.block_size, basis.size());
      const Gso gso = compute_gso(basis);
      const EnumResult best = enumerate_shortest(gso, k, end);
      if (!best.found) continue;
      if (best.norm_sq >= gso.norms_sq[k] * (1.0L - 1e-9L)) continue;
      std::vector<std::int64_t> new_row(basis.front().size(), 0);
      for (std::size_t j = 0; j < best.coefficients.size(); ++j) {
        axpy(new_row, -best.coefficients[j], basis[k + j]);
      }
      basis.insert(basis.begin() + static_cast<std::ptrdiff_t>(k), std::move(new_row));
      lll_core(basis, params.delta, /*remove_dependencies=*/true);
      ++insertions;
      changed = true;
    }
    if (!changed) break;
  }
  return insertions;
}

std::vector<std::int64_t> shortest_row(const Basis& basis) {
  check_rectangular(basis);
  std::size_t best = 0;
  long double best_norm = std::numeric_limits<long double>::max();
  for (std::size_t i = 0; i < basis.size(); ++i) {
    const long double ns = norm_sq(basis[i]);
    if (ns > 0.0L && ns < best_norm) {
      best_norm = ns;
      best = i;
    }
  }
  return basis[best];
}

}  // namespace reveal::lattice
