#pragma once
// Integer lattice reduction: Gram-Schmidt, size reduction, LLL,
// Fincke-Pohst enumeration (SVP oracle) and BKZ.
//
// The paper uses BKZ block size ("bikz") as its security metric and relies
// on lattice reduction to "explore the remaining search space". This module
// provides a real (laptop-scale) implementation so the hint-reduced toy
// instances can actually be solved, complementing the analytic estimator in
// src/lwe/.

#include <cstdint>
#include <vector>

namespace reveal::lattice {

/// Row-major integer basis; each inner vector is one basis row.
using Basis = std::vector<std::vector<std::int64_t>>;

/// Gram-Schmidt data over long double.
struct Gso {
  std::vector<std::vector<long double>> mu;      ///< mu[i][j], j < i
  std::vector<long double> norms_sq;             ///< ||b*_i||^2
};

/// Computes the GSO of `basis` from scratch.
[[nodiscard]] Gso compute_gso(const Basis& basis);

/// Flat row-major GSO state with lazy row validity.
///
/// GSO row i (star_i, mu[i][0..i), ||b*_i||^2) is a pure function of basis
/// rows 0..i, evaluated here with exactly the arithmetic of compute_gso's
/// row loop. A perturbation of basis row k invalidates the GSO from row k
/// on; rows past the high-water mark are recomputed on arrival. Reads
/// therefore always observe the same long double values a full compute_gso
/// of the current basis would produce — which is what makes lll_reduce and
/// bkz_reduce byte-identical to their reference loops — while a
/// size-reduction subtraction costs one O(k*d) row refresh instead of a
/// full O(n^2*d) recompute, and an untouched block position costs nothing.
///
/// BKZ maintains ONE FlatGso across block positions and tours (PR 4 only
/// kept it alive inside a single LLL call): construct with capacity
/// basis.size() + 1 so the insert-then-remove-dependencies cycle fits
/// without reallocation.
class FlatGso {
 public:
  explicit FlatGso(const Basis& basis);
  /// Capacity form: room for `rows_capacity` basis rows of `cols` columns.
  FlatGso(std::size_t rows_capacity, std::size_t cols);

  [[nodiscard]] long double mu(std::size_t i, std::size_t j) const noexcept {
    return mu_[i * rows_ + j];
  }
  [[nodiscard]] long double norms_sq(std::size_t i) const noexcept {
    return norms_sq_[i];
  }

  /// Marks GSO rows >= row as stale (basis row `row` was just modified,
  /// inserted, swapped, or erased).
  void invalidate_from(std::size_t row) noexcept {
    valid_ = valid_ < row ? valid_ : row;
  }

  /// Recomputes stale rows up to and including `i` from the current basis.
  /// `basis.size()` may differ from the constructed capacity (BKZ inserts
  /// a row, dependency removal erases one); the flat buffers keep their
  /// stride and grow only if the basis outgrows them.
  void ensure(std::size_t i, const Basis& basis);

 private:
  std::size_t rows_;  ///< buffer stride (the constructed row capacity)
  std::size_t cols_;
  std::size_t valid_ = 0;  ///< rows [0, valid_) agree with the current basis
  std::vector<long double> star_;
  std::vector<long double> mu_;
  std::vector<long double> norms_sq_;
};

/// Squared Euclidean norm of an integer vector (128-bit accumulation).
[[nodiscard]] long double norm_sq(const std::vector<std::int64_t>& v);

struct LllParams {
  double delta = 0.99;  ///< Lovász parameter in (1/4, 1]
};

/// In-place LLL reduction; returns the number of swaps performed.
///
/// Runs the flat-storage kernel: GSO rows live in row-major long double
/// buffers with a validity high-water mark, and a perturbation of basis row
/// k (size-reduction subtraction, swap, erase) invalidates only rows >= k —
/// invalid rows are recomputed on arrival. Every GSO row is a pure function
/// of the basis prefix computed with the same arithmetic as compute_gso, so
/// the reduced basis and swap count are byte-identical to
/// lll_reduce_reference for every input.
std::size_t lll_reduce(Basis& basis, const LllParams& params = {});

/// The pre-optimization LLL loop that recomputes the full GSO from scratch
/// after every perturbation. Kept as the differential anchor for
/// lll_reduce's flat incremental kernel.
std::size_t lll_reduce_reference(Basis& basis, const LllParams& params = {});

/// True if `basis` is (delta-)LLL-reduced (size-reduced + Lovász).
[[nodiscard]] bool is_lll_reduced(const Basis& basis, double delta = 0.99,
                                  double tolerance = 1e-6);

/// Result of an SVP enumeration call.
struct EnumResult {
  bool found = false;
  std::vector<std::int64_t> coefficients;  ///< w.r.t. the (projected) block
  long double norm_sq = 0.0;
};

/// Schnorr-Euchner enumeration of the projected block [begin, end) of the
/// GSO: finds the shortest nonzero vector in that projected sublattice with
/// squared norm below `radius_sq` (pass <= 0 to use ||b*_begin||^2).
[[nodiscard]] EnumResult enumerate_shortest(const Gso& gso, std::size_t begin,
                                            std::size_t end, long double radius_sq = 0.0);

/// Same search over a maintained FlatGso (rows [0, end) must be ensured).
/// Identical long double arithmetic, so the result is byte-identical to
/// the Gso overload on equal GSO values.
[[nodiscard]] EnumResult enumerate_shortest(const FlatGso& gso, std::size_t begin,
                                            std::size_t end, long double radius_sq = 0.0);

struct BkzParams {
  std::size_t block_size = 20;
  std::size_t max_tours = 16;
  double delta = 0.99;
};

/// In-place BKZ reduction; returns the number of block insertions.
///
/// Maintains a single FlatGso across block positions and tours: an
/// insertion at position k invalidates rows >= k only, and converged tours
/// re-read valid rows without recomputing anything — against the
/// reference's full compute_gso per position. Every GSO value read equals
/// the reference's, so basis and insertion count are byte-identical to
/// bkz_reduce_reference (fuzzed + gated in bench_lattice).
std::size_t bkz_reduce(Basis& basis, const BkzParams& params);

/// The pre-optimization BKZ loop (full GSO recompute at every block
/// position, per-call LLL GSO state). Differential anchor for bkz_reduce.
std::size_t bkz_reduce_reference(Basis& basis, const BkzParams& params);

/// Shortest basis row after reduction (by Euclidean norm).
[[nodiscard]] std::vector<std::int64_t> shortest_row(const Basis& basis);

}  // namespace reveal::lattice
