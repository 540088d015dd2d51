#pragma once
// Small dense linear-algebra substrate.
//
// Used by the template attack (pooled covariance, Mahalanobis/log-likelihood
// scoring) and by the full-matrix DBDD estimator. Row-major, double only —
// the dimensions involved (POI counts ~10-40, DBDD toy dims ~100) do not
// justify an external BLAS.

#include <cstddef>
#include <stdexcept>
#include <vector>

namespace reveal::num {

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }
  [[nodiscard]] bool empty() const noexcept { return data_.empty(); }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) noexcept {
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const noexcept {
    return data_[r * cols_ + c];
  }

  /// Checked element access (throws std::out_of_range).
  [[nodiscard]] double& at(std::size_t r, std::size_t c);
  [[nodiscard]] double at(std::size_t r, std::size_t c) const;

  [[nodiscard]] const std::vector<double>& data() const noexcept { return data_; }
  [[nodiscard]] std::vector<double>& data() noexcept { return data_; }

  /// n x n identity.
  static Matrix identity(std::size_t n);

  /// Square matrix with `diag` on the diagonal.
  static Matrix diagonal(const std::vector<double>& diag);

  Matrix operator*(const Matrix& rhs) const;
  Matrix operator+(const Matrix& rhs) const;
  Matrix& operator*=(double scalar);

  /// Matrix-vector product (v.size() must equal cols()).
  std::vector<double> apply(const std::vector<double>& v) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Result of a Cholesky factorization attempt.
struct CholeskyResult {
  Matrix lower;    ///< L with A = L * L^T (valid only if ok).
  bool ok = false; ///< false if A was not (numerically) positive definite.
};

/// Cholesky factorization of a symmetric positive-definite matrix.
CholeskyResult cholesky(const Matrix& a);

/// Solves A x = b given the Cholesky factor L of A.
std::vector<double> cholesky_solve(const Matrix& lower, const std::vector<double>& b);

/// log(det(A)) for SPD A via its Cholesky factor (throws if not SPD).
double log_det_spd(const Matrix& a);

/// Inverse of an SPD matrix via Cholesky (throws if not SPD).
Matrix invert_spd(const Matrix& a);

/// Adds `value` to every diagonal entry — ridge regularization for nearly
/// singular pooled covariance matrices.
void add_ridge(Matrix& a, double value);

}  // namespace reveal::num
