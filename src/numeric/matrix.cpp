#include "numeric/matrix.hpp"

#include <cmath>
#include <stdexcept>

namespace reveal::num {

double& Matrix::at(std::size_t r, std::size_t c) {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at index out of range");
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at index out of range");
  return data_[r * cols_ + c];
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::diagonal(const std::vector<double>& diag) {
  Matrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m(i, i) = diag[i];
  return m;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("Matrix multiply: shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double v = (*this)(r, k);
      if (v == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) out(r, c) += v * rhs(k, c);
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("Matrix add: shape mismatch");
  Matrix out = *this;
  for (std::size_t i = 0; i < out.data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

std::vector<double> Matrix::apply(const std::vector<double>& v) const {
  if (v.size() != cols_) throw std::invalid_argument("Matrix::apply: size mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) acc += (*this)(r, c) * v[c];
    out[r] = acc;
  }
  return out;
}

CholeskyResult cholesky(const Matrix& a) {
  CholeskyResult result;
  if (a.rows() != a.cols()) return result;
  const std::size_t n = a.rows();
  Matrix l(n, n);
  for (std::size_t j = 0; j < n; ++j) {
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= l(j, k) * l(j, k);
    if (diag <= 0.0 || !std::isfinite(diag)) return result;  // not SPD
    l(j, j) = std::sqrt(diag);
    for (std::size_t i = j + 1; i < n; ++i) {
      double v = a(i, j);
      for (std::size_t k = 0; k < j; ++k) v -= l(i, k) * l(j, k);
      l(i, j) = v / l(j, j);
    }
  }
  result.lower = std::move(l);
  result.ok = true;
  return result;
}

std::vector<double> cholesky_solve(const Matrix& lower, const std::vector<double>& b) {
  const std::size_t n = lower.rows();
  if (b.size() != n) throw std::invalid_argument("cholesky_solve: size mismatch");
  // Forward substitution L y = b.
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double v = b[i];
    for (std::size_t k = 0; k < i; ++k) v -= lower(i, k) * y[k];
    y[i] = v / lower(i, i);
  }
  // Back substitution L^T x = y.
  std::vector<double> x(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double v = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) v -= lower(k, ii) * x[k];
    x[ii] = v / lower(ii, ii);
  }
  return x;
}

double log_det_spd(const Matrix& a) {
  const CholeskyResult c = cholesky(a);
  if (!c.ok) throw std::domain_error("log_det_spd: matrix not positive definite");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) acc += std::log(c.lower(i, i));
  return 2.0 * acc;
}

Matrix invert_spd(const Matrix& a) {
  const CholeskyResult c = cholesky(a);
  if (!c.ok) throw std::domain_error("invert_spd: matrix not positive definite");
  const std::size_t n = a.rows();
  Matrix inv(n, n);
  std::vector<double> e(n, 0.0);
  for (std::size_t col = 0; col < n; ++col) {
    e[col] = 1.0;
    const std::vector<double> x = cholesky_solve(c.lower, e);
    for (std::size_t r = 0; r < n; ++r) inv(r, col) = x[r];
    e[col] = 0.0;
  }
  return inv;
}

void add_ridge(Matrix& a, double value) {
  const std::size_t n = a.rows() < a.cols() ? a.rows() : a.cols();
  for (std::size_t i = 0; i < n; ++i) a(i, i) += value;
}

}  // namespace reveal::num
