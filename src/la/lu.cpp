#include "la/lu.hpp"

#include <cmath>

#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::la {

LuFactorization::LuFactorization(MatrixD a) : lu_(std::move(a)) {
  XG_REQUIRE(lu_.rows() == lu_.cols(), "LU requires a square matrix");
  const int n = lu_.rows();
  pivot_.resize(n);

  for (int k = 0; k < n; ++k) {
    // Partial pivoting: pick the largest magnitude in column k at/below k.
    int piv = k;
    double best = std::abs(lu_(k, k));
    for (int i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    pivot_[k] = piv;
    if (piv != k) {
      pivot_sign_ = -pivot_sign_;
      auto rk = lu_.row(k);
      auto rp = lu_.row(piv);
      std::swap_ranges(rk.begin(), rk.end(), rp.begin());
    }
    const double akk = lu_(k, k);
    if (best == 0.0) {
      throw Error(strprintf("LU: matrix singular at column %d of %d", k, n));
    }
    for (int i = k + 1; i < n; ++i) {
      const double lik = lu_(i, k) / akk;
      lu_(i, k) = lik;
      const auto rk = lu_.row(k);
      auto ri = lu_.row(i);
      for (int j = k + 1; j < n; ++j) ri[j] -= lik * rk[j];
    }
  }
}

void LuFactorization::solve_in_place(std::span<double> x) const {
  const int n = lu_.rows();
  XG_ASSERT(x.size() == static_cast<size_t>(n));
  // Apply the row permutation.
  for (int k = 0; k < n; ++k) {
    if (pivot_[k] != k) std::swap(x[k], x[pivot_[k]]);
  }
  // Forward substitution with unit-diagonal L.
  for (int i = 1; i < n; ++i) {
    const auto ri = lu_.row(i);
    double acc = x[i];
    for (int j = 0; j < i; ++j) acc -= ri[j] * x[j];
    x[i] = acc;
  }
  // Back substitution with U.
  for (int i = n - 1; i >= 0; --i) {
    const auto ri = lu_.row(i);
    double acc = x[i];
    for (int j = i + 1; j < n; ++j) acc -= ri[j] * x[j];
    x[i] = acc / ri[i];
  }
}

std::vector<double> LuFactorization::solve(std::span<const double> b) const {
  std::vector<double> x(b.begin(), b.end());
  solve_in_place(x);
  return x;
}

MatrixD LuFactorization::solve(const MatrixD& b) const {
  XG_REQUIRE(b.rows() == n(), "LU solve: dimension mismatch");
  const int n_ = n();
  MatrixD x(b.rows(), b.cols());
  std::vector<double> col(static_cast<size_t>(n_));
  for (int j = 0; j < b.cols(); ++j) {
    for (int i = 0; i < n_; ++i) col[i] = b(i, j);
    solve_in_place(col);
    for (int i = 0; i < n_; ++i) x(i, j) = col[i];
  }
  return x;
}

MatrixD LuFactorization::inverse() const {
  return solve(MatrixD::identity(n()));
}

double LuFactorization::determinant() const {
  double det = pivot_sign_;
  for (int i = 0; i < n(); ++i) det *= lu_(i, i);
  return det;
}

std::vector<double> lu_solve(const MatrixD& a, std::span<const double> b) {
  return LuFactorization(a).solve(b);
}

MatrixD lu_inverse(const MatrixD& a) { return LuFactorization(a).inverse(); }

}  // namespace xg::la
