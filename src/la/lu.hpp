// LU factorization with partial pivoting, solve, and inverse.
//
// Used once per simulation to build the implicit collision-step matrix
//   A = (I − Δt/2 C)⁻¹ (I + Δt/2 C)
// — the "collisional constant tensor" whose per-ensemble sharing is the
// subject of the paper. Not performance-critical per step (construction is
// one-time); correctness and stability are what matter.
#pragma once

#include <span>
#include <vector>

#include "la/matrix.hpp"

namespace xg::la {

/// LU factorization (PA = LU) of a square real matrix with partial pivoting.
class LuFactorization {
 public:
  /// Factor `a` in place (a copy is taken). Throws xg::Error if singular
  /// to working precision.
  explicit LuFactorization(MatrixD a);

  [[nodiscard]] int n() const { return lu_.rows(); }

  /// Solve A x = b; returns x.
  [[nodiscard]] std::vector<double> solve(std::span<const double> b) const;

  /// Solve A X = B column-block-wise; returns X with B's shape.
  [[nodiscard]] MatrixD solve(const MatrixD& b) const;

  /// Explicit inverse (used to precompute the collision-step operator).
  [[nodiscard]] MatrixD inverse() const;

  /// det(A) from the factorization (sign included).
  [[nodiscard]] double determinant() const;

 private:
  void solve_in_place(std::span<double> x) const;

  MatrixD lu_;
  std::vector<int> pivot_;
  int pivot_sign_ = 1;
};

/// Convenience: x = A⁻¹ b without keeping the factorization.
std::vector<double> lu_solve(const MatrixD& a, std::span<const double> b);

/// Convenience: A⁻¹.
MatrixD lu_inverse(const MatrixD& a);

}  // namespace xg::la
