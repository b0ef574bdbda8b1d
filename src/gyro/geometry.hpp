// Flux-tube spectral geometry: wavenumbers, gyroaverage factors, and the
// field-equation denominators.
//
// Configuration index ic = ir·n_theta + itheta (radial × poloidal);
// toroidal index it selects the binormal mode. k_x twists with theta through
// magnetic shear, so k_perp² — and through the gyro-diffusion term, cmat —
// genuinely varies across configuration cells and toroidal modes. That
// variation is why CGYRO must store one matrix per (ic, it) instead of one
// matrix total.
#pragma once

#include <span>
#include <vector>

#include "gyro/input.hpp"
#include "vgrid/velocity_grid.hpp"

namespace xg::gyro {

class Geometry {
 public:
  explicit Geometry(const Input& input);

  [[nodiscard]] int nc() const { return nc_; }
  [[nodiscard]] int nt() const { return nt_; }

  [[nodiscard]] int ir_of(int ic) const { return ic / n_theta_; }
  [[nodiscard]] int itheta_of(int ic) const { return ic % n_theta_; }

  /// Poloidal angle θ ∈ [−π, π) of a configuration cell.
  [[nodiscard]] double theta(int ic) const { return theta_[itheta_of(ic)]; }

  /// The toroidal-independent part of kx on one configuration cell:
  /// kx(ic, it) = base + twist·ky(it), with base = dkx·p (centered radial
  /// mode p) and twist = shear·θ. kx and kperp2 evaluate through this form,
  /// so a caller that hoists the row out of a loop over it gets their bits.
  struct KxRow {
    double base;
    double twist;
    [[nodiscard]] double kx(double ky) const { return base + twist * ky; }
    [[nodiscard]] double kperp2(double ky) const {
      const double x = kx(ky);
      return x * x + ky * ky;
    }
  };
  [[nodiscard]] KxRow kx_row(int ic) const {
    const double p = static_cast<double>(ir_of(ic) - n_radial_ / 2);
    return {dkx_ * p, shear_ * theta(ic)};
  }

  /// Radial wavenumber (shear-twisted) and binormal wavenumber.
  [[nodiscard]] double kx(int ic, int it) const {
    return kx_row(ic).kx(ky(it));
  }
  [[nodiscard]] double ky(int it) const {
    return dky_ * static_cast<double>(it);
  }

  [[nodiscard]] double kperp2(int ic, int it) const {
    return kx_row(ic).kperp2(ky(it));
  }

  /// Parallel wavenumber model: k_par ∝ 1/(qR), modulated over theta.
  [[nodiscard]] double kpar(int ic) const;

  /// Padé gyroaverage ⟨J₀⟩ ≈ 1/(1 + b/2), b = k_perp²ρ_s²·x²(1−ξ²)/2.
  [[nodiscard]] double gyroaverage(const vgrid::VelocityGrid& grid, int iv,
                                   int ic, int it) const;

  /// Field (quasineutrality) denominator Σ_s Z_s²·n_s/T_s·(1 − Γ₀(b_s)),
  /// with the Padé Γ₀ = 1/(1+b). Strictly positive for k_perp > 0.
  [[nodiscard]] double field_denominator(int ic, int it) const;

  /// Thermal gyroradius² of species s (B = 1 units).
  [[nodiscard]] double rho2(int is) const { return rho2_[is]; }

 private:
  int n_radial_, n_theta_, nt_, nc_;
  double shear_, q_safety_, rho_star_;
  bool adiabatic_ = false;
  double dkx_, dky_;
  std::vector<double> theta_;  // θ of each poloidal index
  std::vector<double> rho2_;
  std::vector<vgrid::Species> species_;
};

/// Classify the cells of one rank's block — configuration cells
/// [ic0, ic0 + n_ic) × toroidal modes [it0, it0 + n_it), cell index
/// a·n_it + itl — by the exact 64-bit pattern of kperp2 (cmat depends on a
/// cell only through it). Returns the number of distinct patterns. If
/// `first` is non-empty (size n_ic·n_it), first[cell] receives the lowest
/// cell with the same pattern, or −1 when the cell is itself that lowest
/// one. Keys are compared in full, never by hash alone.
[[nodiscard]] int classify_kperp2(const Geometry& geometry, int ic0, int n_ic,
                                  int it0, int n_it, std::span<int> first = {});

}  // namespace xg::gyro
