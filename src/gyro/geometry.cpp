#include "gyro/geometry.hpp"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>

#include "util/error.hpp"

namespace xg::gyro {

Geometry::Geometry(const Input& input)
    : n_radial_(input.n_radial), n_theta_(input.n_theta), nt_(input.n_toroidal),
      nc_(input.nc()), shear_(input.shear), q_safety_(input.q_safety),
      rho_star_(input.rho_star), adiabatic_(input.adiabatic_electrons) {
  // Radial spectral spacing from the box size; binormal spacing from the
  // lowest finite toroidal mode n₀ = rho_star-scaled q/r factor.
  dkx_ = 2.0 * std::numbers::pi / input.box_radial;
  dky_ = 2.0 * std::numbers::pi * q_safety_ * rho_star_ / 0.5;  // r/a = 0.5
  theta_.resize(static_cast<size_t>(n_theta_));
  for (int ith = 0; ith < n_theta_; ++ith) {
    theta_[ith] = -std::numbers::pi +
                  2.0 * std::numbers::pi * static_cast<double>(ith) / n_theta_;
  }
  rho2_.reserve(input.species.size());
  for (const auto& s : input.species) {
    const auto& p = s.physics;
    rho2_.push_back(p.mass * p.temperature / (p.charge * p.charge));
    species_.push_back(p);
  }
}

double Geometry::kpar(int ic) const {
  // 1/(qR) scale with a theta modulation (ballooning-style variation).
  const double base = 1.0 / (q_safety_ * 3.0);  // R/a = 3
  return base * (1.0 + 0.3 * std::cos(theta(ic)));
}

double Geometry::gyroaverage(const vgrid::VelocityGrid& grid, int iv, int ic,
                             int it) const {
  const int is = grid.species_of(iv);
  const double x2 = grid.energy(grid.energy_of(iv));  // (v/v_th)² in e units
  const double xi = grid.xi(grid.xi_of(iv));
  const double b = 0.5 * kperp2(ic, it) * rho2_[is] * x2 * (1.0 - xi * xi);
  return 1.0 / (1.0 + 0.5 * b);
}

double Geometry::field_denominator(int ic, int it) const {
  double denom = 0.0;
  for (size_t is = 0; is < species_.size(); ++is) {
    const auto& s = species_[is];
    const double b = kperp2(ic, it) * rho2_[is] * s.temperature;
    const double gamma0 = 1.0 / (1.0 + b);
    denom += s.charge * s.charge * s.density / s.temperature * (1.0 - gamma0);
  }
  // Adiabatic electron response (n_e/T_e = 1 in reference units) when
  // enabled; otherwise a small floor keeps the solve well-posed at
  // k_perp → 0.
  return denom + (adiabatic_ ? 1.0 : 0.1);
}

int classify_kperp2(const Geometry& geometry, int ic0, int n_ic, int it0,
                    int n_it, std::span<int> first) {
  const size_t n = static_cast<size_t>(n_ic) * n_it;
  XG_ASSERT(first.empty() || first.size() == n);
  // Open addressing with linear probing at load factor ≤ 1/4 (at 1/2 the
  // longer, mispredicted probe chains cost more than the larger table),
  // Fibonacci hashing of the bit pattern. The table holds the keys
  // themselves, 0 marking an empty slot; the one key equal to the marker,
  // +0.0 (the kx = ky = 0 cell), keeps its class beside the table, so every
  // 64-bit pattern, NaNs included, classifies exactly. reps[slot] holds its
  // key's first cell; it exists only when `first` is wanted and is written
  // only on insert. Cells are visited in index order, so the cell that
  // inserts a key is its class's lowest.
  constexpr std::uint64_t kEmpty = 0;
  int log2_cap = 2;
  while ((size_t{1} << log2_cap) < 4 * n) ++log2_cap;
  const size_t mask = (size_t{1} << log2_cap) - 1;
  std::vector<std::uint64_t> keys(mask + 1, kEmpty);
  const bool want_first = !first.empty();
  std::unique_ptr<int[]> reps;
  if (want_first) reps = std::make_unique_for_overwrite<int[]>(mask + 1);
  int zero_rep = -1;
  int n_unique = 0;
  for (int a = 0; a < n_ic; ++a) {
    const Geometry::KxRow row = geometry.kx_row(ic0 + a);
    for (int itl = 0; itl < n_it; ++itl) {
      const int cell = a * n_it + itl;
      const auto bits =
          std::bit_cast<std::uint64_t>(row.kperp2(geometry.ky(it0 + itl)));
      int rep = -1;
      if (bits == kEmpty) [[unlikely]] {
        rep = zero_rep;
        if (rep < 0) {
          zero_rep = cell;
          ++n_unique;
        }
      } else {
        size_t slot = (bits * 0x9E3779B97F4A7C15ull) >> (64 - log2_cap);
        while (keys[slot] != bits && keys[slot] != kEmpty) {
          slot = (slot + 1) & mask;
        }
        if (keys[slot] == kEmpty) {
          keys[slot] = bits;
          ++n_unique;
          if (want_first) reps[slot] = cell;
        } else if (want_first) {
          rep = reps[slot];
        }
      }
      if (want_first) first[cell] = rep;
    }
  }
  return n_unique;
}

}  // namespace xg::gyro
