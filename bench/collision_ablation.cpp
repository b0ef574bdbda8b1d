// Ablation behind the paper's §1 remark that the precomputed cmat "trades
// memory intensity for lower compute cost ... allows for order of magnitude
// compute speedup in the collision step".
//
// Compares, per collision step and cell:
//   (a) precomputed-cmat path: one dense nv×nv fp32 mat-vec (CGYRO/XGYRO),
//   (b) on-the-fly path: factor (I − Δt/2 C) and solve each step — what a
//       memory-frugal implementation would have to do.
// These are real host-side kernel timings (std::chrono wall time per step,
// each arm repeated until it has run for at least 0.1 s).
//
//   ./bench/collision_ablation
#include <chrono>
#include <complex>
#include <cstdio>
#include <vector>

#include "collision/operator.hpp"
#include "collision/tensor.hpp"
#include "la/lu.hpp"
#include "util/rng.hpp"
#include "vgrid/velocity_grid.hpp"

namespace {

using xg::collision::cplx;

xg::vgrid::VelocityGrid grid_for_nv(int n_xi) {
  xg::vgrid::VelocityGridSpec spec;
  spec.n_species = 2;
  spec.n_energy = 6;
  spec.n_xi = n_xi;
  std::vector<xg::vgrid::Species> sp(2);
  sp[1].mass = 2.72e-4;
  sp[1].charge = -1.0;
  return xg::vgrid::VelocityGrid(spec, std::move(sp));
}

std::vector<cplx> random_state(int nv) {
  xg::Rng rng(7);
  std::vector<cplx> h(static_cast<size_t>(nv));
  for (auto& v : h) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return h;
}

/// Mean wall seconds per call of `step`, repeated until 0.1 s have passed.
template <typename Step>
double seconds_per_step(Step&& step) {
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now();
  long iters = 0;
  double elapsed = 0.0;
  do {
    step();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - t0).count();
  } while (elapsed < 0.1);
  return elapsed / static_cast<double>(iters);
}

}  // namespace

int main() {
  std::printf("%6s %6s %16s %16s %9s\n", "n_xi", "nv", "precomputed_us",
              "on_the_fly_us", "speedup");
  // nv = 2 species × 6 energies × n_xi
  for (const int n_xi : {4, 8, 16, 24}) {
    const auto grid = grid_for_nv(n_xi);
    const int nv = grid.nv();
    xg::collision::CollisionParams params;
    const auto scattering =
        xg::collision::build_scattering_operator(grid, params);
    const auto rates = xg::collision::gyro_diffusion_rates(grid, params, 1.0);
    const auto c = xg::collision::build_cell_operator(scattering, rates);

    xg::collision::CollisionTensor cmat(nv, 1);
    cmat.set_cell(0, xg::collision::build_implicit_step_matrix(c, 0.01));
    auto h = random_state(nv);
    const double precomputed =
        seconds_per_step([&] { cmat.apply_in_place(0, h); });

    h = random_state(nv);
    const double on_the_fly = seconds_per_step([&] {
      // (I − Δt/2 C) x = (I + Δt/2 C) h, re-factored every step (no
      // storage).
      xg::la::MatrixD lhs(nv, nv);
      std::vector<double> rhs_re(nv, 0.0), rhs_im(nv, 0.0);
      for (int i = 0; i < nv; ++i) {
        for (int j = 0; j < nv; ++j) {
          lhs(i, j) = -0.005 * c(i, j);
          rhs_re[i] += (0.005 * c(i, j) + (i == j ? 1.0 : 0.0)) * h[j].real();
          rhs_im[i] += (0.005 * c(i, j) + (i == j ? 1.0 : 0.0)) * h[j].imag();
        }
        lhs(i, i) += 1.0;
      }
      const xg::la::LuFactorization lu(std::move(lhs));
      const auto re = lu.solve(rhs_re);
      const auto im = lu.solve(rhs_im);
      for (int i = 0; i < nv; ++i) h[i] = {re[i], im[i]};
    });

    std::printf("%6d %6d %16.3f %16.3f %8.1fx\n", n_xi, nv, precomputed * 1e6,
                on_the_fly * 1e6, on_the_fly / precomputed);
  }
  return 0;
}
