// Velocity-space resolution study: the reason cmat is huge in the first
// place. The Sugama-class operator needs enough (ξ, energy) resolution for
// converged physics, and cmat grows as nv² per cell — so the resolution a
// user picks sets the memory wall that forces multi-node runs (paper §1).
// This bench sweeps n_xi and reports a physics observable (free energy
// after a fixed time, collisionally damped) together with the per-cell
// cmat cost, showing convergence of one against growth of the other.
//
//   ./bench/resolution_convergence [--smoke]
//
// Exit status 0 iff the distance to the finest grid shrinks as n_xi grows.
// --smoke sweeps n_xi up to 16 instead of 32.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "gyro/simulation.hpp"
#include "simnet/machine.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"

namespace {

double damped_energy(int n_xi, int n_energy) {
  using namespace xg;
  gyro::Input in = gyro::Input::small_test(2);
  in.n_xi = n_xi;
  in.n_energy = n_energy;
  for (auto& s : in.species) {
    s.a_ln_n = 0.0;
    s.a_ln_t = 0.0;
  }
  in.collision.nu_ee = 0.5;
  in.n_steps_per_report = 25;
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kReal;
  opts.cgyro_layout = true;
  return xgyro::run_job(xgyro::EnsembleInput{{in}}, net::testbox(1, 1), 1,
                        opts)
      .diagnostics.front()
      .free_energy;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xg;
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  std::printf("=== Velocity-resolution convergence vs cmat cost ===\n\n");
  std::printf("%-8s %-6s %14s %14s %12s\n", "n_xi", "nv", "W(t=0.5)/W0-ish",
              "delta vs finest", "cmat/cell");

  const int n_energy = 4;
  const std::vector<int> sweep =
      smoke ? std::vector<int>{4, 8, 16} : std::vector<int>{4, 8, 16, 32};
  const int finest = sweep.back();
  const double ref = damped_energy(finest, n_energy);
  double prev_delta = 1e9;
  bool converging = true;
  for (const int n_xi : sweep) {
    const double w = n_xi == finest ? ref : damped_energy(n_xi, n_energy);
    const double delta = std::abs(w - ref) / ref;
    const int nv = 2 * n_energy * n_xi;
    const double cmat_cell = static_cast<double>(nv) * nv * sizeof(float);
    std::printf("%-8d %-6d %14.6e %14.3e %12s\n", n_xi, nv, w, delta,
                human_bytes(cmat_cell).c_str());
    if (n_xi < finest && n_xi > 4) {
      if (delta > prev_delta) converging = false;
    }
    if (n_xi < finest) prev_delta = delta;
  }
  std::printf("\ndamped free energy converges with pitch resolution while the "
              "per-cell cmat cost grows as nv^2: %s\n",
              converging ? "YES" : "NO");
  return converging ? 0 : 1;
}
