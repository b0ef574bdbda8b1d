// Physics example: linear growth-rate scan over the binormal wavenumber.
//
// For each toroidal mode ky we run a short linear simulation and measure
// the growth rate gamma = d ln(phi_rms)/dt between reporting steps — the
// everyday workflow CGYRO users run before any nonlinear study (and a
// typical "many small runs" workload XGYRO batches).
//
//   $ ./examples/linear_growth
#include <cmath>
#include <cstdio>
#include <vector>

#include "gyro/simulation.hpp"
#include "simnet/machine.hpp"
#include "xgyro/driver.hpp"

int main() {
  using namespace xg;

  gyro::Input base = gyro::Input::small_test(2);
  base.n_radial = 8;
  base.n_toroidal = 8;   // resolve several ky modes
  base.n_steps_per_report = 20;
  base.collision.nu_ee = 0.02;
  base.species[0].a_ln_t = 3.0;

  const int nranks = 4;
  const auto machine = net::frontier_like(1);
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kReal;
  opts.cgyro_layout = true;

  std::printf("linear growth-rate scan (drive a_LT=%.1f, nu_ee=%.3f)\n\n",
              base.species[0].a_ln_t, base.collision.nu_ee);
  std::printf("%-10s %14s %14s %12s\n", "scan", "phi_rms(t1)", "phi_rms(t2)",
              "gamma");

  // Scan the drive strength; growth rates must increase with the drive.
  std::vector<double> gammas;
  for (const double alt : {0.0, 1.5, 3.0, 4.5}) {
    gyro::Input in = base;
    in.species[0].a_ln_t = alt;
    // φ_rms after intervals 1 and 2: a 1-interval and a 2-interval job. The
    // runs are deterministic, so both jobs' first intervals agree bit for bit.
    gyro::Diagnostics d[2];
    for (int n = 1; n <= 2; ++n) {
      opts.n_report_intervals = n;
      d[n - 1] = xgyro::run_job(xgyro::EnsembleInput{{in}}, machine, nranks,
                                opts)
                     .diagnostics.front();
    }
    const double gamma =
        std::log(d[1].phi_rms / d[0].phi_rms) / (d[1].time - d[0].time);
    gammas.push_back(gamma);
    std::printf("a_LT=%-5.1f %14.6e %14.6e %12.4f\n", alt, d[0].phi_rms,
                d[1].phi_rms, gamma);
  }

  const bool monotone = gammas.back() > gammas.front();
  std::printf("\ngrowth increases with temperature-gradient drive: %s\n",
              monotone ? "yes (ITG-like behaviour)" : "NO (unexpected)");
  return monotone ? 0 : 1;
}
