// Quickstart: run one small CGYRO-skeleton simulation on a simulated
// 4-rank machine, with real physics data, and print diagnostics plus the
// per-phase timing table.
//
//   $ ./examples/quickstart
//
// What happens:
//  1. A Frontier-like virtual machine is described (simnet).
//  2. xgyro::run_job runs the job on four simulated ranks (simmpi fibers);
//     each builds its slice of the velocity/configuration grid, the
//     collisional constant tensor (cmat), and a random initial perturbation.
//  3. The solver advances two reporting intervals: RK4 streaming with
//     AllReduce field solves, then the implicit collision step through the
//     str↔coll AllToAll transpose.
//  4. Diagnostics, the CGYRO-style timing breakdown and memory are printed.
#include <cstdio>

#include "gyro/simulation.hpp"
#include "simnet/machine.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"

int main() {
  using namespace xg;

  // A small but non-trivial case: 2 species (ions + light electrons),
  // 4x8 velocity grid, 8x4 configuration grid, 4 toroidal modes.
  gyro::Input input = gyro::Input::small_test(2);
  input.n_radial = 8;
  input.n_steps_per_report = 10;
  input.tag = "quickstart";

  const int nranks = 4;
  const auto machine = net::frontier_like(1);
  const auto decomp = gyro::Decomposition::choose(input, nranks);
  std::printf("quickstart: %d ranks on %s (pv=%d, pt=%d)\n", nranks,
              machine.name.c_str(), decomp.pv, decomp.pt);

  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kReal;
  opts.n_report_intervals = 2;
  opts.cgyro_layout = true;
  const auto job =
      xgyro::run_job(xgyro::EnsembleInput{{input}}, machine, nranks, opts);
  const gyro::Diagnostics& diag = job.diagnostics.front();
  const auto inventory = gyro::Simulation::memory_inventory(input, decomp, 1);

  std::printf("\nafter %d steps (t = %.2f):\n", diag.steps, diag.time);
  std::printf("  phi_rms     = %.6e\n", diag.phi_rms);
  std::printf("  flux proxy  = %.6e\n", diag.flux_proxy);
  std::printf("  cmat slice  = %s per rank\n\n",
              human_bytes(inventory.bytes_of("cmat")).c_str());

  std::printf("per-phase timing (virtual seconds on the simulated machine):\n%s\n",
              gyro::format_timing(job.run, xgyro::solver_phases()).c_str());

  std::printf("memory inventory per rank:\n%s", inventory.table().c_str());
  return 0;
}
