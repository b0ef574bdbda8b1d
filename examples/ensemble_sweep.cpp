// Ensemble sweep: the XGYRO workflow on a real (small-grid) computation.
//
// A four-member temperature-gradient scan — the classic fusion parameter
// sweep whose members share every cmat-relevant parameter — runs as a
// single simulated HPC job with one distributed copy of the collisional
// constant tensor. Each member reports its own transport proxy, and the
// job prints the memory the sharing saved.
//
//   $ ./examples/ensemble_sweep
#include <cstdio>

#include "gyro/simulation.hpp"
#include "simnet/machine.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"

int main() {
  using namespace xg;

  gyro::Input base = gyro::Input::small_test(2);
  base.n_radial = 8;
  base.n_steps_per_report = 10;

  const int k = 4;
  const auto ensemble = xgyro::EnsembleInput::sweep(
      base, k, [](gyro::Input& in, int i) {
        in.species[0].a_ln_t = 1.5 + 0.75 * i;  // the scan parameter
        in.tag = strprintf("aLT=%.2f", in.species[0].a_ln_t);
      });
  std::printf("ensemble of %d members sharing cmat (fingerprint %016llx)\n\n",
              k,
              static_cast<unsigned long long>(
                  ensemble.members[0].cmat_fingerprint()));

  const int ranks_per_sim = 4;
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kReal;
  opts.n_report_intervals = 2;
  const auto job =
      xgyro::run_job(ensemble, net::frontier_like(2), ranks_per_sim, opts);

  const auto decomp = gyro::Decomposition::choose(base, ranks_per_sim, k);
  const double shared =
      gyro::Simulation::memory_inventory(base, decomp, k).bytes_of("cmat");
  const double unshared =
      gyro::Simulation::memory_inventory(base, decomp, 1).bytes_of("cmat");
  std::printf("%-12s %14s %14s %16s\n", "member", "phi_rms", "flux proxy",
              "cmat slice/rank");
  for (int m = 0; m < k; ++m) {
    const gyro::Diagnostics& d = job.diagnostics[static_cast<size_t>(m)];
    std::printf("%-12s %14.6e %14.6e %16s\n", ensemble.members[m].tag.c_str(),
                d.phi_rms, d.flux_proxy, human_bytes(shared).c_str());
  }
  std::printf("\ncmat per rank: %s shared vs %s if every member kept its own "
              "copy (%dx saving, paper §2.1)\n",
              human_bytes(shared).c_str(), human_bytes(unshared).c_str(), k);
  return 0;
}
