// Grouped campaign: the generalization of XGYRO to a mixed parameter scan.
//
// The paper's XGYRO requires every ensemble member to share cmat. Real
// campaigns often mix scans — here, a 2×2 grid over (collisionality,
// temperature gradient). Collisionality feeds cmat, the gradient does not,
// so the four members fall into TWO sharing groups of two. With
// SharingPolicy::kGroupByFingerprint the whole campaign still runs as one
// job: each group gets one distributed cmat copy and its own collision
// communicator.
//
//   $ ./examples/grouped_campaign
#include <cstdio>

#include "gyro/simulation.hpp"
#include "simnet/machine.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"

int main() {
  using namespace xg;

  const gyro::Input base = gyro::Input::small_test(2);
  xgyro::EnsembleInput campaign;
  for (const double nu : {0.05, 0.2}) {        // cmat-relevant axis
    for (const double alt : {2.0, 4.0}) {      // sweep-safe axis
      gyro::Input in = base;
      in.collision.nu_ee = nu;
      in.species[0].a_ln_t = alt;
      in.tag = strprintf("nu=%.2f aLT=%.1f", nu, alt);
      campaign.members.push_back(in);
    }
  }

  const auto groups = campaign.sharing_groups();
  std::printf("campaign of %d members -> %zu cmat sharing groups:\n",
              campaign.n_sims(), groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    std::printf("  group %zu:", g);
    for (const int s : groups[g]) {
      std::printf(" [%s]", campaign.members[s].tag.c_str());
    }
    std::printf("\n");
  }

  const int ranks_per_sim = 4;
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kReal;
  opts.n_report_intervals = 2;
  opts.sharing = xgyro::SharingPolicy::kGroupByFingerprint;
  const auto job =
      xgyro::run_job(campaign, net::frontier_like(2), ranks_per_sim, opts);

  const auto decomp = gyro::Decomposition::choose(
      base, ranks_per_sim, static_cast<int>(groups[0].size()));
  std::printf("\n%-18s %-6s %14s %14s %12s\n", "member", "group", "phi_rms",
              "flux proxy", "cmat/rank");
  for (size_t g = 0; g < groups.size(); ++g) {
    const double cmat = gyro::Simulation::memory_inventory(
                            base, decomp, static_cast<int>(groups[g].size()))
                            .bytes_of("cmat");
    for (const int s : groups[g]) {
      const gyro::Diagnostics& d = job.diagnostics[static_cast<size_t>(s)];
      std::printf("%-18s %-6zu %14.6e %14.6e %12s\n",
                  campaign.members[s].tag.c_str(), g, d.phi_rms, d.flux_proxy,
                  human_bytes(cmat).c_str());
    }
  }
  std::printf("\neach group shares one cmat copy across its members; a "
              "single-group XGYRO job would have refused this campaign.\n");
  return 0;
}
