// Ablation: rank placement. XGYRO's streaming-phase win comes from each
// member's small nv communicator fitting inside a node under the standard
// block placement. Scattering ranks round-robin across nodes destroys that
// locality — this bench quantifies how much of the Fig. 2 speedup placement
// is responsible for.
//
//   ./bench/placement_ablation [--steps N] [--smoke]
//
// Exit status 0 iff block placement keeps a larger XGYRO advantage than
// round-robin; --smoke checks that on a 1-step report interval.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "gyro/simulation.hpp"
#include "perfmodel/perfmodel.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"
#include "xgyro/ensemble.hpp"

int main(int argc, char** argv) {
  using namespace xg;
  int steps = 5;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--steps" && i + 1 < argc) steps = std::atoi(argv[++i]);
    if (a == "--smoke") steps = 1;
  }
  gyro::Input base = gyro::Input::nl03c_like();
  base.n_steps_per_report = steps;
  const int k = 8;
  const auto ensemble = xgyro::EnsembleInput::sweep(
      base, k, [](gyro::Input& in, int i) {
        in.species[0].a_ln_t = 2.0 + 0.25 * i;
      });

  std::printf("=== Placement ablation: 8x nl03c-like on 32 nodes (%d steps) ===\n\n",
              steps);
  std::printf("%-12s %-8s %12s %12s %12s\n", "placement", "job", "str_comm",
              "t/report", "speedup");

  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kModel;
  double speedups[2] = {0, 0};
  int idx = 0;
  for (const auto strategy :
       {net::PlacementStrategy::kBlock, net::PlacementStrategy::kRoundRobin}) {
    auto machine = perfmodel::nl03c_machine(32);
    machine.placement = strategy;
    const char* name =
        strategy == net::PlacementStrategy::kBlock ? "block" : "round-robin";
    const auto cgyro =
        xgyro::run_cgyro_job(base, machine, machine.total_ranks(), opts);
    const auto xgyro_res =
        xgyro::run_xgyro_job(ensemble, machine, machine.total_ranks() / k, opts);
    const double cg_total = k * xgyro::report_step_seconds(cgyro);
    const double xg_total = xgyro::report_step_seconds(xgyro_res);
    std::printf("%-12s %-8s %12.3f %12.3f\n", name, "CGYROx8",
                k * xgyro::phase_seconds(cgyro, "str_comm"), cg_total);
    std::printf("%-12s %-8s %12.3f %12.3f %11.2fx\n", name, "XGYRO",
                xgyro::phase_seconds(xgyro_res, "str_comm"), xg_total,
                cg_total / xg_total);
    speedups[idx++] = cg_total / xg_total;
  }
  const bool block_speedup_larger = speedups[0] > speedups[1];
  std::printf("\nblock placement preserves the ensemble advantage better than "
              "round-robin: %s\n",
              block_speedup_larger ? "YES" : "NO");
  return block_speedup_larger ? 0 : 1;
}
