// Ablation: GPU-aware MPI vs host staging.
//
// CGYRO's state lives in GPU memory. On machines where the MPI library can
// read device buffers directly (GPU-aware, as Cray MPICH on Frontier) the
// transposes and reductions touch only the network; without it every payload
// crosses the host link twice (D2H + H2D) — historically a dominant cost for
// GPU-resident fusion codes, and one the authors' earlier work (PEARC22,
// ref [2]) measures. This bench quantifies the penalty on the Fig. 2 point
// and shows that XGYRO's relative advantage survives either way.
//
//   ./bench/gpu_staging_ablation [--steps N] [--smoke]
//
// Exit status 0 iff XGYRO beats the CGYRO campaign in both MPI modes;
// --smoke checks that on a 1-step report interval.
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

  std::printf("=== GPU-aware MPI vs host staging (8x nl03c-like, 32 nodes, "
              "%d steps) ===\n\n",
              steps);
  std::printf("%-12s %-8s %12s %12s %12s %10s\n", "MPI mode", "job",
              "str_comm", "coll_comm", "t/report", "speedup");

  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kModel;
  double totals[2][2] = {{0, 0}, {0, 0}};  // [aware][cgyro/xgyro]
  int row = 0;
  for (const bool aware : {true, false}) {
    auto machine = perfmodel::nl03c_machine(32);
    machine.gpu_aware_mpi = aware;
    const char* name = aware ? "gpu-aware" : "host-staged";
    const auto cgyro =
        xgyro::run_cgyro_job(base, machine, machine.total_ranks(), opts);
    const auto xg =
        xgyro::run_xgyro_job(ensemble, machine, machine.total_ranks() / k, opts);
    const double cg_total = k * xgyro::report_step_seconds(cgyro);
    const double xg_total = xgyro::report_step_seconds(xg);
    totals[row][0] = cg_total;
    totals[row][1] = xg_total;
    std::printf("%-12s %-8s %12.3f %12.3f %12.3f\n", name, "CGYROx8",
                k * xgyro::phase_seconds(cgyro, "str_comm"),
                k * xgyro::phase_seconds(cgyro, "coll_comm"), cg_total);
    std::printf("%-12s %-8s %12.3f %12.3f %12.3f %9.2fx\n", name, "XGYRO",
                xgyro::phase_seconds(xg, "str_comm"),
                xgyro::phase_seconds(xg, "coll_comm"), xg_total,
                cg_total / xg_total);
    ++row;
  }

  const double staging_penalty_cgyro = totals[1][0] / totals[0][0];
  std::printf("\nhost staging slows the CGYRO campaign by %.2fx; the XGYRO "
              "advantage persists in both modes.\n",
              staging_penalty_cgyro);
  return (totals[0][1] < totals[0][0] && totals[1][1] < totals[1][0]) ? 0 : 1;
}
