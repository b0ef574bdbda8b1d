// Ablation: communication/computation overlap on the transpose+work pattern.
//
// CGYRO's production configuration overlaps its AllToAll transposes with
// per-block computation (one of the optimizations that keeps the nl phase
// affordable on Frontier). The simulated runtime models this through
// nonblocking sends on a per-rank NIC timeline: this bench quantifies how
// much of the transpose cost the overlap hides, across block sizes and
// compute intensities.
//
//   ./bench/overlap_ablation [--smoke]
//
// Exit status 0 iff the overlapped transpose is never slower than the
// blocking one and hides more than 5% somewhere, and every pipelined
// collision phase beats the unpipelined one. --smoke runs the solver sweep
// with 1-step report intervals instead of 5.
#include <cstdio>
#include <string>

#include "gyro/simulation.hpp"
#include "perfmodel/perfmodel.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"

namespace {

using xg::mpi::Proc;
using xg::mpi::Request;

/// Blocking: full AllToAll, then compute every block.
double run_sequential(const xg::net::MachineSpec& spec, int p,
                      std::uint64_t block_bytes, double flops_per_block) {
  const auto res = xg::mpi::run_simulation(spec, p, [&](Proc& proc) {
    auto world = proc.world();
    world.alltoall_virtual(block_bytes);
    proc.compute(flops_per_block * p);
  });
  return res.makespan_s;
}

/// Pipelined: post all sends/receives, compute the local block first, then
/// process each incoming block as it completes.
double run_overlapped(const xg::net::MachineSpec& spec, int p,
                      std::uint64_t block_bytes, double flops_per_block) {
  const auto res = xg::mpi::run_simulation(spec, p, [&](Proc& proc) {
    auto world = proc.world();
    const int r = world.rank();
    std::vector<Request> sends, recvs;
    for (int step = 1; step < p; ++step) {
      sends.push_back(world.isend_virtual(block_bytes, (r + step) % p, step));
      recvs.push_back(world.irecv_virtual(block_bytes, (r - step + p) % p, step));
    }
    proc.compute(flops_per_block);  // own block, free overlap
    for (auto& req : recvs) {
      world.wait(req);
      proc.compute(flops_per_block);
    }
    world.waitall(std::span<Request>(sends));
  });
  return res.makespan_s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xg;
  const bool smoke = argc > 1 && std::string(argv[1]) == "--smoke";
  std::printf("=== Transpose/compute overlap ablation (simulated Frontier) ===\n\n");
  std::printf("%-6s %-12s %-14s %12s %12s %10s\n", "ranks", "block", "flops/blk",
              "blocking[ms]", "overlap[ms]", "saved");

  bool ever_saved = false;
  bool never_slower = true;
  for (const int p : {8, 16}) {
    const auto spec = net::frontier_like((p + 7) / 8);
    for (const std::uint64_t block : {std::uint64_t{256} * 1024,
                                      std::uint64_t{4} * 1024 * 1024}) {
      for (const double flops : {1e7, 1e8}) {
        const double seq = run_sequential(spec, p, block, flops);
        const double ovl = run_overlapped(spec, p, block, flops);
        const double saved = (seq - ovl) / seq;
        ever_saved |= saved > 0.05;
        never_slower &= ovl <= seq;
        std::printf("%-6d %-12s %-14.0e %12.3f %12.3f %9.1f%%\n", p,
                    human_bytes(double(block)).c_str(), flops, seq * 1e3,
                    ovl * 1e3, 100.0 * saved);
      }
    }
  }
  std::printf("\noverlap hides part of the transpose whenever per-block "
              "compute is comparable to per-block transfer time.\n");

  // --- solver-level: the COLL_PIPELINE input knob on the nl03c point -------
  const int steps = smoke ? 1 : 5;
  std::printf("\n--- CGYRO nl03c-like collision phase, COLL_PIPELINE sweep "
              "(32 nodes, %d steps) ---\n",
              steps);
  std::printf("%-8s %12s %12s %12s\n", "chunks", "coll", "coll_comm",
              "coll total");
  xg::gyro::Input in = xg::gyro::Input::nl03c_like();
  in.n_steps_per_report = steps;
  const auto machine = xg::perfmodel::nl03c_machine(32);
  double unpiped = 0;
  bool pipelining_helps = true;
  for (const int chunks : {1, 4, 16}) {
    in.coll_pipeline_chunks = chunks;
    xg::xgyro::JobOptions opts;
    opts.mode = xg::gyro::Mode::kModel;
    const auto res =
        xg::xgyro::run_cgyro_job(in, machine, machine.total_ranks(), opts);
    const double coll = xg::xgyro::phase_seconds(res, "coll");
    const double comm = xg::xgyro::phase_seconds(res, "coll_comm");
    if (chunks == 1) unpiped = coll + comm;
    pipelining_helps &= chunks == 1 || coll + comm < unpiped;
    std::printf("%-8d %12.3f %12.3f %12.3f\n", chunks, coll, comm, coll + comm);
  }
  std::printf("(unpipelined coll total %.3f s; pipelining hides the kernels "
              "behind the transpose)\n", unpiped);
  return ever_saved && never_slower && pipelining_helps ? 0 : 1;
}
