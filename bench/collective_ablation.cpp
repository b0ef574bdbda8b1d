// Ablation: AllReduce algorithm choice (recursive doubling vs ring) across
// payload sizes on the simulated network — the crossover that justifies the
// kAuto switch in simmpi (and that real MPI libraries implement). Also
// times the pairwise AllToAll used by the str↔coll transpose.
#include <benchmark/benchmark.h>

#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"

namespace {

using xg::mpi::CollAlg;

void run_allreduce(benchmark::State& state, CollAlg alg) {
  const int p = static_cast<int>(state.range(0));
  const std::uint64_t bytes = static_cast<std::uint64_t>(state.range(1));
  const auto spec = xg::net::frontier_like((p + 7) / 8);
  double virt = 0.0;
  for (auto _ : state) {
    const auto res = xg::mpi::run_simulation(
        spec, p,
        [&](xg::mpi::Proc& proc) { proc.world().allreduce_virtual(bytes, alg); });
    virt = res.makespan_s;
  }
  state.counters["virtual_us"] = virt * 1e6;
}

void BM_AllReduceRecursiveDoubling(benchmark::State& state) {
  run_allreduce(state, CollAlg::kRecursiveDoubling);
}
void BM_AllReduceRing(benchmark::State& state) {
  run_allreduce(state, CollAlg::kRing);
}

void BM_AllToAllPairwise(benchmark::State& state) {
  const int p = static_cast<int>(state.range(0));
  const std::uint64_t bytes_per_pair = static_cast<std::uint64_t>(state.range(1));
  const auto spec = xg::net::frontier_like((p + 7) / 8);
  double virt = 0.0;
  for (auto _ : state) {
    const auto res = xg::mpi::run_simulation(
        spec, p,
        [&](xg::mpi::Proc& proc) { proc.world().alltoall_virtual(bytes_per_pair); });
    virt = res.makespan_s;
  }
  state.counters["virtual_us"] = virt * 1e6;
}

}  // namespace

BENCHMARK(BM_AllReduceRecursiveDoubling)
    ->ArgsProduct({{4, 16}, {1024, 64 * 1024, 1024 * 1024}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllReduceRing)
    ->ArgsProduct({{4, 16}, {1024, 64 * 1024, 1024 * 1024}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_AllToAllPairwise)
    ->ArgsProduct({{4, 16, 32}, {4096, 256 * 1024}})
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
