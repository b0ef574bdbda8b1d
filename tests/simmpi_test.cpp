// Simulated-MPI runtime tests: p2p semantics, every collective against a
// serial reference, communicator splitting, virtual-time behaviour, the
// participant-count scaling the XGYRO paper relies on, the fiber switch and
// stack pool, and the allocation-free message path.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfenv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <new>
#include <numeric>
#include <set>
#include <thread>

#include "alloc_count.hpp"
#include "run_digest.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fiber.hpp"
#include "simmpi/runtime.hpp"
#include "simmpi/traffic.hpp"
#include "simnet/machine.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace xg::mpi {
namespace {

net::MachineSpec small_machine(int nranks) {
  // Single testbox node large enough for nranks.
  return net::testbox(1, nranks);
}

net::MachineSpec multi_node(int nodes, int rpn) { return net::testbox(nodes, rpn); }

std::vector<double> rank_values(int rank, int n, std::uint64_t salt = 0) {
  Rng rng(1000 + static_cast<std::uint64_t>(rank) * 7919 + salt);
  std::vector<double> v(static_cast<size_t>(n));
  for (auto& x : v) x = rng.uniform(-1, 1);
  return v;
}

// The typed collectives' result digest: every fold is a bijection of the
// state, so changing any one 8-byte word (the zero-padded tail included)
// of a buffer must change the digest; the length tells apart buffers that
// differ only in trailing zero bytes.
TEST(ResultDigest, AnySingleWordChangeChangesDigest) {
  Rng rng(2025);
  for (const size_t n : {size_t{8}, size_t{36}, size_t{203}, size_t{1024}}) {
    std::vector<unsigned char> buf(n);
    for (auto& b : buf) b = static_cast<unsigned char>(rng.next_u64());
    const std::uint64_t base = word_digest(buf.data(), n);
    for (size_t w = 0; w < n; w += 8) {
      const size_t len = std::min<size_t>(8, n - w);
      for (int trial = 0; trial < 16; ++trial) {
        std::vector<unsigned char> other = buf;
        do {
          const std::uint64_t v = rng.next_u64();
          std::memcpy(other.data() + w, &v, len);
        } while (std::equal(other.begin() + static_cast<std::ptrdiff_t>(w),
                            other.begin() + static_cast<std::ptrdiff_t>(w + len),
                            buf.begin() + static_cast<std::ptrdiff_t>(w)));
        EXPECT_NE(word_digest(other.data(), n), base)
            << "n=" << n << " word " << w / 8 << " trial " << trial;
      }
    }
  }
  const std::vector<unsigned char> zeros(16, 0);
  std::set<std::uint64_t> by_length;
  for (size_t n = 0; n <= zeros.size(); ++n) {
    by_length.insert(word_digest(zeros.data(), n));
  }
  EXPECT_EQ(by_length.size(), zeros.size() + 1);
}

TEST(P2p, SendRecvDeliversPayload) {
  run_simulation(small_machine(2), 2, [](Proc& p) {
    auto world = p.world();
    if (p.world_rank() == 0) {
      std::vector<int> data{1, 2, 3};
      world.send(std::span<const int>(data), 1, /*tag=*/5);
    } else {
      std::vector<int> data(3);
      world.recv(std::span<int>(data), 0, 5);
      EXPECT_EQ(data, (std::vector<int>{1, 2, 3}));
    }
  });
}

TEST(P2p, TagsKeepMessagesApart) {
  run_simulation(small_machine(2), 2, [](Proc& p) {
    auto world = p.world();
    if (p.world_rank() == 0) {
      const int a = 10, b = 20;
      world.send(std::span<const int>(&a, 1), 1, 1);
      world.send(std::span<const int>(&b, 1), 1, 2);
    } else {
      int b = 0, a = 0;
      // Receive in reverse tag order: matching must be by tag, not arrival.
      world.recv(std::span<int>(&b, 1), 0, 2);
      world.recv(std::span<int>(&a, 1), 0, 1);
      EXPECT_EQ(a, 10);
      EXPECT_EQ(b, 20);
    }
  });
}

TEST(P2p, FifoWithinChannel) {
  run_simulation(small_machine(2), 2, [](Proc& p) {
    auto world = p.world();
    if (p.world_rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        world.send(std::span<const int>(&i, 1), 1, 3);
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        int v = -1;
        world.recv(std::span<int>(&v, 1), 0, 3);
        EXPECT_EQ(v, i);
      }
    }
  });
}

TEST(P2p, PayloadSizeMismatchThrows) {
  EXPECT_THROW(
      run_simulation(small_machine(2), 2,
                     [](Proc& p) {
                       auto world = p.world();
                       if (p.world_rank() == 0) {
                         std::vector<int> d(3);
                         world.send(std::span<const int>(d), 1, 0);
                       } else {
                         std::vector<int> d(4);
                         world.recv(std::span<int>(d), 0, 0);
                       }
                     }),
      MpiUsageError);
}

TEST(P2p, VirtualIntoRealRecvThrows) {
  EXPECT_THROW(run_simulation(small_machine(2), 2,
                              [](Proc& p) {
                                auto world = p.world();
                                if (p.world_rank() == 0) {
                                  world.send_virtual(16, 1, 0);
                                } else {
                                  std::vector<int> d(4);
                                  world.recv(std::span<int>(d), 0, 0);
                                }
                              }),
               MpiUsageError);
}

TEST(P2p, RankExceptionPropagatesWithoutDeadlock) {
  EXPECT_THROW(run_simulation(small_machine(4), 4,
                              [](Proc& p) {
                                auto world = p.world();
                                if (p.world_rank() == 2) {
                                  throw Error("rank 2 exploded");
                                }
                                // Everyone else blocks on a message that will
                                // never arrive; abort must wake them.
                                std::vector<int> d(1);
                                world.recv(std::span<int>(d),
                                           (p.world_rank() + 1) % 4, 9);
                              }),
               Error);
}

TEST(Nonblocking, IsendIrecvDeliverPayloads) {
  run_simulation(small_machine(2), 2, [](Proc& p) {
    auto world = p.world();
    if (p.world_rank() == 0) {
      std::vector<int> a{1, 2, 3}, b{4, 5};
      auto r1 = world.isend(std::span<const int>(a), 1, 7);
      auto r2 = world.isend(std::span<const int>(b), 1, 8);
      world.wait(r1);
      world.wait(r2);
      EXPECT_FALSE(r1.valid());
    } else {
      std::vector<int> a(3), b(2);
      auto r2 = world.irecv(std::span<int>(b), 0, 8);
      auto r1 = world.irecv(std::span<int>(a), 0, 7);
      std::vector<Request> reqs{r1, r2};
      world.waitall(reqs);
      EXPECT_EQ(a, (std::vector<int>{1, 2, 3}));
      EXPECT_EQ(b, (std::vector<int>{4, 5}));
    }
  });
}

TEST(Nonblocking, EmptyRequestWaitIsNoop) {
  run_simulation(small_machine(1), 1, [](Proc& p) {
    auto world = p.world();
    Request r;
    EXPECT_FALSE(r.valid());
    const double t0 = p.now();
    world.wait(r);
    EXPECT_DOUBLE_EQ(p.now(), t0);
  });
}

TEST(Nonblocking, SenderOverlapsComputeWithInjection) {
  // Blocking: clock pays injection THEN compute. Nonblocking: compute runs
  // while the NIC injects; wait only charges the remainder.
  const auto spec = multi_node(2, 1);
  const std::uint64_t bytes = 10 * 1000 * 1000;  // 0.1 s at 1e8 B/s
  const double flops = 5e7;                      // 0.05 s at 1e9 flop/s
  auto run = [&](bool nonblocking) {
    const auto res = run_simulation(spec, 2, [&](Proc& p) {
      auto world = p.world();
      if (p.world_rank() == 0) {
        if (nonblocking) {
          auto r = world.isend_virtual(bytes, 1, 0);
          p.compute(flops);
          world.wait(r);
        } else {
          world.send_virtual(bytes, 1, 0);
          p.compute(flops);
        }
      } else {
        world.recv_virtual(bytes, 0, 0);
      }
    });
    return res.ranks[0].final_time_s;
  };
  const double blocking = run(false);
  const double overlapped = run(true);
  // Injection (0.1 s) hides the 0.05 s of compute almost entirely.
  EXPECT_LT(overlapped, blocking - 0.04);
  EXPECT_GT(overlapped, 0.09);  // still bounded below by the injection
}

TEST(Nonblocking, ReceiverOverlapsComputeWithFlight) {
  const auto spec = multi_node(2, 1);
  const std::uint64_t bytes = 10 * 1000 * 1000;
  auto run = [&](bool nonblocking) {
    const auto res = run_simulation(spec, 2, [&](Proc& p) {
      auto world = p.world();
      if (p.world_rank() == 0) {
        world.send_virtual(bytes, 1, 0);
      } else {
        if (nonblocking) {
          auto r = world.irecv_virtual(bytes, 0, 0);
          p.compute(8e7);  // 0.08 s of useful work during the transfer
          world.wait(r);
        } else {
          world.recv_virtual(bytes, 0, 0);
          p.compute(8e7);
        }
      }
    });
    return res.ranks[1].final_time_s;
  };
  EXPECT_LT(run(true), run(false) - 0.05);
}

TEST(Nonblocking, NicSerializesOutstandingSends) {
  // Two isends back to back: the second injection starts only after the
  // first finishes, so waiting on the second costs both transfers.
  const auto spec = multi_node(2, 1);
  const std::uint64_t bytes = 10 * 1000 * 1000;  // 0.1 s each
  const auto res = run_simulation(spec, 2, [&](Proc& p) {
    auto world = p.world();
    if (p.world_rank() == 0) {
      auto r1 = world.isend_virtual(bytes, 1, 0);
      auto r2 = world.isend_virtual(bytes, 1, 1);
      world.wait(r2);
      EXPECT_GT(p.now(), 0.19);
      world.wait(r1);
    } else {
      world.recv_virtual(bytes, 0, 0);
      world.recv_virtual(bytes, 0, 1);
    }
  });
  (void)res;
}

TEST(Nonblocking, BlockingSendUnchangedWhenNicIdle) {
  // The refactor of blocking send through the NIC timeline must not change
  // classic timings: o_send + bytes/bw exactly.
  const auto spec = multi_node(2, 1);
  const auto res = run_simulation(spec, 2, [&](Proc& p) {
    auto world = p.world();
    if (p.world_rank() == 0) {
      const double t0 = p.now();
      world.send_virtual(1000 * 1000, 1, 0);
      EXPECT_NEAR(p.now() - t0,
                  spec.send_overhead_s + 1e6 / spec.inter_bw_Bps, 1e-12);
    } else {
      world.recv_virtual(1000 * 1000, 0, 0);
    }
  });
  (void)res;
}

TEST(VirtualTime, RecvWaitsForArrival) {
  run_simulation(multi_node(2, 1), 2, [](Proc& p) {
    auto world = p.world();
    if (p.world_rank() == 0) {
      std::vector<double> d(1000);
      world.send(std::span<const double>(d), 1, 0);
    } else {
      std::vector<double> d(1000);
      const double t0 = p.now();
      world.recv(std::span<double>(d), 0, 0);
      const auto& spec = p.placement().spec();
      // Must cost at least the inter-node latency plus serialization.
      const double min_cost = spec.inter_latency_s + 8000.0 / spec.inter_bw_Bps;
      EXPECT_GT(p.now() - t0, min_cost * 0.9);
    }
  });
}

TEST(VirtualTime, IntraNodeFasterThanInterNode) {
  // Same payload between ranks 0-1 (same node) vs 0-2 (different node).
  const auto spec = multi_node(2, 2);
  double intra = 0, inter = 0;
  auto result = run_simulation(spec, 4, [&](Proc& p) {
    auto world = p.world();
    std::vector<double> d(4096);
    if (p.world_rank() == 0) {
      world.send(std::span<const double>(d), 1, 0);
      world.send(std::span<const double>(d), 2, 0);
    } else if (p.world_rank() == 1) {
      const double t0 = p.now();
      world.recv(std::span<double>(d), 0, 0);
      intra = p.now() - t0;
    } else if (p.world_rank() == 2) {
      const double t0 = p.now();
      world.recv(std::span<double>(d), 0, 0);
      inter = p.now() - t0;
    }
  });
  EXPECT_GT(inter, 2.0 * intra);
}

TEST(VirtualTime, DeterministicAcrossRuns) {
  auto body = [](Proc& p) {
    auto world = p.world();
    std::vector<double> d(64, p.world_rank());
    world.allreduce_sum(std::span<double>(d));
    p.compute(1e6);
    world.barrier();
  };
  const auto r1 = run_simulation(small_machine(8), 8, body);
  const auto r2 = run_simulation(small_machine(8), 8, body);
  ASSERT_EQ(r1.ranks.size(), r2.ranks.size());
  for (size_t i = 0; i < r1.ranks.size(); ++i) {
    EXPECT_DOUBLE_EQ(r1.ranks[i].final_time_s, r2.ranks[i].final_time_s);
  }
}

TEST(VirtualTime, ComputeChargesToPhase) {
  const auto result = run_simulation(small_machine(1), 1, [](Proc& p) {
    p.set_phase("alpha");
    p.compute(/*flops=*/2e9);
    p.set_phase("beta");
    p.advance(0.5);
  });
  const auto& phases = result.ranks[0].phases;
  EXPECT_NEAR(phases.at("alpha").compute_s, 2.0, 1e-12);  // 2e9 / 1e9 flop/s
  EXPECT_NEAR(phases.at("beta").compute_s, 0.5, 1e-12);
  EXPECT_NEAR(result.makespan_s, 2.5, 1e-12);
}

class CollectiveP : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveP, AllReduceSumMatchesSerial) {
  const int p = GetParam();
  const int n = 37;
  // serial reference
  std::vector<double> expected(n, 0.0);
  for (int r = 0; r < p; ++r) {
    const auto v = rank_values(r, n);
    for (int i = 0; i < n; ++i) expected[i] += v[i];
  }
  for (const auto alg : {CollAlg::kRecursiveDoubling, CollAlg::kRing}) {
    run_simulation(small_machine(p), p, [&, alg](Proc& proc) {
      auto world = proc.world();
      auto mine = rank_values(proc.world_rank(), n);
      world.allreduce_sum(std::span<double>(mine), alg);
      for (int i = 0; i < n; ++i) {
        EXPECT_NEAR(mine[i], expected[i], 1e-12)
            << "p=" << p << " alg=" << static_cast<int>(alg);
      }
    });
  }
}

TEST_P(CollectiveP, AllReduceResultIdenticalOnAllRanks) {
  const int p = GetParam();
  const int n = 17;
  std::vector<std::vector<double>> results(static_cast<size_t>(p));
  run_simulation(small_machine(p), p, [&](Proc& proc) {
    auto mine = rank_values(proc.world_rank(), n, 5);
    proc.world().allreduce_sum(std::span<double>(mine));
    results[proc.world_rank()] = mine;
  });
  for (int r = 1; r < p; ++r) {
    // bitwise identical: operand order is fixed independent of rank
    EXPECT_EQ(results[r], results[0]) << "p=" << p;
  }
}

TEST_P(CollectiveP, AllReduceMax) {
  const int p = GetParam();
  run_simulation(small_machine(p), p, [&](Proc& proc) {
    std::vector<double> v{static_cast<double>(proc.world_rank())};
    proc.world().allreduce(std::span<double>(v),
                           [](double a, double b) { return std::max(a, b); });
    EXPECT_DOUBLE_EQ(v[0], p - 1);
  });
}

TEST_P(CollectiveP, BcastFromEveryRoot) {
  const int p = GetParam();
  for (int root = 0; root < p; root += std::max(1, p / 3)) {
    run_simulation(small_machine(p), p, [&](Proc& proc) {
      std::vector<int> v(5);
      if (proc.world_rank() == root) {
        std::iota(v.begin(), v.end(), 100 + root);
      }
      proc.world().bcast(std::span<int>(v), root);
      for (int i = 0; i < 5; ++i) EXPECT_EQ(v[i], 100 + root + i);
    });
  }
}

TEST_P(CollectiveP, ReduceToEveryRoot) {
  const int p = GetParam();
  const int n = 9;
  std::vector<double> expected(n, 0.0);
  for (int r = 0; r < p; ++r) {
    const auto v = rank_values(r, n, 3);
    for (int i = 0; i < n; ++i) expected[i] += v[i];
  }
  for (int root = 0; root < p; root += std::max(1, p / 2)) {
    run_simulation(small_machine(p), p, [&](Proc& proc) {
      auto mine = rank_values(proc.world_rank(), n, 3);
      proc.world().reduce(std::span<double>(mine),
                          [](double a, double b) { return a + b; }, root);
      if (proc.world_rank() == root) {
        for (int i = 0; i < n; ++i) EXPECT_NEAR(mine[i], expected[i], 1e-12);
      }
    });
  }
}

TEST_P(CollectiveP, AllToAllPermutesBlocks) {
  const int p = GetParam();
  const int count = 3;
  run_simulation(small_machine(p), p, [&](Proc& proc) {
    auto world = proc.world();
    const int r = proc.world_rank();
    std::vector<int> send(static_cast<size_t>(p) * count);
    for (int q = 0; q < p; ++q) {
      for (int i = 0; i < count; ++i) {
        send[static_cast<size_t>(q) * count + i] = r * 10000 + q * 100 + i;
      }
    }
    std::vector<int> recv(send.size());
    world.alltoall(std::span<const int>(send), std::span<int>(recv));
    for (int q = 0; q < p; ++q) {
      for (int i = 0; i < count; ++i) {
        // Block from rank q must be what q addressed to me.
        EXPECT_EQ(recv[static_cast<size_t>(q) * count + i],
                  q * 10000 + r * 100 + i);
      }
    }
  });
}

TEST_P(CollectiveP, AllGatherCollectsInRankOrder) {
  const int p = GetParam();
  run_simulation(small_machine(p), p, [&](Proc& proc) {
    std::vector<int> mine{proc.world_rank() * 2, proc.world_rank() * 2 + 1};
    std::vector<int> all(static_cast<size_t>(2 * p));
    proc.world().allgather(std::span<const int>(mine), std::span<int>(all));
    for (int q = 0; q < p; ++q) {
      EXPECT_EQ(all[2 * q], q * 2);
      EXPECT_EQ(all[2 * q + 1], q * 2 + 1);
    }
  });
}

TEST_P(CollectiveP, GatherScatterRoundTrip) {
  const int p = GetParam();
  run_simulation(small_machine(p), p, [&](Proc& proc) {
    auto world = proc.world();
    const int root = p / 2;
    std::vector<double> mine{static_cast<double>(proc.world_rank()) + 0.5};
    std::vector<double> all(proc.world_rank() == root ? p : 0);
    world.gather(std::span<const double>(mine), std::span<double>(all), root);
    if (proc.world_rank() == root) {
      for (int q = 0; q < p; ++q) EXPECT_DOUBLE_EQ(all[q], q + 0.5);
      for (auto& v : all) v += 100.0;
    }
    std::vector<double> back(1);
    world.scatter(std::span<const double>(all), std::span<double>(back), root);
    EXPECT_DOUBLE_EQ(back[0], proc.world_rank() + 100.5);
  });
}

TEST_P(CollectiveP, ReduceScatterBlockMatchesSerial) {
  const int p = GetParam();
  const int count = 5;
  // expected: block r = sum over ranks q of q's block r
  std::vector<double> expected(static_cast<size_t>(count) * p, 0.0);
  for (int q = 0; q < p; ++q) {
    const auto v = rank_values(q, count * p, 77);
    for (size_t i = 0; i < v.size(); ++i) expected[i] += v[i];
  }
  run_simulation(small_machine(p), p, [&](Proc& proc) {
    const auto full = rank_values(proc.world_rank(), count * p, 77);
    std::vector<double> mine(count);
    proc.world().reduce_scatter_block(std::span<const double>(full),
                                      std::span<double>(mine),
                                      [](double a, double b) { return a + b; });
    for (int i = 0; i < count; ++i) {
      EXPECT_NEAR(mine[i],
                  expected[static_cast<size_t>(proc.world_rank()) * count + i],
                  1e-12)
          << "p=" << p << " elem " << i;
    }
  });
}

TEST_P(CollectiveP, ReduceScatterThenAllgatherEqualsAllReduce) {
  // Identity behind the ring AllReduce, checked end-to-end through the
  // public API.
  const int p = GetParam();
  const int count = 4;
  run_simulation(small_machine(p), p, [&](Proc& proc) {
    auto world = proc.world();
    const auto full = rank_values(proc.world_rank(), count * p, 91);
    std::vector<double> mine(count);
    world.reduce_scatter_block(std::span<const double>(full),
                               std::span<double>(mine),
                               [](double a, double b) { return a + b; });
    std::vector<double> gathered(static_cast<size_t>(count) * p);
    world.allgather(std::span<const double>(mine), std::span<double>(gathered));
    auto reduced = full;
    world.allreduce_sum(std::span<double>(reduced));
    for (size_t i = 0; i < reduced.size(); ++i) {
      EXPECT_NEAR(gathered[i], reduced[i], 1e-10);
    }
  });
}

TEST_P(CollectiveP, ScanComputesPrefixSums) {
  const int p = GetParam();
  const int n = 3;
  run_simulation(small_machine(p), p, [&](Proc& proc) {
    std::vector<double> v(n);
    for (int i = 0; i < n; ++i) v[i] = proc.world_rank() + 1.0 + i;
    proc.world().scan(std::span<double>(v),
                      [](double a, double b) { return a + b; });
    for (int i = 0; i < n; ++i) {
      double expect = 0;
      for (int q = 0; q <= proc.world_rank(); ++q) expect += q + 1.0 + i;
      EXPECT_NEAR(v[i], expect, 1e-12) << "rank " << proc.world_rank();
    }
  });
}

TEST_P(CollectiveP, VirtualReduceScatterAndScanMatchRealTiming) {
  const int p = GetParam();
  const size_t count = 128;
  auto real = run_simulation(small_machine(p), p, [&](Proc& proc) {
    auto world = proc.world();
    std::vector<double> full(count * p, 1.0), mine(count);
    world.reduce_scatter_block(std::span<const double>(full),
                               std::span<double>(mine),
                               [](double a, double b) { return a + b; });
    world.scan(std::span<double>(mine), [](double a, double b) { return a + b; });
  });
  auto virt = run_simulation(small_machine(p), p, [&](Proc& proc) {
    auto world = proc.world();
    world.reduce_scatter_virtual(count * sizeof(double));
    world.scan_virtual(count * sizeof(double));
  });
  for (size_t i = 0; i < real.ranks.size(); ++i) {
    EXPECT_NEAR(real.ranks[i].final_time_s, virt.ranks[i].final_time_s, 1e-15);
  }
}

TEST_P(CollectiveP, BarrierCompletes) {
  const int p = GetParam();
  std::atomic<int> count{0};
  run_simulation(small_machine(p), p, [&](Proc& proc) {
    proc.world().barrier();
    count.fetch_add(1);
    proc.world().barrier();
  });
  EXPECT_EQ(count.load(), p);
}

TEST_P(CollectiveP, VirtualAllReduceMatchesRealTiming) {
  const int p = GetParam();
  const size_t n = 512;
  auto real = run_simulation(small_machine(p), p, [&](Proc& proc) {
    std::vector<double> v(n, 1.0);
    proc.world().allreduce_sum(std::span<double>(v));
  });
  auto virt = run_simulation(small_machine(p), p, [&](Proc& proc) {
    proc.world().allreduce_virtual(n * sizeof(double));
  });
  ASSERT_EQ(real.ranks.size(), virt.ranks.size());
  for (size_t i = 0; i < real.ranks.size(); ++i) {
    EXPECT_NEAR(real.ranks[i].final_time_s, virt.ranks[i].final_time_s, 1e-15)
        << "p=" << p;
  }
}

TEST_P(CollectiveP, VirtualAllToAllMatchesRealTiming) {
  const int p = GetParam();
  const size_t count = 64;
  auto real = run_simulation(small_machine(p), p, [&](Proc& proc) {
    std::vector<double> s(count * p, 1.0), r(count * p);
    proc.world().alltoall(std::span<const double>(s), std::span<double>(r));
  });
  auto virt = run_simulation(small_machine(p), p, [&](Proc& proc) {
    proc.world().alltoall_virtual(count * sizeof(double));
  });
  for (size_t i = 0; i < real.ranks.size(); ++i) {
    EXPECT_NEAR(real.ranks[i].final_time_s, virt.ranks[i].final_time_s, 1e-15);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, CollectiveP,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 12, 16, 24));

TEST(Split, ColorPartitionsAndOrdersByKey) {
  run_simulation(small_machine(8), 8, [](Proc& p) {
    auto world = p.world();
    const int r = p.world_rank();
    // Two groups: evens and odds; order each descending by world rank.
    auto sub = world.split(r % 2, -r, "parity");
    EXPECT_EQ(sub.size(), 4);
    // Highest world rank gets local rank 0 (key = -r sorts descending).
    const int expect_rank = (7 - r) / 2;
    EXPECT_EQ(sub.rank(), expect_rank);
    // Members of the two groups have distinct contexts, same per color.
    std::vector<std::uint64_t> ctx{sub.context()};
    std::vector<std::uint64_t> all(8);
    world.allgather(std::span<const std::uint64_t>(ctx),
                    std::span<std::uint64_t>(all));
    for (int q = 0; q < 8; ++q) {
      if (q % 2 == r % 2) {
        EXPECT_EQ(all[q], sub.context());
      } else {
        EXPECT_NE(all[q], sub.context());
      }
    }
  });
}

TEST(Split, SubCommunicatorCollectivesWork) {
  run_simulation(small_machine(6), 6, [](Proc& p) {
    auto world = p.world();
    auto sub = world.split(p.world_rank() / 3, p.world_rank());
    std::vector<int> v{1};
    sub.allreduce(std::span<int>(v), [](int a, int b) { return a + b; });
    EXPECT_EQ(v[0], 3);
    // Nested split down to singletons.
    auto solo = sub.split(sub.rank(), 0);
    EXPECT_EQ(solo.size(), 1);
    std::vector<int> w{7};
    solo.allreduce_sum(std::span<int>(w));
    EXPECT_EQ(w[0], 7);
  });
}

TEST(Split, MessagesDoNotCrossCommunicators) {
  run_simulation(small_machine(4), 4, [](Proc& p) {
    auto world = p.world();
    auto sub = world.split(0, p.world_rank());  // same membership as world
    const int r = p.world_rank();
    if (r == 0) {
      const int a = 1, b = 2;
      world.send(std::span<const int>(&a, 1), 1, 0);
      sub.send(std::span<const int>(&b, 1), 1, 0);
    } else if (r == 1) {
      int a = 0, b = 0;
      // Receive from the sub communicator first: context must disambiguate.
      sub.recv(std::span<int>(&b, 1), 0, 0);
      world.recv(std::span<int>(&a, 1), 0, 0);
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, 2);
    }
  });
}

TEST(Scaling, AllReduceCostGrowsWithParticipants) {
  // The effect the paper exploits: same payload, more participants => more
  // expensive AllReduce. Measure makespan of one AllReduce at several sizes.
  const size_t bytes = 256 * 1024;
  double prev = 0.0;
  for (const int p : {2, 4, 8, 16}) {
    const auto res =
        run_simulation(net::testbox(p, 1), p, [&](Proc& proc) {
          proc.world().allreduce_virtual(bytes);
        });
    EXPECT_GT(res.makespan_s, prev) << "p=" << p;
    prev = res.makespan_s;
  }
}

TEST(Scaling, ExclusiveNetworkCommGetsMoreNicBandwidth) {
  // Frontier-like nodes have a per-rank NIC attach above the full-node fair
  // share. A communicator declared exclusive_network (no sibling traffic)
  // with one member per node moves the same inter-node payload faster than
  // the conservative default, which assumes every co-located rank injects.
  auto spec = net::frontier_like(2);  // 8 ranks/node, 12.5 GB/s share, 25 cap
  const std::uint64_t bytes = 4 * 1024 * 1024;
  auto run_pair = [&](bool exclusive) {
    // Measure only the AllReduce itself (the split's setup exchange is
    // identical in both variants and would dilute the ratio).
    const auto res = run_simulation(spec, 16, [&, exclusive](Proc& p) {
      // Pair rank i on node 0 with rank i+8 on node 1.
      auto pair = p.world().split(p.world_rank() % 8, p.world_rank(), "pair",
                                  exclusive);
      EXPECT_EQ(pair.size(), 2);
      p.set_phase("ar");
      if (p.world_rank() % 8 == 0) pair.allreduce_virtual(bytes);
      // Only pair 0 communicates — exclusivity is actually true here.
    });
    return res.phase_max_comm("ar");
  };
  const double shared = run_pair(false);
  const double exclusive = run_pair(true);
  // Bandwidth term doubles (12.5 → 25 GB/s): near-2x on a bw-bound payload.
  EXPECT_GT(shared, 1.7 * exclusive);

  // With the per-rank cap disabled the declaration has no effect.
  spec.rank_nic_bw_Bps = 0.0;
  EXPECT_NEAR(run_pair(false), run_pair(true), 1e-12);
}

TEST(Scaling, InterBwEffectiveFormula) {
  const auto spec = net::frontier_like(1);  // inter 12.5 GB/s, cap 25 GB/s
  const net::Placement place(spec);
  EXPECT_DOUBLE_EQ(place.inter_bw_effective(8), 12.5e9);  // full node
  EXPECT_DOUBLE_EQ(place.inter_bw_effective(4), 25.0e9);  // capped
  EXPECT_DOUBLE_EQ(place.inter_bw_effective(1), 25.0e9);  // capped
  auto uncapped = spec;
  uncapped.rank_nic_bw_Bps = 0.0;
  EXPECT_DOUBLE_EQ(net::Placement(uncapped).inter_bw_effective(1),
                   uncapped.inter_bw_Bps);
}

TEST(Trace, CollectivesAreRecordedWithParticipants) {
  RuntimeOptions opts;
  opts.enable_trace = true;
  Runtime rt(small_machine(4), 4, opts);
  const auto res = rt.run([](Proc& p) {
    auto world = p.world();
    world.allreduce_virtual(1024);
    auto sub = world.split(p.world_rank() % 2, p.world_rank(), "half");
    sub.alltoall_virtual(64);
  });
  // Every member records its own row: the world AllReduce yields 4 rows
  // (one per rank), each 2-rank sub-communicator's AllToAll yields 2 rows.
  // Rows with local_rank == 0 are the canonical one-per-collective view.
  int n_allreduce = 0, n_alltoall = 0, n_allgather = 0;
  int n_allreduce_canonical = 0, n_alltoall_canonical = 0;
  for (const auto& e : res.trace) {
    EXPECT_GE(e.local_rank, 0);
    switch (e.kind) {
      case TraceEvent::Kind::kAllReduce:
        ++n_allreduce;
        if (e.local_rank == 0) ++n_allreduce_canonical;
        EXPECT_EQ(e.participants, 4);
        EXPECT_EQ(e.payload_bytes, 1024u);
        break;
      case TraceEvent::Kind::kAllToAll:
        ++n_alltoall;
        if (e.local_rank == 0) ++n_alltoall_canonical;
        EXPECT_EQ(e.participants, 2);
        EXPECT_EQ(e.comm_label, "half");
        break;
      case TraceEvent::Kind::kAllGather:
        ++n_allgather;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(n_allreduce, 4);
  EXPECT_EQ(n_alltoall, 4);
  EXPECT_EQ(n_allreduce_canonical, 1);
  EXPECT_EQ(n_alltoall_canonical, 2);
  EXPECT_GE(n_allgather, 1);

  // All member rows of one collective instance share (comm_context, seq)
  // and report distinct local ranks.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::set<int>> groups;
  for (const auto& e : res.trace) {
    if (e.kind != TraceEvent::Kind::kAllReduce) continue;
    groups[{e.comm_context, e.seq}].insert(e.local_rank);
  }
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups.begin()->second.size(), 4u);
}

TEST(Gpu, KernelChargesLaunchOverheadOnlyWithGpu) {
  auto cpu = net::testbox(1, 1);
  const auto r_cpu = run_simulation(cpu, 1, [](Proc& p) { p.kernel(1e9); });
  auto gpu = cpu;
  gpu.has_gpu = true;
  gpu.kernel_launch_s = 5e-6;
  const auto r_gpu = run_simulation(gpu, 1, [](Proc& p) { p.kernel(1e9); });
  EXPECT_NEAR(r_gpu.makespan_s - r_cpu.makespan_s, 5e-6, 1e-12);
  // compute() itself never pays the launch overhead
  const auto r_plain = run_simulation(gpu, 1, [](Proc& p) { p.compute(1e9); });
  EXPECT_DOUBLE_EQ(r_plain.makespan_s, r_cpu.makespan_s);
}

TEST(Gpu, StagingChargedOnlyWithoutGpuAwareMpi) {
  auto spec = net::testbox(1, 1);
  spec.has_gpu = true;
  spec.h2d_bw_Bps = 1e9;
  const std::uint64_t bytes = 1000 * 1000;
  spec.gpu_aware_mpi = true;
  const auto aware =
      run_simulation(spec, 1, [&](Proc& p) { p.stage_for_comm(bytes); });
  EXPECT_DOUBLE_EQ(aware.makespan_s, 0.0);
  spec.gpu_aware_mpi = false;
  const auto staged =
      run_simulation(spec, 1, [&](Proc& p) { p.stage_for_comm(bytes); });
  EXPECT_NEAR(staged.makespan_s, 2e-3, 1e-12);  // D2H + H2D at 1 GB/s
  // upload is one-directional and independent of MPI awareness
  const auto upload =
      run_simulation(spec, 1, [&](Proc& p) { p.stage_upload(bytes); });
  EXPECT_NEAR(upload.makespan_s, 1e-3, 1e-12);
  spec.has_gpu = false;
  const auto nogpu =
      run_simulation(spec, 1, [&](Proc& p) { p.stage_for_comm(bytes); });
  EXPECT_DOUBLE_EQ(nogpu.makespan_s, 0.0);
}

TEST(Placement, RoundRobinScattersConsecutiveRanks) {
  auto spec = net::testbox(4, 2);
  net::Placement block(spec);
  EXPECT_EQ(block.node_of(0), 0);
  EXPECT_EQ(block.node_of(1), 0);
  EXPECT_EQ(block.node_of(2), 1);
  spec.placement = net::PlacementStrategy::kRoundRobin;
  net::Placement rr(spec);
  EXPECT_EQ(rr.node_of(0), 0);
  EXPECT_EQ(rr.node_of(1), 1);
  EXPECT_EQ(rr.node_of(4), 0);
  EXPECT_FALSE(rr.same_node(0, 1));
  EXPECT_TRUE(rr.same_node(0, 4));
}

TEST(Traffic, MatrixCapturesIntraAndInterBytes) {
  const auto spec = net::testbox(2, 2);
  RuntimeOptions opts;
  opts.enable_traffic = true;
  Runtime rt(spec, 4, opts);
  const auto res = rt.run([](Proc& p) {
    auto world = p.world();
    std::vector<std::byte> buf(100);
    if (p.world_rank() == 0) {
      world.send(std::span<const std::byte>(buf), 1, 0);  // intra (node 0)
      world.send(std::span<const std::byte>(buf), 2, 0);  // inter (node 1)
      world.send(std::span<const std::byte>(buf), 2, 1);  // inter again
    } else if (p.world_rank() == 1) {
      world.recv(std::span<std::byte>(buf), 0, 0);
    } else if (p.world_rank() == 2) {
      world.recv(std::span<std::byte>(buf), 0, 0);
      world.recv(std::span<std::byte>(buf), 0, 1);
    }
  });
  const auto t = summarize_traffic(res, net::Placement(spec));
  EXPECT_EQ(t.intra_bytes, 100u);
  EXPECT_EQ(t.inter_bytes, 200u);
  EXPECT_EQ(t.node_matrix[0 * 2 + 0], 100u);
  EXPECT_EQ(t.node_matrix[0 * 2 + 1], 200u);
  EXPECT_EQ(t.node_matrix[1 * 2 + 0], 0u);
  EXPECT_NEAR(t.inter_fraction(), 2.0 / 3.0, 1e-12);
  const auto rendered = render_node_matrix(t);
  EXPECT_NE(rendered.find("inter-node total"), std::string::npos);
}

TEST(Traffic, PhaseScopedSummary) {
  const auto spec = net::testbox(2, 1);
  RuntimeOptions opts;
  opts.enable_traffic = true;
  Runtime rt(spec, 2, opts);
  const auto res = rt.run([](Proc& p) {
    auto world = p.world();
    std::vector<std::byte> buf(64);
    p.set_phase("alpha");
    if (p.world_rank() == 0) {
      world.send(std::span<const std::byte>(buf), 1, 0);
    } else {
      world.recv(std::span<std::byte>(buf), 0, 0);
    }
    p.set_phase("beta");
    if (p.world_rank() == 1) {
      world.send(std::span<const std::byte>(buf), 0, 1);
    } else {
      world.recv(std::span<std::byte>(buf), 1, 1);
    }
  });
  const net::Placement place(spec);
  EXPECT_EQ(summarize_traffic_phase(res, place, "alpha").total_bytes(), 64u);
  EXPECT_EQ(summarize_traffic_phase(res, place, "beta").total_bytes(), 64u);
  EXPECT_EQ(summarize_traffic_phase(res, place, "gamma").total_bytes(), 0u);
  EXPECT_EQ(summarize_traffic(res, place).total_bytes(), 128u);
}

TEST(Traffic, DisabledByDefault) {
  const auto res = run_simulation(small_machine(2), 2, [](Proc& p) {
    auto world = p.world();
    std::vector<std::byte> buf(64);
    if (p.world_rank() == 0) {
      world.send(std::span<const std::byte>(buf), 1, 0);
    } else {
      world.recv(std::span<std::byte>(buf), 0, 0);
    }
  });
  for (const auto& r : res.ranks) {
    for (const auto& [phase, st] : r.phases) {
      EXPECT_TRUE(st.bytes_to.empty());
    }
  }
}

TEST(Runtime, RejectsOversubscription) {
  EXPECT_THROW(Runtime(net::testbox(1, 2), 4), Error);
}

TEST(Runtime, PhaseAccountingSeparatesCommAndCompute) {
  const auto res = run_simulation(small_machine(2), 2, [](Proc& p) {
    auto world = p.world();
    p.set_phase("str_comm");
    std::vector<double> v(1024, 1.0);
    world.allreduce_sum(std::span<double>(v));
    p.set_phase("coll");
    p.compute(5e8);
  });
  for (const auto& r : res.ranks) {
    EXPECT_GT(r.phases.at("str_comm").comm_s, 0.0);
    EXPECT_DOUBLE_EQ(r.phases.at("str_comm").compute_s, 0.0);
    EXPECT_GT(r.phases.at("coll").compute_s, 0.0);
    EXPECT_DOUBLE_EQ(r.phases.at("coll").comm_s, 0.0);
  }
  EXPECT_GT(res.phase_total("str_comm").bytes_sent, 0u);
}

TEST(Runtime, PhaseThatIsNeverChargedNeverAppears) {
  const auto res = run_simulation(small_machine(2), 2, [](Proc& p) {
    p.set_phase("unused");
    p.set_phase("coll");
    p.compute(1e6);
    p.set_phase("unused_too");
  });
  for (const auto& r : res.ranks) {
    ASSERT_EQ(r.phases.size(), 1u);
    EXPECT_EQ(r.phases.begin()->first, "coll");
  }
}

// ---------------------------------------------------------------------------
// The fiber switch and the stack pool.

TEST(Fiber, RoundingModeStaysWithItsFiber) {
  // n = 2·nproc puts ranks 0 and 1 on worker 0 (blocks of n/W = 2 fibers),
  // so rank 1 runs in the gap rank 0's receive leaves on the same thread.
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const int n = 2 * nproc;
  int rank0_after_park = -1;
  int rank1_sees = -1;
  run_simulation(small_machine(n), n, [&](Proc& p) {
    auto world = p.world();
    if (p.world_rank() == 0) {
      std::fesetround(FE_TOWARDZERO);
      world.send_virtual(8, 1, /*tag=*/1);
      world.recv_virtual(8, 1, /*tag=*/2);
      rank0_after_park = std::fegetround();
      std::fesetround(FE_TONEAREST);
    } else if (p.world_rank() == 1) {
      world.recv_virtual(8, 0, /*tag=*/1);
      rank1_sees = std::fegetround();
      world.send_virtual(8, 0, /*tag=*/2);
    }
  });
  EXPECT_EQ(rank0_after_park, FE_TOWARDZERO);
  EXPECT_EQ(rank1_sees, FE_TONEAREST);
  EXPECT_EQ(std::fegetround(), FE_TONEAREST);
}

/// A job whose ranks use their stacks unevenly and exchange real and
/// virtual payloads.
RunResult stack_job(int n) {
  return run_simulation(small_machine(n), n, [](Proc& p) {
    auto world = p.world();
    volatile char frame[16384];
    const size_t used = 1024 * (1 + static_cast<size_t>(p.world_rank()) % 16);
    for (size_t i = 0; i < used; ++i) {
      frame[i] = static_cast<char>(i + static_cast<size_t>(p.world_rank()));
    }
    auto v = rank_values(p.world_rank(), 64);
    world.allreduce_sum(std::span<double>(v));
    p.compute(1e6 * (1 + frame[used - 1] % 3));
    world.alltoall_virtual(512);
    world.barrier();
  });
}

void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.collectives_checked, b.collectives_checked);
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].final_time_s, b.ranks[r].final_time_s);
    ASSERT_EQ(a.ranks[r].phases.size(), b.ranks[r].phases.size());
    for (const auto& [name, pa] : a.ranks[r].phases) {
      const PhaseStats& pb = b.ranks[r].phases.at(name);
      EXPECT_EQ(pa.comm_s, pb.comm_s);
      EXPECT_EQ(pa.compute_s, pb.compute_s);
      EXPECT_EQ(pa.bytes_sent, pb.bytes_sent);
      EXPECT_EQ(pa.msgs_sent, pb.msgs_sent);
    }
  }
}

TEST(Fiber, BackToBackRunsReusePooledStacks) {
  const std::vector<int> sizes{3, 64, 17};
  std::vector<RunResult> first;
  for (const int n : sizes) first.push_back(stack_job(n));
  const std::uint64_t mapped = detail::FiberScheduler::stacks_mapped();
  EXPECT_GE(mapped, 64u);
  for (size_t i = 0; i < sizes.size(); ++i) {
    SCOPED_TRACE(sizes[i]);
    expect_same_result(stack_job(sizes[i]), first[i]);
  }
  EXPECT_EQ(detail::FiberScheduler::stacks_mapped(), mapped);
}

// ---------------------------------------------------------------------------
// Schedule perturbation: a traced job with a split, real and virtual
// payloads, compute charges and spans gives the same RunResult bits, the
// sorted trace and spans included, at every schedule seed. The seed changes
// only the host order in which fibers run.

RunResult traced_mixed_job(int n, std::uint64_t schedule_seed) {
  RuntimeOptions opts;
  opts.enable_trace = true;
  opts.enable_traffic = true;
  opts.schedule_seed = schedule_seed;
  return run_simulation(small_machine(n), n, [n](Proc& p) {
    auto world = p.world();
    const int me = p.world_rank();
    p.set_phase("ring");
    {
      const ScopedSpan span(p, "ring");
      auto out = rank_values(me, 16);
      std::vector<double> in(16);
      world.send(std::span<const double>(out), (me + 1) % n, /*tag=*/1);
      world.recv(std::span<double>(in), (me + n - 1) % n, /*tag=*/1);
      p.compute(1e5 * (1 + me % 5), 8.0 * in.size());
    }
    p.set_phase("split");
    auto half = world.split(me % 2, me, "half");
    auto v = rank_values(me, 24);
    half.allreduce_sum(std::span<double>(v));
    world.alltoall_virtual(256);
    p.set_phase("world");
    {
      const ScopedSpan span(p, "world");
      world.allreduce_sum(std::span<double>(v));
      world.barrier();
    }
  }, opts);
}

TEST(SchedulePerturbation, TracedMixedJobBitIdenticalUnderEverySeed) {
  for (const int n : {3, 17, 64}) {
    const std::uint64_t want = testing::run_digest(traced_mixed_job(n, 0));
    for (std::uint64_t seed = 1; seed <= testing::kScheduleSeeds; ++seed) {
      EXPECT_EQ(testing::run_digest(traced_mixed_job(n, seed)), want)
          << "n=" << n << " schedule_seed=" << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// The warm message path does not allocate.

TEST(HotPath, WarmVirtualRoundTripsDoNotAllocate) {
  std::uint64_t allocs = ~std::uint64_t{0};
  run_simulation(small_machine(2), 2, [&](Proc& p) {
    auto world = p.world();
    const int me = p.world_rank();
    const auto round_trip = [&] {
      if (me == 0) {
        world.send_virtual(256, 1, /*tag=*/3);
        world.recv_virtual(256, 1, /*tag=*/3);
      } else {
        world.recv_virtual(256, 0, /*tag=*/3);
        world.send_virtual(256, 0, /*tag=*/3);
      }
    };
    round_trip();  // charges the phase once
    const std::uint64_t before = alloc_count::heap_allocs();
    for (int i = 0; i < 1000; ++i) round_trip();
    // Rank 1's final send precedes rank 0's final receive, so the window
    // covers both ranks' loops.
    if (me == 0) allocs = alloc_count::heap_allocs() - before;
  });
  EXPECT_EQ(allocs, 0u);
}

/// Heap allocations while 16 ranks run `reps` warm instances of
/// `collective`. Rank 0 reads the counter after one barrier and after a
/// final one, and a second barrier separates the warm-up from the counted
/// instances, so every rank's counted work falls inside the window.
/// Returns {allocations, collective instances in the window}.
std::pair<std::uint64_t, std::uint64_t> warm_collective_allocs(
    bool check_invariants, const std::function<void(Comm&)>& collective) {
  constexpr int kRanks = 16;
  constexpr int kReps = 20;
  RuntimeOptions opts;
  opts.check_invariants = check_invariants;
  std::uint64_t allocs = 0;
  run_simulation(small_machine(kRanks), kRanks, [&](Proc& p) {
    auto world = p.world();
    for (int i = 0; i < 3; ++i) {
      collective(world);
      world.barrier();
    }
    const std::uint64_t before = alloc_count::heap_allocs();
    world.barrier();
    for (int i = 0; i < kReps; ++i) collective(world);
    world.barrier();
    if (p.world_rank() == 0) allocs = alloc_count::heap_allocs() - before;
  }, opts);
  // The counted reps, the two barriers inside the window, and the tail of
  // the barrier before it.
  return {allocs, kReps + 3};
}

TEST(HotPath, WarmVirtualCollectivesDoNotAllocate) {
  const std::vector<std::pair<const char*, std::function<void(Comm&)>>> cases{
      {"alltoall pairwise",
       [](Comm& c) { c.alltoall_virtual(1024, CollAlg::kPairwise); }},
      {"alltoall bruck",
       [](Comm& c) { c.alltoall_virtual(1024, CollAlg::kBruck); }},
      {"allgather bruck",
       [](Comm& c) { c.allgather_virtual(1024, CollAlg::kBruck); }},
      {"allreduce rabenseifner",
       [](Comm& c) { c.allreduce_virtual(1 << 20, CollAlg::kRabenseifner); }},
  };
  for (const auto& [name, collective] : cases) {
    SCOPED_TRACE(name);
    EXPECT_EQ(warm_collective_allocs(false, collective).first, 0u);
    // The invariant monitor records each instance once, in its first
    // member's map node.
    const auto [allocs, instances] = warm_collective_allocs(true, collective);
    EXPECT_LE(allocs, instances);
  }
}

}  // namespace
}  // namespace xg::mpi
