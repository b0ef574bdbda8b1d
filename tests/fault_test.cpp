// Fault-injection + invariant-monitor tests: FaultPlan spec parsing, the
// differential allreduce check (bit-identical results across algorithms on
// power-of-two and awkward rank counts), deterministic replay of injected
// faults, rank-kill → structured RankFailure, exact deadlock detection (the
// same blocked set under every schedule-perturbation seed, and no false
// stall on healthy cross-worker runs), and the per-collective invariant
// monitor catching deliberately broken collectives that a clean run never
// trips, with the full text of each kind of violation pinned.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "gyro/simulation.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/fault.hpp"
#include "simmpi/invariant.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"
#include "util/error.hpp"
#include "run_digest.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "xgyro/ensemble.hpp"

namespace xg::mpi {
namespace {

using gyro::Decomposition;
using gyro::Input;
using gyro::Mode;

// ---------------------------------------------------------------------------
// FaultPlan spec parsing

TEST(FaultPlan, EmptySpecIsInactive) {
  const auto plan = FaultPlan::parse("");
  EXPECT_FALSE(plan.active());
  EXPECT_FALSE(plan.perturbs_messages());
}

TEST(FaultPlan, ParsesFullSpec) {
  const auto plan =
      FaultPlan::parse("seed=42;straggler=2x3.0;jitter=2x0.5;delay=0.3x5e-6;kill=1@0.02");
  EXPECT_TRUE(plan.active());
  EXPECT_EQ(plan.seed, 42u);
  EXPECT_DOUBLE_EQ(plan.straggle_factor(2), 3.0);
  EXPECT_DOUBLE_EQ(plan.straggle_factor(0), 1.0);
  EXPECT_DOUBLE_EQ(plan.jitter_frac(2), 0.5);
  EXPECT_DOUBLE_EQ(plan.jitter_frac(1), 0.0);
  EXPECT_DOUBLE_EQ(plan.delay_probability, 0.3);
  EXPECT_DOUBLE_EQ(plan.delay_s, 5e-6);
  EXPECT_TRUE(plan.perturbs_messages());
  ASSERT_EQ(plan.kills.size(), 1u);
  EXPECT_EQ(plan.kills[0].rank, 1);
  EXPECT_DOUBLE_EQ(plan.kills[0].time_s, 0.02);
  EXPECT_DOUBLE_EQ(plan.kill_time_for(1), 0.02);
  EXPECT_LT(plan.kill_time_for(0), 0.0);
  EXPECT_FALSE(plan.describe().empty());
}

TEST(FaultPlan, RepeatedStragglersCompose) {
  const auto plan = FaultPlan::parse("straggler=0x2.0;straggler=0x1.5");
  EXPECT_DOUBLE_EQ(plan.straggle_factor(0), 3.0);
}

TEST(FaultPlan, RejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse("bogus=1"), InputError);
  EXPECT_THROW(FaultPlan::parse("straggler=0x0.5"), InputError);   // < 1
  EXPECT_THROW(FaultPlan::parse("straggler=-1x2.0"), InputError);  // bad rank
  EXPECT_THROW(FaultPlan::parse("jitter=0x-0.1"), InputError);
  EXPECT_THROW(FaultPlan::parse("delay=1.5x1e-6"), InputError);  // prob > 1
  EXPECT_THROW(FaultPlan::parse("delay=0.5"), InputError);       // missing 'x'
  EXPECT_THROW(FaultPlan::parse("kill=1"), InputError);          // missing '@'
  EXPECT_THROW(FaultPlan::parse("kill=1@-0.5"), InputError);
  EXPECT_THROW(FaultPlan::parse("hang=1"), InputError);          // missing '@'
  EXPECT_THROW(FaultPlan::parse("hang=-1@0.5"), InputError);     // bad rank
  EXPECT_THROW(FaultPlan::parse("seed=notanumber"), InputError);
  EXPECT_THROW(FaultPlan::parse("straggler"), InputError);  // missing '='
}

TEST(FaultPlan, RankSeedsAreStableAndDecorrelated) {
  const auto a = FaultPlan::parse("seed=7;delay=0.5x1e-6");
  const auto b = FaultPlan::parse("seed=7;delay=0.5x1e-6");
  const auto c = FaultPlan::parse("seed=8;delay=0.5x1e-6");
  for (int r = 0; r < 4; ++r) EXPECT_EQ(a.rank_seed(r), b.rank_seed(r));
  EXPECT_NE(a.rank_seed(0), a.rank_seed(1));
  EXPECT_NE(a.rank_seed(0), c.rank_seed(0));
}

TEST(FaultPlan, ParsesHangClauses) {
  const auto plan = FaultPlan::parse("hang=3@0.25;hang=3@0.125");
  EXPECT_TRUE(plan.active());
  ASSERT_EQ(plan.hangs.size(), 2u);
  EXPECT_DOUBLE_EQ(plan.hang_time_for(3), 0.125);
  EXPECT_LT(plan.hang_time_for(0), 0.0);
  EXPECT_LT(plan.kill_time_for(3), 0.0);
  EXPECT_NE(plan.describe().find("hang=3@0.25"), std::string::npos);
  EXPECT_TRUE(plan.pruned_to(3).hangs.empty());
}

TEST(FaultPlan, RuntimeRejectsOutOfRangeRanks) {
  RuntimeOptions opts;
  opts.faults = FaultPlan::parse("straggler=9x2.0");
  EXPECT_THROW(Runtime(net::testbox(1, 2), 2, opts), Error);
  opts.faults = FaultPlan::parse("hang=2@0.1");
  EXPECT_THROW(Runtime(net::testbox(1, 2), 2, opts), Error);
}

// ---------------------------------------------------------------------------
// Differential allreduce: every algorithm, power-of-two and awkward rank
// counts, must produce bit-identical typed results, and virtual time must
// be monotone on every rank throughout.

TEST(Differential, AllreduceAlgorithmsBitIdenticalAcrossRankCounts) {
  constexpr int kElems = 64;
  for (const int p : {2, 3, 4, 5, 7, 8, 12, 16, 17}) {
    // Integer-valued doubles: addition is exact, so recursive doubling and
    // ring (different association orders) must agree to the last bit.
    std::map<CollAlg, std::vector<double>> results;
    for (const auto alg : {CollAlg::kAuto, CollAlg::kRecursiveDoubling,
                           CollAlg::kRing}) {
      std::vector<double> rank0(kElems);
      std::mutex mu;
      run_simulation(net::testbox(1, p), p, [&](Proc& proc) {
        std::vector<double> v(kElems);
        for (int i = 0; i < kElems; ++i) {
          v[static_cast<size_t>(i)] =
              static_cast<double>((proc.world_rank() * 31 + i) % 97);
        }
        const double t0 = proc.now();
        proc.world().allreduce_sum(std::span<double>(v), alg);
        EXPECT_GE(proc.now(), t0) << "virtual clock went backwards";
        if (proc.world_rank() == 0) {
          const std::scoped_lock lock(mu);
          rank0 = v;
        }
      });
      results[alg] = std::move(rank0);
    }
    const auto& ref = results[CollAlg::kAuto];
    for (const auto& [alg, got] : results) {
      ASSERT_EQ(got.size(), ref.size());
      EXPECT_EQ(0, std::memcmp(got.data(), ref.data(),
                               got.size() * sizeof(double)))
          << "algorithm " << static_cast<int>(alg) << " differs at p=" << p;
    }
    // Sanity: the reduction actually happened (sum over ranks of element 0).
    double expect0 = 0.0;
    for (int r = 0; r < p; ++r) expect0 += static_cast<double>((r * 31) % 97);
    EXPECT_DOUBLE_EQ(ref[0], expect0) << "p=" << p;
  }
}

// ---------------------------------------------------------------------------
// Deterministic replay of injected faults

RunResult run_faulted_exchange(const FaultPlan& plan, int p) {
  RuntimeOptions opts;
  opts.faults = plan;
  return run_simulation(net::testbox(1, p), p, [p](Proc& proc) {
    auto world = proc.world();
    proc.set_phase("work");
    for (int iter = 0; iter < 4; ++iter) {
      proc.compute(/*flops=*/1e6, /*bytes=*/1e5);
      // Ring exchange with real payloads, then a typed reduction.
      const int right = (proc.world_rank() + 1) % p;
      const int left = (proc.world_rank() + p - 1) % p;
      std::vector<int> out(16, proc.world_rank()), in(16, -1);
      world.send(std::span<const int>(out), right, /*tag=*/iter);
      world.recv(std::span<int>(in), left, /*tag=*/iter);
      for (const int x : in) EXPECT_EQ(x, left);
      std::vector<double> v(8, 1.0);
      world.allreduce_sum(std::span<double>(v));
      for (const double x : v) EXPECT_DOUBLE_EQ(x, static_cast<double>(p));
    }
  }, opts);
}

TEST(Determinism, SameSeedReplaysIdenticalInjectedSchedule) {
  const auto plan =
      FaultPlan::parse("seed=11;straggler=1x2.5;jitter=1x0.4;delay=0.5x2e-6");
  const auto a = run_faulted_exchange(plan, 6);
  const auto b = run_faulted_exchange(plan, 6);

  ASSERT_EQ(a.fault_stats.size(), 6u);
  ASSERT_EQ(b.fault_stats.size(), 6u);
  std::uint64_t total_delayed = 0;
  for (size_t r = 0; r < a.fault_stats.size(); ++r) {
    EXPECT_EQ(a.fault_stats[r].delayed_msgs, b.fault_stats[r].delayed_msgs);
    EXPECT_DOUBLE_EQ(a.fault_stats[r].delay_added_s,
                     b.fault_stats[r].delay_added_s);
    EXPECT_DOUBLE_EQ(a.fault_stats[r].straggler_added_s,
                     b.fault_stats[r].straggler_added_s);
    total_delayed += a.fault_stats[r].delayed_msgs;
  }
  // With p(delay)=0.5 over ~hundreds of eager messages, some must be hit.
  EXPECT_GT(total_delayed, 0u);
  EXPECT_GT(a.fault_stats[1].straggler_added_s, 0.0);
  EXPECT_DOUBLE_EQ(a.makespan_s, b.makespan_s);
}

TEST(Determinism, DifferentSeedChangesInjectedScheduleOnly) {
  const auto a =
      run_faulted_exchange(FaultPlan::parse("seed=1;delay=0.5x2e-6"), 6);
  const auto b =
      run_faulted_exchange(FaultPlan::parse("seed=2;delay=0.5x2e-6"), 6);
  // Payload assertions inside the body passed for both; only the injected
  // timing schedule may differ.
  std::uint64_t da = 0, db = 0;
  for (const auto& f : a.fault_stats) da += f.delayed_msgs;
  for (const auto& f : b.fault_stats) db += f.delayed_msgs;
  EXPECT_GT(da, 0u);
  EXPECT_GT(db, 0u);
  EXPECT_NE(da, db);  // 0.5^~200 chance of collision by luck
}

TEST(Determinism, CleanRunHasNoFaultStats) {
  const auto r = run_faulted_exchange(FaultPlan{}, 4);
  EXPECT_TRUE(r.fault_stats.empty());
}

// ---------------------------------------------------------------------------
// Ensemble determinism: same seed → identical physics fingerprints and
// per-phase timing stats; a straggler changes timings, never physics.

xgyro::EnsembleInput make_sweep(int k) {
  return xgyro::EnsembleInput::sweep(
      Input::small_test(2), k,
      [](Input& in, int i) { in.species[0].a_ln_t = 2.0 + 0.5 * i; });
}

struct EnsembleRun {
  std::map<int, std::uint64_t> hashes;  ///< sim index → state fingerprint
  RunResult result;
};

EnsembleRun run_ensemble(const FaultPlan& plan) {
  const auto e = make_sweep(2);
  const int ranks_per_sim = 2;
  const int nranks = e.n_sims() * ranks_per_sim;
  const auto d =
      Decomposition::choose(e.members.front(), ranks_per_sim, e.n_sims());
  EnsembleRun out;
  std::mutex mu;
  RuntimeOptions opts;
  opts.faults = plan;
  out.result = run_simulation(
      net::testbox(1, nranks), nranks,
      [&](Proc& p) {
        xgyro::EnsembleDriver drv(e, d, p, Mode::kReal);
        drv.initialize();
        drv.advance_report_interval();
        const auto h = drv.simulation().state_hash();
        if (p.world_rank() % d.nranks() == 0) {
          const std::scoped_lock lock(mu);
          out.hashes[drv.sim_index()] = h;
        }
      },
      opts);
  return out;
}

TEST(Determinism, EnsembleSameSeedIdenticalFingerprintsAndTimings) {
  const auto plan = FaultPlan::parse("seed=9;delay=0.25x3e-6;jitter=0x0.3");
  const auto a = run_ensemble(plan);
  const auto b = run_ensemble(plan);
  EXPECT_EQ(a.hashes, b.hashes);
  EXPECT_DOUBLE_EQ(a.result.makespan_s, b.result.makespan_s);
  ASSERT_EQ(a.result.ranks.size(), b.result.ranks.size());
  for (size_t r = 0; r < a.result.ranks.size(); ++r) {
    const auto& pa = a.result.ranks[r].phases;
    const auto& pb = b.result.ranks[r].phases;
    ASSERT_EQ(pa.size(), pb.size());
    for (const auto& [name, sa] : pa) {
      const auto it = pb.find(name);
      ASSERT_NE(it, pb.end()) << "phase " << name;
      EXPECT_DOUBLE_EQ(sa.comm_s, it->second.comm_s) << name;
      EXPECT_DOUBLE_EQ(sa.compute_s, it->second.compute_s) << name;
      EXPECT_EQ(sa.bytes_sent, it->second.bytes_sent) << name;
      EXPECT_EQ(sa.msgs_sent, it->second.msgs_sent) << name;
    }
  }
  EXPECT_GT(a.result.collectives_checked, 0u);
}

TEST(Determinism, StragglerChangesTimingsNotPhysics) {
  const auto clean = run_ensemble(FaultPlan{});
  const auto slow = run_ensemble(FaultPlan::parse("seed=9;straggler=0x4.0"));
  EXPECT_EQ(clean.hashes, slow.hashes);  // physics untouched
  EXPECT_GT(slow.result.makespan_s, clean.result.makespan_s);
  ASSERT_EQ(slow.result.fault_stats.size(), clean.result.ranks.size());
  EXPECT_GT(slow.result.fault_stats[0].straggler_added_s, 0.0);
}

// ---------------------------------------------------------------------------
// Rank kill → structured RankFailure (no deadlock), replayable report.

std::string run_until_killed(const FaultPlan& plan, int nranks = 4) {
  RuntimeOptions opts;
  opts.faults = plan;
  try {
    run_simulation(net::testbox(1, nranks), nranks, [](Proc& p) {
      auto world = p.world();
      p.set_phase("work");
      for (int i = 0; i < 10; ++i) {
        p.advance(0.2);
        world.barrier();
      }
    }, opts);
  } catch (const RankFailure& f) {
    EXPECT_EQ(f.world_rank(), 2);
    EXPECT_GE(f.virtual_time_s(), 0.5);
    EXPECT_EQ(f.phase(), "work");
    return f.what();
  }
  ADD_FAILURE() << "rank kill did not surface a RankFailure";
  return {};
}

TEST(RankKill, SurfacesStructuredFailureInsteadOfDeadlock) {
  const auto plan = FaultPlan::parse("seed=3;kill=2@0.5");
  const auto report1 = run_until_killed(plan);
  const auto report2 = run_until_killed(plan);
  EXPECT_FALSE(report1.empty());
  EXPECT_EQ(report1, report2);  // same seed ⇒ identical failure report
}

TEST(RankKill, ManyFibersPerWorkerSurfaceTheSameReplayableFailure) {
  // 17 ranks: several fibers share each worker thread, and the survivors
  // are parked mid-barrier when rank 2 dies.
  const auto plan = FaultPlan::parse("seed=3;kill=2@0.5");
  const auto report1 = run_until_killed(plan, 17);
  const auto report2 = run_until_killed(plan, 17);
  EXPECT_FALSE(report1.empty());
  EXPECT_EQ(report1, report2);
}

// Rank 0 dies at t = 0.5 while ranks 1 and 2 ping-pong 100 times without
// it; then rank 1 waits on rank 0. The survivors must finish all 100 round
// trips before the run ends with rank 0's RankFailure, whatever the host
// ran first. `kills` is the fault spec; returns the reported failure and
// the round trips rank 1 completed.
std::pair<int, int> run_kill_with_independent_survivors(
    const std::string& kills, std::uint64_t schedule_seed) {
  RuntimeOptions opts;
  opts.faults = FaultPlan::parse(kills);
  opts.schedule_seed = schedule_seed;
  int round_trips = 0;
  try {
    run_simulation(net::testbox(1, 3), 3, [&round_trips](Proc& p) {
      auto world = p.world();
      int v = 0;
      if (p.world_rank() == 0) {
        p.advance(1.0);
        world.send(std::span<const int>(&v, 1), 1, /*tag=*/1);
        return;
      }
      const int peer = 3 - p.world_rank();
      for (int i = 0; i < 100; ++i) {
        p.advance(0.01);
        if (p.world_rank() == 1) {
          world.send(std::span<const int>(&v, 1), peer, /*tag=*/2);
          world.recv(std::span<int>(&v, 1), peer, /*tag=*/2);
          round_trips = i + 1;
        } else {
          world.recv(std::span<int>(&v, 1), peer, /*tag=*/2);
          world.send(std::span<const int>(&v, 1), peer, /*tag=*/2);
        }
      }
      if (p.world_rank() == 1) world.recv(std::span<int>(&v, 1), 0, 1);
    }, opts);
  } catch (const RankFailure& f) {
    return {f.world_rank(), round_trips};
  }
  ADD_FAILURE() << "rank kill did not surface a RankFailure";
  return {-1, round_trips};
}

TEST(RankKill, SurvivorsRunOnUntilTheyWaitOnTheDeadRank) {
  for (std::uint64_t seed = 0; seed <= testing::kScheduleSeeds; ++seed) {
    EXPECT_EQ(run_kill_with_independent_survivors("seed=1;kill=0@0.5", seed),
              std::make_pair(0, 100))
        << "schedule_seed=" << seed;
  }
}

TEST(RankKill, EarliestOfSeveralKillsIsReported) {
  // Rank 2 dies at t = 0.3 in its ping-pong, rank 0 at 0.5: rank 2's kill
  // is the run's error even when the host runs rank 0's first.
  for (std::uint64_t seed = 0; seed <= testing::kScheduleSeeds; ++seed) {
    EXPECT_EQ(run_kill_with_independent_survivors(
                  "seed=1;kill=0@0.5;kill=2@0.3", seed)
                  .first,
              2)
        << "schedule_seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Deadlock detection: a stuck virtual schedule becomes a diagnosable report
// the moment the last worker with a fiber left to run goes idle — no
// timeout involved.

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(Watchdog, ReportsStuckScheduleWithBlockedRankDetail) {
  bool caught = false;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    run_simulation(net::testbox(1, 2), 2, [](Proc& p) {
      if (p.world_rank() == 1) {
        p.set_phase("stuck_phase");
        int v = 0;
        // Nobody ever sends this: rank 0 exits immediately.
        p.world().recv(std::span<int>(&v, 1), /*src=*/0, /*tag=*/9);
      }
    });
  } catch (const DeadlockError& d) {
    caught = true;
    EXPECT_LT(wall_seconds_since(t0), 1.0);
    ASSERT_EQ(d.blocked().size(), 1u);
    const auto& b = d.blocked().front();
    EXPECT_EQ(b.world_rank, 1);
    EXPECT_EQ(b.waiting_src_world, 0);
    EXPECT_EQ(b.waiting_tag, 9);
    EXPECT_EQ(b.phase, "stuck_phase");
    EXPECT_NE(std::string(d.what()).find("stuck"), std::string::npos);
  }
  EXPECT_TRUE(caught);
}

TEST(Watchdog, QuietOnHealthyRuns) {
  // Plenty of real blocking receives, but the schedule always progresses.
  EXPECT_NO_THROW(run_simulation(net::testbox(1, 4), 4, [](Proc& p) {
    for (int i = 0; i < 8; ++i) {
      std::vector<double> v(4, 1.0);
      p.world().allreduce_sum(std::span<double>(v));
    }
  }));
}

// Each rank receives from the other before sending: a cycle across two
// ranks, which sit on different workers whenever the host has 2+ cores.
void run_two_rank_cycle(std::uint64_t schedule_seed) {
  RuntimeOptions opts;
  opts.schedule_seed = schedule_seed;
  run_simulation(net::testbox(1, 2), 2, [](Proc& p) {
    p.set_phase("cycle");
    auto world = p.world();
    const int peer = 1 - p.world_rank();
    int v = p.world_rank();
    world.recv(std::span<int>(&v, 1), peer, /*tag=*/4);
    world.send(std::span<const int>(&v, 1), peer, /*tag=*/4);
  }, opts);
}

// 64 ranks: many fibers per worker. Rank 37 waits forever for a message
// rank 5 never sends; the other 63 ranks do real work and finish.
void run_orphaned_receive(std::uint64_t schedule_seed) {
  RuntimeOptions opts;
  opts.schedule_seed = schedule_seed;
  run_simulation(net::testbox(4, 16), 64, [](Proc& p) {
    auto world = p.world();
    p.set_phase("work");
    std::vector<double> v(4, 1.0);
    world.allreduce_sum(std::span<double>(v));
    if (p.world_rank() == 37) {
      p.set_phase("orphan_recv");
      int x = 0;
      world.recv(std::span<int>(&x, 1), /*src=*/5, /*tag=*/77);
    }
  }, opts);
}

// Rank 2 hangs at its first observation point after t = 0.5; the others
// then wait on it in the next allreduce.
void run_hung_rank(std::uint64_t schedule_seed) {
  RuntimeOptions opts;
  opts.faults = FaultPlan::parse("seed=3;hang=2@0.5");
  opts.schedule_seed = schedule_seed;
  Runtime(net::testbox(1, 4), 4, opts).run([](Proc& p) {
    p.set_phase("work");
    for (int i = 0; i < 4; ++i) {
      p.advance(0.2);
      std::vector<double> v(4, 1.0);
      p.world().allreduce_sum(std::span<double>(v));
    }
  });
}

// 8 ranks: every rank but `a` and `b` returns at once, and those two each
// receive from the other before sending. The workers whose fibers have all
// returned stay idle for good while the pair stalls.
void run_pair_stall(int a, int b, std::uint64_t schedule_seed) {
  RuntimeOptions opts;
  opts.schedule_seed = schedule_seed;
  run_simulation(net::testbox(2, 4), 8, [a, b](Proc& p) {
    const int me = p.world_rank();
    if (me != a && me != b) return;
    p.set_phase("pair");
    auto world = p.world();
    const int peer = me == a ? b : a;
    int v = me;
    world.recv(std::span<int>(&v, 1), peer, /*tag=*/6);
    world.send(std::span<const int>(&v, 1), peer, /*tag=*/6);
  }, opts);
}

// Ranks 6 and 7 share the last worker.
void run_pair_stall_one_worker(std::uint64_t schedule_seed) {
  run_pair_stall(6, 7, schedule_seed);
}

// Ranks 0 and 7 sit on the first and the last worker whenever there are
// two or more.
void run_pair_stall_two_workers(std::uint64_t schedule_seed) {
  run_pair_stall(0, 7, schedule_seed);
}

DeadlockError expect_deadlock(const std::function<void()>& run) {
  try {
    run();
  } catch (const DeadlockError& d) {
    return d;
  }
  ADD_FAILURE() << "stuck schedule did not raise DeadlockError";
  return DeadlockError("", {});
}

TEST(Deadlock, ReportsTwoRankReceiveCycle) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto d = expect_deadlock([] { run_two_rank_cycle(0); });
  EXPECT_LT(wall_seconds_since(t0), 1.0);
  ASSERT_EQ(d.blocked().size(), 2u);
  for (int r = 0; r < 2; ++r) {
    const auto& b = d.blocked()[static_cast<size_t>(r)];
    EXPECT_EQ(b.world_rank, r);
    EXPECT_EQ(b.waiting_src_world, 1 - r);
    EXPECT_EQ(b.waiting_tag, 4);
    EXPECT_EQ(b.phase, "cycle");
    EXPECT_EQ(b.mailbox_pending, 0u);
  }
}

TEST(Deadlock, NamesTheOneStuckRankAmongManyFibersPerWorker) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto d = expect_deadlock([] { run_orphaned_receive(0); });
  EXPECT_LT(wall_seconds_since(t0), 1.0);
  ASSERT_EQ(d.blocked().size(), 1u);
  const auto& b = d.blocked().front();
  EXPECT_EQ(b.world_rank, 37);
  EXPECT_EQ(b.waiting_src_world, 5);
  EXPECT_EQ(b.waiting_tag, 77);
  EXPECT_EQ(b.phase, "orphan_recv");
}

TEST(Deadlock, HungRankStallsItsPeersIntoOneReport) {
  // Every rank is in the report, the hung one parked on its own channel.
  const auto d = expect_deadlock([] { run_hung_rank(0); });
  ASSERT_EQ(d.blocked().size(), 4u);
  const auto& hung = d.blocked()[2];
  EXPECT_EQ(hung.world_rank, 2);
  EXPECT_EQ(hung.waiting_src_world, 2);
  EXPECT_GE(hung.virtual_time_s, 0.5);
  EXPECT_EQ(hung.phase, "work");
}

void expect_pair_report(const DeadlockError& d, int a, int b) {
  ASSERT_EQ(d.blocked().size(), 2u);
  EXPECT_EQ(d.blocked()[0].world_rank, a);
  EXPECT_EQ(d.blocked()[0].waiting_src_world, b);
  EXPECT_EQ(d.blocked()[1].world_rank, b);
  EXPECT_EQ(d.blocked()[1].waiting_src_world, a);
  for (const auto& info : d.blocked()) {
    EXPECT_EQ(info.waiting_tag, 6);
    EXPECT_EQ(info.phase, "pair");
  }
}

TEST(Deadlock, PairStallsAfterEveryOtherRankReturned) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto d = expect_deadlock([] { run_pair_stall_one_worker(0); });
  EXPECT_LT(wall_seconds_since(t0), 1.0);
  expect_pair_report(d, 6, 7);
}

TEST(Deadlock, PairStallsAcrossWorkersAfterEveryOtherRankReturned) {
  const auto t0 = std::chrono::steady_clock::now();
  const auto d = expect_deadlock([] { run_pair_stall_two_workers(0); });
  EXPECT_LT(wall_seconds_since(t0), 1.0);
  expect_pair_report(d, 0, 7);
}

// 20 back-to-back healthy 64-rank runs in which every receive names a rank
// 16 or more places away, i.e. on another worker whenever there are two or
// more: each wake crosses workers, and none of the runs may stall.
void run_cross_worker_rings(std::uint64_t schedule_seed) {
  constexpr int kRanks = 64;
  RuntimeOptions opts;
  opts.schedule_seed = schedule_seed;
  for (int run = 0; run < 20; ++run) {
    std::vector<int> got(kRanks, 0);
    run_simulation(net::testbox(4, 16), kRanks, [&got](Proc& p) {
      auto world = p.world();
      const int me = p.world_rank();
      int sum = 0;
      for (const int shift : {16, 33, 48}) {
        const int out = me;
        int in = -1;
        world.send(std::span<const int>(&out, 1), (me + shift) % kRanks,
                   shift);
        world.recv(std::span<int>(&in, 1), (me + kRanks - shift) % kRanks,
                   shift);
        sum += in;
      }
      got[static_cast<size_t>(me)] = sum;
    }, opts);
    for (int me = 0; me < kRanks; ++me) {
      int want = 0;
      for (const int shift : {16, 33, 48}) want += (me + kRanks - shift) % kRanks;
      EXPECT_EQ(got[static_cast<size_t>(me)], want) << "run " << run;
    }
  }
}

TEST(Watchdog, QuietOnBackToBackCrossWorkerRuns) {
  EXPECT_NO_THROW(run_cross_worker_rings(0));
}

// ---------------------------------------------------------------------------
// Schedule perturbation: each stuck schedule above reports the same blocked
// set at every schedule seed, and the healthy cross-worker runs never stall.

std::string blocked_set(const DeadlockError& d) {
  std::string out;
  for (const auto& b : d.blocked()) {
    out += strprintf("rank %d t=%a phase=%s src=%d tag=%d ctx=%016llx "
                     "hung=%d pending=%zu\n",
                     b.world_rank, b.virtual_time_s, b.phase.c_str(),
                     b.waiting_src_world, b.waiting_tag,
                     static_cast<unsigned long long>(b.waiting_context),
                     b.hung ? 1 : 0, b.mailbox_pending);
  }
  return out;
}

TEST(SchedulePerturbation, DeadlockReportsKeepTheirBlockedSets) {
  const std::vector<std::pair<const char*, void (*)(std::uint64_t)>> cases = {
      {"two_rank_cycle", &run_two_rank_cycle},
      {"orphaned_receive", &run_orphaned_receive},
      {"hung_rank", &run_hung_rank},
      {"pair_stall_one_worker", &run_pair_stall_one_worker},
      {"pair_stall_two_workers", &run_pair_stall_two_workers},
  };
  for (const auto& [name, run] : cases) {
    const auto want = blocked_set(expect_deadlock([run = run] { run(0); }));
    EXPECT_FALSE(want.empty()) << name;
    for (std::uint64_t seed = 1; seed <= testing::kScheduleSeeds; ++seed) {
      EXPECT_EQ(blocked_set(expect_deadlock([run = run, seed] { run(seed); })),
                want)
          << name << " schedule_seed=" << seed;
    }
  }
}

TEST(SchedulePerturbation, NoFalseStallOnCrossWorkerRuns) {
  for (std::uint64_t seed = 1; seed <= testing::kScheduleSeeds; ++seed) {
    EXPECT_NO_THROW(run_cross_worker_rings(seed)) << "schedule_seed=" << seed;
  }
}

// ---------------------------------------------------------------------------
// Invariant monitor: silent on clean runs, loud on broken collectives.

TEST(InvariantMonitor, CountsCollectivesOnCleanRuns) {
  const auto r = run_simulation(net::testbox(1, 4), 4, [](Proc& p) {
    auto world = p.world();
    std::vector<double> v(8, 1.0);
    world.allreduce_sum(std::span<double>(v));
    world.barrier();
    std::vector<int> b(4, p.world_rank() == 0 ? 7 : 0);
    world.bcast(std::span<int>(b), /*root=*/0);
  });
  EXPECT_EQ(r.collectives_checked, 3u);
}

TEST(InvariantMonitor, DisabledMonitorCountsNothing) {
  RuntimeOptions opts;
  opts.check_invariants = false;
  const auto r = run_simulation(net::testbox(1, 2), 2, [](Proc& p) {
    p.world().barrier();
  }, opts);
  EXPECT_EQ(r.collectives_checked, 0u);
}

TEST(InvariantMonitor, CatchesBrokenAllreduceResultDivergence) {
  // kBrokenForTesting omits recursive doubling's final fold-back, so on a
  // non-power-of-two count the folded ranks keep stale values: members
  // disagree on the typed result hash and the monitor must object.
  EXPECT_THROW(
      run_simulation(net::testbox(1, 5), 5, [](Proc& p) {
        std::vector<double> v(8, static_cast<double>(p.world_rank() + 1));
        p.world().allreduce_sum(std::span<double>(v),
                                CollAlg::kBrokenForTesting);
      }),
      InvariantViolation);
}

TEST(InvariantMonitor, CatchesCollectiveKindMismatch) {
  // Both operations are send-only for their caller, so the schedule itself
  // completes; only the monitor can see the ranks ran *different*
  // collectives for the same (context, seq) slot.
  EXPECT_THROW(
      run_simulation(net::testbox(1, 2), 2, [](Proc& p) {
        auto world = p.world();
        if (p.world_rank() == 0) {
          std::vector<int> b(2, 1);
          world.bcast(std::span<int>(b), /*root=*/0);
        } else {
          std::vector<int> all(4, 2), mine(2);
          world.scatter(std::span<const int>(all), std::span<int>(mine),
                        /*root=*/1);
        }
      }),
      InvariantViolation);
}

TEST(InvariantMonitor, FinalCheckCatchesSkippedMember) {
  // Rank 0 broadcasts (eager send, returns immediately); rank 1 never joins
  // the collective. The run itself finishes — only final_check can notice
  // the half-observed record.
  EXPECT_THROW(
      run_simulation(net::testbox(1, 2), 2, [](Proc& p) {
        if (p.world_rank() == 0) {
          std::vector<int> b(2, 1);
          p.world().bcast(std::span<int>(b), /*root=*/0);
        }
      }),
      InvariantViolation);
}

TEST(InvariantMonitor, DelayFaultsDoNotTripInvariants) {
  // Message delays reshuffle virtual arrival times but never matching
  // order or payloads: the monitor must stay quiet.
  RuntimeOptions opts;
  opts.faults = FaultPlan::parse("seed=5;delay=0.5x1e-5");
  const auto r = run_simulation(net::testbox(1, 8), 8, [](Proc& p) {
    for (int i = 0; i < 4; ++i) {
      std::vector<double> v(16);
      for (size_t j = 0; j < v.size(); ++j) {
        v[j] = static_cast<double>((p.world_rank() + static_cast<int>(j)) % 13);
      }
      p.world().allreduce_sum(std::span<double>(v));
    }
  }, opts);
  EXPECT_EQ(r.collectives_checked, 4u);
}

// ---------------------------------------------------------------------------
// Invariant monitor: the full text of every violation, pinned. The monitor
// is fed reports directly, so which member observes first is fixed.

InvariantMonitor::Report allreduce_report(std::uint64_t context,
                                          std::uint64_t seq, int world_rank) {
  InvariantMonitor::Report r;
  r.context = context;
  r.seq = seq;
  r.kind = TraceEvent::Kind::kAllReduce;
  r.alg = CollAlg::kRing;
  r.participants = 3;
  r.payload_bytes = 4096;
  r.has_hash = true;
  r.result_hash = 0x0123456789abcdefULL;
  r.world_rank = world_rank;
  r.comm_label = "str_comm/member.2";
  return r;
}

/// what() of the InvariantViolation `f` throws ("<none>" if it returns).
std::string violation_text(const std::function<void()>& f) {
  try {
    f();
  } catch (const InvariantViolation& e) {
    return e.what();
  }
  return "<none>";
}

/// Observe a clean first report of (context, seq), then `second`.
std::string second_report_text(const InvariantMonitor::Report& second) {
  InvariantMonitor m;
  m.observe(allreduce_report(second.context, second.seq, 0));
  return violation_text([&] { m.observe(second); });
}

constexpr std::uint64_t kCtx = 0xfeedc0de12345678ULL;
/// How every mismatch below names the collective.
const std::string kWhere =
    "invariant violation: collective (comm 'str_comm/member.2' "
    "ctx=feedc0de12345678 seq=41)";

TEST(InvariantMonitorText, KindMismatch) {
  auto r = allreduce_report(kCtx, 41, 2);
  r.kind = TraceEvent::Kind::kBcast;
  EXPECT_EQ(second_report_text(r),
            kWhere + ": rank 0 entered "
            "AllReduce but rank 2 entered Bcast at the same sequence number "
            "\u2014 members disagree on the collective schedule");
}

TEST(InvariantMonitorText, AlgorithmMismatch) {
  auto r = allreduce_report(kCtx, 41, 1);
  r.alg = CollAlg::kRabenseifner;
  EXPECT_EQ(second_report_text(r),
            kWhere + " (AllReduce): rank 0 ran "
            "algorithm 'ring' but rank 1 ran 'rabenseifner' \u2014 members "
            "resolved the selector differently");
}

TEST(InvariantMonitorText, ParticipantsMismatch) {
  auto r = allreduce_report(kCtx, 41, 2);
  r.participants = 4;
  EXPECT_EQ(second_report_text(r),
            kWhere + " (AllReduce): rank 0 sees 3 "
            "participants but rank 2 sees 4");
}

TEST(InvariantMonitorText, PayloadBytesMismatch) {
  auto r = allreduce_report(kCtx, 41, 1);
  r.payload_bytes = 8192;
  EXPECT_EQ(second_report_text(r),
            kWhere + " (AllReduce): rank 0 passed "
            "4096 payload bytes but rank 1 passed 8192");
}

TEST(InvariantMonitorText, ResultHashMismatch) {
  auto r = allreduce_report(kCtx, 41, 2);
  r.result_hash = 0xfedcba9876543210ULL;
  EXPECT_EQ(second_report_text(r),
            kWhere + " (AllReduce): result buffers "
            "are not bitwise identical across members \u2014 rank 0 has hash "
            "0123456789abcdef, rank 2 has fedcba9876543210");
}

/// Three members report one AllGather whose result is three 12-byte
/// entries (36 bytes: four words and a zero-padded tail). Member 1's copy
/// has byte `flip` flipped (none when flip ≥ 36); each report carries the
/// digest the typed allgather feeds the monitor.
void observe_allgather_results(size_t flip) {
  struct Entry {
    std::uint32_t rank, node, slot;
  };
  static_assert(sizeof(Entry) == 12);
  std::vector<Entry> all{{0, 0, 7}, {1, 0, 8}, {2, 1, 9}};
  InvariantMonitor m;
  for (int rank = 0; rank < 3; ++rank) {
    std::vector<unsigned char> bytes(sizeof(Entry) * all.size());
    std::memcpy(bytes.data(), all.data(), bytes.size());
    if (rank == 1 && flip < bytes.size()) bytes[flip] ^= 0x01;
    auto r = allreduce_report(kCtx, 41, rank);
    r.kind = TraceEvent::Kind::kAllGather;
    r.payload_bytes = sizeof(Entry);
    r.result_hash = word_digest(bytes.data(), bytes.size());
    m.observe(r);
  }
  m.final_check();
}

TEST(InvariantMonitorText, AllGatherResultsDifferingInOneByteTrip) {
  EXPECT_NO_THROW(observe_allgather_results(36));
  EXPECT_THROW(observe_allgather_results(35), InvariantViolation);  // tail
  EXPECT_THROW(observe_allgather_results(0), InvariantViolation);
}

TEST(InvariantMonitorText, AgreeingMembersCompleteSilently) {
  InvariantMonitor m;
  for (int rank = 0; rank < 3; ++rank) m.observe(allreduce_report(kCtx, 41, rank));
  EXPECT_EQ(m.completed(), 1u);
  EXPECT_NO_THROW(m.final_check());
}

TEST(InvariantMonitorText, FinalCheckNamesSmallestOfTwoIncomplete) {
  // Observed largest key first, so "first" must mean smallest (context,
  // seq), not first observed. The two keys live on different shards.
  ASSERT_NE(InvariantMonitor::shard_of(kCtx, 9),
            InvariantMonitor::shard_of(kCtx - 1, 12));
  InvariantMonitor m;
  m.observe(allreduce_report(kCtx, 9, 1));
  auto small = allreduce_report(kCtx - 1, 12, 0);
  small.kind = TraceEvent::Kind::kAllGather;
  small.participants = 5;
  small.comm_label = "nl_comm";
  m.observe(small);
  small.world_rank = 3;
  m.observe(small);
  EXPECT_EQ(violation_text([&] { m.final_check(); }),
            "invariant violation: run finished with 2 incomplete "
            "collective(s); first: collective (comm 'nl_comm' "
            "ctx=feedc0de12345677 seq=12) (AllGather) observed by 2 of 5 "
            "members \u2014 some members skipped it");
}

TEST(InvariantMonitorText, RuntimeReportsKindMismatchThroughComm) {
  // Rank 1 enters its collective only after rank 0 has finished its own,
  // so rank 0 is the first member the monitor sees.
  const std::string text = violation_text([] {
    run_simulation(net::testbox(1, 2), 2, [](Proc& p) {
      auto world = p.world();
      if (p.world_rank() == 0) {
        std::vector<int> b(2, 1);
        world.bcast(std::span<int>(b), /*root=*/0);
        world.send(std::span<const int>(b), /*dst=*/1, /*tag=*/5);
      } else {
        std::vector<int> b(2);
        world.recv(std::span<int>(b), /*src=*/0, /*tag=*/5);
        std::vector<int> all(4, 2), mine(2);
        world.scatter(std::span<const int>(all), std::span<int>(mine),
                      /*root=*/1);
      }
    });
  });
  EXPECT_EQ(text,
            "invariant violation: collective (comm 'world' "
            "ctx=c50a6826fbdee00f seq=1): rank 0 entered Bcast but rank 1 "
            "entered Scatter at the same sequence number \u2014 members "
            "disagree on the collective schedule");
}

}  // namespace
}  // namespace xg::mpi
