// Differential correctness suite for the collective algorithm library
// (simmpi/coll.*): every selectable algorithm of every governed collective
// must produce bit-identical typed results to the linear/serial reference on
// power-of-two AND awkward rank counts, with and without fault injection
// (stragglers and message jitter change timing, never data), and with the
// same results, RunResult and trace bits under every schedule-perturbation
// seed. Plus selector semantics (rule matching, tuned vs legacy, JSON
// round-trip via telemetry) and trace-row algorithm recording.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "simmpi/coll.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"
#include "run_digest.hpp"
#include "telemetry/colltable.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace xg::mpi {
namespace {

using Kind = TraceEvent::Kind;

// Rank counts exercised by every differential test: powers of two, primes,
// and composites that are neither — non-power-of-two handling is where
// recursive doubling / Rabenseifner / Bruck earn their fold-in phases.
const std::vector<int> kRankCounts = {2, 3, 4, 5, 7, 8, 12, 16, 17};

// Spread p ranks over multi-rank nodes so communicators span nodes and the
// hierarchical schedules see a non-trivial leader topology (4 ranks/node;
// the last node may be partially filled — a non-uniform node group).
net::MachineSpec spanning_machine(int p) {
  return net::testbox((p + 3) / 4, 4);
}

// Integer-valued doubles: every algorithm's reduction order yields the exact
// same bits, so memcmp-level comparison is legitimate.
std::vector<double> rank_payload(int rank, int n, int salt = 0) {
  std::vector<double> v(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        static_cast<double>((rank * 31 + i * 7 + salt) % 97);
  }
  return v;
}

bool bit_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Serial reference: element-wise sum of every rank's payload.
std::vector<double> serial_sum(int p, int n, int salt = 0) {
  std::vector<double> acc(static_cast<std::size_t>(n), 0.0);
  for (int r = 0; r < p; ++r) {
    const auto v = rank_payload(r, n, salt);
    for (int i = 0; i < n; ++i) acc[static_cast<std::size_t>(i)] += v[static_cast<std::size_t>(i)];
  }
  return acc;
}

RuntimeOptions with_faults(const std::string& spec) {
  RuntimeOptions o;
  if (!spec.empty()) o.faults = FaultPlan::parse(spec);
  return o;
}

// Run `body` on p ranks over a node-spanning machine and collect each
// rank's result vector.
std::vector<std::vector<double>> run_collect(
    int p, int n, const std::function<std::vector<double>(Proc&)>& body,
    RuntimeOptions ropts = {}) {
  std::vector<std::vector<double>> out(static_cast<std::size_t>(p),
                                       std::vector<double>(static_cast<std::size_t>(n)));
  std::mutex mu;
  run_simulation(
      spanning_machine(p), p,
      [&](Proc& proc) {
        auto mine = body(proc);
        std::lock_guard<std::mutex> lock(mu);
        out[static_cast<std::size_t>(proc.world().rank())] = std::move(mine);
      },
      ropts);
  return out;
}

// ---------------------------------------------------------------------------
// AllReduce: every selectable algorithm == serial reference, bit-exact.

void check_allreduce(const std::string& fault_spec) {
  const int n = 96;  // not divisible by most rank counts → ragged ring blocks
  for (const int p : kRankCounts) {
    const auto expected = serial_sum(p, n);
    for (const CollAlg alg : selectable_algs(Kind::kAllReduce)) {
      const auto results = run_collect(
          p, n,
          [&](Proc& proc) {
            auto data = rank_payload(proc.world().rank(), n);
            proc.world().allreduce_sum(std::span<double>(data), alg);
            return data;
          },
          with_faults(fault_spec));
      for (int r = 0; r < p; ++r) {
        EXPECT_TRUE(bit_equal(results[static_cast<std::size_t>(r)], expected))
            << coll_alg_name(alg) << " p=" << p << " rank=" << r
            << (fault_spec.empty() ? "" : " faults=" + fault_spec);
      }
    }
  }
}

TEST(CollDifferential, AllReduceAllAlgorithmsMatchSerialReference) {
  check_allreduce("");
}

TEST(CollDifferential, AllReduceBitExactUnderStragglerAndJitter) {
  // Rank 1 straggles 3x, every message jittered and randomly delayed:
  // schedules reorder in time but the data path must be unchanged.
  check_allreduce("seed=7;straggler=1x3.0;jitter=0x0.5;delay=0.4x2e-6");
}

// ---------------------------------------------------------------------------
// Reduce: root ends with the serial sum under every algorithm.

void check_reduce(const std::string& fault_spec) {
  const int n = 64;
  for (const int p : kRankCounts) {
    const auto expected = serial_sum(p, n, /*salt=*/3);
    for (const CollAlg alg : selectable_algs(Kind::kReduce)) {
      for (const int root : {0, p - 1}) {
        const auto results = run_collect(
            p, n,
            [&](Proc& proc) {
              auto data = rank_payload(proc.world().rank(), n, 3);
              proc.world().reduce(
                  std::span<double>(data), [](double a, double b) { return a + b; },
                  root, alg);
              return data;
            },
            with_faults(fault_spec));
        EXPECT_TRUE(bit_equal(results[static_cast<std::size_t>(root)], expected))
            << coll_alg_name(alg) << " p=" << p << " root=" << root;
      }
    }
  }
}

TEST(CollDifferential, ReduceAllAlgorithmsMatchSerialReference) {
  check_reduce("");
}

TEST(CollDifferential, ReduceBitExactUnderFaults) {
  check_reduce("seed=11;straggler=0x2.5;delay=0.3x1e-6");
}

// ---------------------------------------------------------------------------
// Bcast: every rank ends with the root's buffer under every algorithm.

void check_bcast(const std::string& fault_spec) {
  const int n = 80;
  for (const int p : kRankCounts) {
    for (const CollAlg alg : selectable_algs(Kind::kBcast)) {
      for (const int root : {0, p / 2}) {
        const auto expected = rank_payload(root, n, 5);
        const auto results = run_collect(
            p, n,
            [&](Proc& proc) {
              // Non-root buffers start as garbage that must be overwritten.
              auto data = proc.world().rank() == root
                              ? rank_payload(root, n, 5)
                              : std::vector<double>(static_cast<std::size_t>(n), -1.0);
              proc.world().bcast(std::span<double>(data), root, alg);
              return data;
            },
            with_faults(fault_spec));
        for (int r = 0; r < p; ++r) {
          EXPECT_TRUE(bit_equal(results[static_cast<std::size_t>(r)], expected))
              << coll_alg_name(alg) << " p=" << p << " root=" << root
              << " rank=" << r;
        }
      }
    }
  }
}

TEST(CollDifferential, BcastAllAlgorithmsDeliverRootBuffer) {
  check_bcast("");
}

TEST(CollDifferential, BcastBitExactUnderFaults) {
  check_bcast("seed=13;straggler=0x4.0;jitter=1x0.3");
}

// ---------------------------------------------------------------------------
// AllGather: concatenation in rank order under every algorithm.

void check_allgather(const std::string& fault_spec) {
  const int block = 24;
  for (const int p : kRankCounts) {
    std::vector<double> expected;
    for (int r = 0; r < p; ++r) {
      const auto v = rank_payload(r, block, 9);
      expected.insert(expected.end(), v.begin(), v.end());
    }
    for (const CollAlg alg : selectable_algs(Kind::kAllGather)) {
      const auto results = run_collect(
          p, block * p,
          [&](Proc& proc) {
            const auto mine = rank_payload(proc.world().rank(), block, 9);
            std::vector<double> all(static_cast<std::size_t>(block * p), -1.0);
            proc.world().allgather(std::span<const double>(mine),
                                   std::span<double>(all), alg);
            return all;
          },
          with_faults(fault_spec));
      for (int r = 0; r < p; ++r) {
        EXPECT_TRUE(bit_equal(results[static_cast<std::size_t>(r)], expected))
            << coll_alg_name(alg) << " p=" << p << " rank=" << r;
      }
    }
  }
}

TEST(CollDifferential, AllGatherAllAlgorithmsMatchConcatenation) {
  check_allgather("");
}

TEST(CollDifferential, AllGatherBitExactUnderFaults) {
  check_allgather("seed=17;straggler=1x2.0;delay=0.5x3e-6");
}

// ---------------------------------------------------------------------------
// AllToAll: personalized exchange — rank r's block s lands in rank s's slot
// r — under every algorithm (Bruck's rotate/phase/unrotate must undo itself).

void check_alltoall(const std::string& fault_spec) {
  const int block = 16;
  for (const int p : kRankCounts) {
    for (const CollAlg alg : selectable_algs(Kind::kAllToAll)) {
      const auto results = run_collect(
          p, block * p,
          [&](Proc& proc) {
            const int me = proc.world().rank();
            // send block for destination d is salted by (me, d).
            std::vector<double> send;
            for (int d = 0; d < p; ++d) {
              const auto v = rank_payload(me, block, 100 + d);
              send.insert(send.end(), v.begin(), v.end());
            }
            std::vector<double> recv(static_cast<std::size_t>(block * p), -1.0);
            proc.world().alltoall(std::span<const double>(send),
                                  std::span<double>(recv), alg);
            return recv;
          },
          with_faults(fault_spec));
      for (int r = 0; r < p; ++r) {
        std::vector<double> expected;
        for (int s = 0; s < p; ++s) {
          const auto v = rank_payload(s, block, 100 + r);
          expected.insert(expected.end(), v.begin(), v.end());
        }
        EXPECT_TRUE(bit_equal(results[static_cast<std::size_t>(r)], expected))
            << coll_alg_name(alg) << " p=" << p << " rank=" << r;
      }
    }
  }
}

TEST(CollDifferential, AllToAllAllAlgorithmsMatchPersonalizedExchange) {
  check_alltoall("");
}

TEST(CollDifferential, AllToAllBitExactUnderFaults) {
  check_alltoall("seed=23;straggler=1x3.0;jitter=0x0.4");
}

// ---------------------------------------------------------------------------
// Schedule perturbation: the whole algorithm matrix, under stragglers and
// jitter, gives bit-identical buffers, RunResult and sorted trace at every
// schedule seed. The payloads are fractional, so a reduction order that
// followed the host schedule would show in the bits.

std::vector<double> fractional_payload(int rank, int n, int salt) {
  auto v = rank_payload(rank, n, salt);
  for (double& x : v) x = x / 7.0 + 0.1;
  return v;
}

// One collective of `kind` run with `alg`; returns this rank's buffer.
std::vector<double> run_one_collective(Proc& proc, Kind kind, CollAlg alg) {
  auto world = proc.world();
  const int me = world.rank();
  const int p = world.size();
  const int block = 12;
  switch (kind) {
    case Kind::kAllReduce: {
      auto data = fractional_payload(me, 40, 0);
      world.allreduce_sum(std::span<double>(data), alg);
      return data;
    }
    case Kind::kReduce: {
      auto data = fractional_payload(me, 40, 3);
      world.reduce(
          std::span<double>(data), [](double a, double b) { return a + b; },
          p - 1, alg);
      return data;
    }
    case Kind::kBcast: {
      auto data = fractional_payload(me, 40, 5);
      world.bcast(std::span<double>(data), p / 2, alg);
      return data;
    }
    case Kind::kAllGather: {
      const auto mine = fractional_payload(me, block, 9);
      std::vector<double> all(static_cast<std::size_t>(block * p), -1.0);
      world.allgather(std::span<const double>(mine), std::span<double>(all),
                      alg);
      return all;
    }
    case Kind::kAllToAll: {
      std::vector<double> send;
      for (int d = 0; d < p; ++d) {
        const auto v = fractional_payload(me, block, 100 + d);
        send.insert(send.end(), v.begin(), v.end());
      }
      std::vector<double> recv(static_cast<std::size_t>(block * p), -1.0);
      world.alltoall(std::span<const double>(send), std::span<double>(recv),
                     alg);
      return recv;
    }
    default:
      throw Error("run_one_collective: not a governed kind");
  }
}

TEST(SchedulePerturbation, AlgorithmMatrixBitIdenticalUnderStragglerAndJitter) {
  const auto faults = FaultPlan::parse(
      "seed=7;straggler=1x3.0;jitter=0x0.5;delay=0.4x2e-6");
  for (const Kind kind : {Kind::kAllReduce, Kind::kReduce, Kind::kBcast,
                          Kind::kAllGather, Kind::kAllToAll}) {
    for (const int p : kRankCounts) {
      for (const CollAlg alg : selectable_algs(kind)) {
        const auto digest = [&](std::uint64_t seed) {
          RuntimeOptions ropts;
          ropts.faults = faults;
          ropts.enable_trace = true;
          ropts.schedule_seed = seed;
          std::vector<std::vector<double>> out(static_cast<std::size_t>(p));
          const auto res = run_simulation(
              spanning_machine(p), p,
              [&](Proc& proc) {
                out[static_cast<std::size_t>(proc.world_rank())] =
                    run_one_collective(proc, kind, alg);
              },
              ropts);
          Hasher h;
          h.u64(testing::run_digest(res));
          for (const auto& v : out) h.bytes(v.data(), v.size() * sizeof(double));
          return h.digest();
        };
        const std::uint64_t want = digest(0);
        for (std::uint64_t seed = 1; seed <= testing::kScheduleSeeds; ++seed) {
          EXPECT_EQ(digest(seed), want)
              << trace_kind_name(kind) << " " << coll_alg_name(alg)
              << " p=" << p << " schedule_seed=" << seed;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Selector semantics.

TEST(CollSelectorTest, GovernedKindsNeverResolveToAuto) {
  for (const auto* sel : {&CollSelector::tuned(), &CollSelector::legacy()}) {
    for (const Kind kind : {Kind::kAllReduce, Kind::kReduce, Kind::kBcast,
                            Kind::kAllGather, Kind::kAllToAll}) {
      for (const std::uint64_t bytes : {64ull, 4096ull, 65536ull, 1048576ull}) {
        for (const int p : {2, 5, 17, 256}) {
          for (const bool spans : {false, true}) {
            const CollAlg alg = sel->choose(kind, bytes, p, spans);
            EXPECT_NE(alg, CollAlg::kAuto);
            EXPECT_TRUE(alg_valid_for(kind, alg))
                << trace_kind_name(kind) << " -> " << coll_alg_name(alg);
          }
        }
      }
    }
  }
}

TEST(CollSelectorTest, TunedPrefersTopologyAwareSchedules) {
  const auto& t = CollSelector::tuned();
  // Measured on the frontier-like DES (xgyro_colltune sweep): Rabenseifner
  // from 256 KiB, hierarchical for any node-spanning bcast, Bruck gathers.
  EXPECT_EQ(t.choose(Kind::kAllReduce, 512 * 1024, 128, true),
            CollAlg::kRabenseifner);
  EXPECT_EQ(t.choose(Kind::kAllReduce, 4096, 128, true),
            CollAlg::kRecursiveDoubling);
  EXPECT_EQ(t.choose(Kind::kBcast, 65536, 64, true), CollAlg::kHierarchical);
  EXPECT_EQ(t.choose(Kind::kAllGather, 4096, 64, true), CollAlg::kBruck);
  // Legacy keeps the fixed pre-selector behavior: ring AllReduce >= 64 KiB.
  const auto& l = CollSelector::legacy();
  EXPECT_EQ(l.choose(Kind::kAllReduce, 512 * 1024, 128, true), CollAlg::kRing);
  EXPECT_EQ(l.choose(Kind::kBcast, 65536, 64, true), CollAlg::kBinomial);
  EXPECT_TRUE(l.is_legacy());
  EXPECT_FALSE(t.is_legacy());
}

TEST(CollSelectorTest, CustomRulesMatchFirstToLastThenFallThrough) {
  std::vector<CollRule> rules;
  rules.push_back({Kind::kAllReduce, 4096, 64, /*spans_nodes=*/0,
                   CollAlg::kLinear});
  rules.push_back({Kind::kAllReduce, 4096, 64, /*spans_nodes=*/-1,
                   CollAlg::kBinomial});
  const CollSelector sel(rules, "test");
  // First rule wins when its spans constraint matches...
  EXPECT_EQ(sel.choose(Kind::kAllReduce, 1024, 8, false), CollAlg::kLinear);
  // ...the second catches the internode case...
  EXPECT_EQ(sel.choose(Kind::kAllReduce, 1024, 8, true), CollAlg::kBinomial);
  // ...and uncovered decisions fall through to the built-in tuned table.
  EXPECT_EQ(sel.choose(Kind::kAllReduce, 512 * 1024, 128, true),
            CollSelector::tuned().choose(Kind::kAllReduce, 512 * 1024, 128,
                                         true));
  EXPECT_EQ(sel.origin(), "test");
}

TEST(CollSelectorTest, RejectsAlgorithmInvalidForKind) {
  // Rabenseifner is an allreduce algorithm; a bcast rule naming it is a
  // table-authoring bug the constructor must catch.
  std::vector<CollRule> rules;
  rules.push_back({Kind::kBcast, 4096, 64, -1, CollAlg::kRabenseifner});
  EXPECT_THROW(CollSelector(rules, "bad"), InputError);
  std::vector<CollRule> broken;
  broken.push_back({Kind::kAllReduce, 4096, 64, -1,
                    CollAlg::kBrokenForTesting});
  EXPECT_THROW(CollSelector(broken, "bad"), InputError);
}

TEST(CollSelectorTest, NamedResolvesBuiltins) {
  EXPECT_EQ(CollSelector::named("tuned"), &CollSelector::tuned());
  EXPECT_EQ(CollSelector::named("legacy"), &CollSelector::legacy());
  EXPECT_EQ(CollSelector::named("nope"), nullptr);
}

TEST(CollSelectorTest, AlgAndKindNamesRoundTrip) {
  for (const Kind kind : {Kind::kAllReduce, Kind::kReduce, Kind::kBcast,
                          Kind::kAllGather, Kind::kAllToAll}) {
    ASSERT_NE(coll_kind_key(kind), nullptr);
    EXPECT_EQ(coll_kind_from_key(coll_kind_key(kind)), kind);
    for (const CollAlg alg : selectable_algs(kind)) {
      EXPECT_EQ(coll_alg_from_name(coll_alg_name(alg)), alg);
    }
  }
  EXPECT_EQ(coll_kind_key(Kind::kScan), nullptr);
  EXPECT_THROW(coll_alg_from_name("quantum"), InputError);
  EXPECT_THROW(coll_kind_from_key("scan"), InputError);
}

TEST(CollSelectorTest, JsonTableRoundTripsThroughTelemetry) {
  std::vector<CollRule> rules;
  rules.push_back({Kind::kAllReduce, 65536, 128, 1, CollAlg::kRabenseifner});
  rules.push_back({Kind::kAllToAll, 4096,
                   std::numeric_limits<int>::max(), -1, CollAlg::kBruck});
  const CollSelector sel(rules, "roundtrip-test");
  const auto doc = telemetry::coll_table_json(sel);
  const auto back = telemetry::coll_table_from_json(doc);
  ASSERT_NE(back, nullptr);
  EXPECT_EQ(back->origin(), "roundtrip-test");
  ASSERT_EQ(back->rules().size(), rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    EXPECT_EQ(back->rules()[i].kind, rules[i].kind);
    EXPECT_EQ(back->rules()[i].max_bytes, rules[i].max_bytes);
    EXPECT_EQ(back->rules()[i].max_participants, rules[i].max_participants);
    EXPECT_EQ(back->rules()[i].spans_nodes, rules[i].spans_nodes);
    EXPECT_EQ(back->rules()[i].alg, rules[i].alg);
  }
  // The reconstructed selector makes the same decisions.
  EXPECT_EQ(back->choose(Kind::kAllReduce, 4096, 64, true),
            CollAlg::kRabenseifner);
  EXPECT_EQ(back->choose(Kind::kAllToAll, 256, 17, false), CollAlg::kBruck);
}

// ---------------------------------------------------------------------------
// Trace rows record the algorithm that actually ran, members agree, and the
// run's selector decides kAuto calls.

TEST(CollTrace, RowsRecordResolvedAlgorithmAndMembersAgree) {
  const int p = 12;
  RuntimeOptions ropts;
  ropts.enable_trace = true;
  const auto res = run_simulation(
      spanning_machine(p), p,
      [&](Proc& proc) {
        std::vector<double> data = rank_payload(proc.world().rank(), 8);
        proc.world().allreduce_sum(std::span<double>(data));  // kAuto
        proc.world().allreduce_sum(std::span<double>(data), CollAlg::kRing);
        proc.world().bcast(std::span<double>(data), 0);  // kAuto
      },
      ropts);
  // Group rows by collective instance; every member must have recorded the
  // same (non-kAuto) algorithm.
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::set<CollAlg>> by_inst;
  for (const auto& e : res.trace) {
    EXPECT_NE(e.alg, CollAlg::kAuto)
        << trace_kind_name(e.kind) << " row missing resolved alg";
    by_inst[{e.comm_context, e.seq}].insert(e.alg);
  }
  ASSERT_EQ(by_inst.size(), 3u);
  for (const auto& [inst, algs] : by_inst) {
    EXPECT_EQ(algs.size(), 1u) << "members disagree on algorithm";
  }
  // The explicit kRing request passed through; the kAuto allreduce resolved
  // to the tuned table's pick for (64 bytes, 12 ranks, spans).
  std::set<CollAlg> seen;
  for (const auto& e : res.trace) seen.insert(e.alg);
  EXPECT_TRUE(seen.count(CollAlg::kRing));
  EXPECT_TRUE(seen.count(
      CollSelector::tuned().choose(Kind::kAllReduce, 64, p, true)));
}

TEST(CollTrace, RunSelectorGovernsAutoCalls) {
  // The same 512 KiB node-spanning allreduce resolves differently under the
  // tuned and legacy selectors, and the trace shows it.
  const int p = 8;
  const std::uint64_t bytes = 512 * 1024;
  auto alg_of = [&](const CollSelector& sel) {
    RuntimeOptions ropts;
    ropts.enable_trace = true;
    ropts.coll_selector = std::shared_ptr<const CollSelector>(
        std::shared_ptr<void>(), &sel);
    const auto res = run_simulation(
        net::testbox(4, 2), p,
        [&](Proc& proc) { proc.world().allreduce_virtual(bytes); }, ropts);
    EXPECT_FALSE(res.trace.empty());
    return res.trace.front().alg;
  };
  EXPECT_EQ(alg_of(CollSelector::tuned()), CollAlg::kRabenseifner);
  EXPECT_EQ(alg_of(CollSelector::legacy()), CollAlg::kRing);
}

// ---------------------------------------------------------------------------
// Hierarchical schedules beat flat ones where the tuned table says they do:
// a node-spanning bcast pays one inter-node hop per tree level instead of
// log2(p) of them.

TEST(CollTiming, HierarchicalBcastBeatsBinomialAcrossNodes) {
  const int nodes = 8, rpn = 8, p = nodes * rpn;
  auto makespan = [&](CollAlg alg) {
    return run_simulation(
               net::frontier_like(nodes), p,
               [&](Proc& proc) {
                 proc.world().bcast_virtual(64 * 1024, 0, alg);
               })
        .makespan_s;
  };
  EXPECT_LT(makespan(CollAlg::kHierarchical), makespan(CollAlg::kBinomial));
}

}  // namespace
}  // namespace xg::mpi
