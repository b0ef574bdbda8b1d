// XGYRO ensemble tests: communicator layout, shared-cmat validation, the
// bit-identical CGYRO↔XGYRO equivalence (the paper's correctness claim),
// memory invariance of cmat with ensemble size, and the communication-cost
// shape of Fig. 2.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <mutex>
#include <ostream>

#include "campaign/campaign.hpp"
#include "gyro/simulation.hpp"
#include "perfmodel/perfmodel.hpp"
#include "simmpi/traffic.hpp"
#include "simnet/machine.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"
#include "xgyro/ensemble.hpp"

namespace xg::xgyro {
namespace {

using gyro::Decomposition;
using gyro::Input;
using gyro::Mode;
using gyro::Simulation;

EnsembleInput make_sweep(int k, int ns = 2) {
  return EnsembleInput::sweep(Input::small_test(ns), k, [](Input& in, int i) {
    in.species[0].a_ln_t = 2.0 + 0.5 * i;  // drive sweep, cmat-safe
    in.tag = "member" + std::to_string(i);
  });
}

TEST(EnsembleInput, SweepValidatesSharedCmat) {
  const auto e = make_sweep(4);
  EXPECT_EQ(e.n_sims(), 4);
  EXPECT_NO_THROW(e.validate_shared_cmat());
}

TEST(EnsembleInput, RejectsCmatRelevantSweep) {
  EXPECT_THROW(EnsembleInput::sweep(Input::small_test(), 2,
                                    [](Input& in, int i) {
                                      in.collision.nu_ee = 0.1 + 0.01 * i;
                                    }),
               InputError);
  EXPECT_THROW(EnsembleInput::sweep(Input::small_test(), 2,
                                    [](Input& in, int i) {
                                      if (i == 1) in.dt *= 2;
                                    }),
               InputError);
}

TEST(Layout, CommunicatorSizesAndOrder) {
  const int k = 3, pv = 2, pt = 2;
  mpi::run_simulation(net::testbox(1, k * pv * pt), k * pv * pt,
                      [&](mpi::Proc& p) {
    int sim_index = -1;
    auto layout = make_xgyro_layout(p.world(), k, Decomposition{pv, pt},
                                    &sim_index);
    EXPECT_EQ(sim_index, p.world_rank() / (pv * pt));
    EXPECT_EQ(layout.sim.size(), pv * pt);
    EXPECT_EQ(layout.nv.size(), pv);
    EXPECT_EQ(layout.t.size(), pt);
    EXPECT_EQ(layout.coll.size(), k * pv);
    EXPECT_EQ(layout.n_sims_sharing, k);
    EXPECT_EQ(layout.share_index, sim_index);
    // The coll communicator must be distinct from the nv communicator —
    // the paper's required separation (Fig. 3 vs Fig. 1).
    EXPECT_NE(layout.coll.context(), layout.nv.context());
    // Simulation-major ordering: members are (sim, p_v) lexicographic.
    const int p_t = (p.world_rank() % (pv * pt)) / pv;
    for (int s = 0; s < k; ++s) {
      for (int v = 0; v < pv; ++v) {
        EXPECT_EQ(layout.coll.members()[s * pv + v],
                  s * pv * pt + p_t * pv + v);
      }
    }
    // My position in it: sim*pv + p_v.
    const int p_v = p.world_rank() % pv;
    EXPECT_EQ(layout.coll.rank(), sim_index * pv + p_v);
  });
}

TEST(Layout, CgyroAliasesCollToNv) {
  mpi::run_simulation(net::testbox(1, 4), 4, [](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), Decomposition{2, 2});
    // CGYRO's communicator reuse (paper Fig. 1): same context object.
    EXPECT_EQ(layout.coll.context(), layout.nv.context());
  });
}

TEST(Layout, WrongWorldSizeThrows) {
  mpi::run_simulation(net::testbox(1, 4), 4, [](mpi::Proc& p) {
    int idx;
    EXPECT_THROW(make_xgyro_layout(p.world(), 3, Decomposition{1, 1}, &idx),
                 Error);
  });
}

TEST(Driver, MismatchedEnsembleFailsAtInitialize) {
  // Bypass the static validation to exercise the runtime cross-check.
  EnsembleInput bad;
  bad.members.push_back(Input::small_test());
  bad.members.push_back(Input::small_test());
  bad.members[1].collision.nu_ee *= 2.0;  // cmat-relevant difference
  const Decomposition d{1, 1};
  EXPECT_THROW(
      mpi::run_simulation(net::testbox(1, 2), 2,
                          [&](mpi::Proc& p) {
                            EnsembleDriver drv(bad, d, p, Mode::kReal);
                            drv.initialize();
                          }),
      InputError);
}

/// Run the ensemble in real mode, returning per-sim state hashes.
std::map<int, std::uint64_t> run_xgyro_real(const EnsembleInput& e,
                                            int ranks_per_sim,
                                            int n_intervals = 1) {
  const auto d = Decomposition::choose(e.members.front(), ranks_per_sim,
                                       e.n_sims());
  std::map<int, std::uint64_t> hashes;
  std::mutex mu;
  mpi::run_simulation(
      net::testbox(1, e.n_sims() * ranks_per_sim), e.n_sims() * ranks_per_sim,
      [&](mpi::Proc& p) {
        EnsembleDriver drv(e, d, p, Mode::kReal);
        drv.initialize();
        for (int i = 0; i < n_intervals; ++i) drv.advance_report_interval();
        const auto h = drv.simulation().state_hash();
        if (drv.simulation().decomposition().nranks() > 0 &&
            p.world_rank() % d.nranks() == 0) {
          const std::scoped_lock lock(mu);
          hashes[drv.sim_index()] = h;
        }
      });
  return hashes;
}

/// Run one CGYRO job in real mode, returning the state hash.
std::uint64_t run_cgyro_real(const Input& in, int nranks, int n_intervals = 1) {
  const auto d = Decomposition::choose(in, nranks);
  std::uint64_t hash = 0;
  mpi::run_simulation(net::testbox(1, nranks), nranks, [&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), d);
    Simulation sim(in, d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    for (int i = 0; i < n_intervals; ++i) sim.advance_report_interval();
    const auto h = sim.state_hash();
    if (p.world_rank() == 0) hash = h;
  });
  return hash;
}

class Equivalence : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Equivalence, XgyroEnsembleBitIdenticalToCgyroRuns) {
  // The paper's correctness premise: executing k simulations as an XGYRO
  // ensemble (one shared cmat, separated communicators) changes *where*
  // data lives, never its values. Every member must evolve bit-identically
  // to the standalone CGYRO run on the same per-sim decomposition.
  const auto [k, ranks_per_sim] = GetParam();
  auto e = make_sweep(k);
  const auto xh = run_xgyro_real(e, ranks_per_sim, 2);
  ASSERT_EQ(static_cast<int>(xh.size()), k);
  for (int s = 0; s < k; ++s) {
    const auto ch = run_cgyro_real(e.members[s], ranks_per_sim, 2);
    EXPECT_EQ(xh.at(s), ch) << "sim " << s;
  }
  // Members with different drives must actually diverge from each other.
  if (k >= 2) {
    EXPECT_NE(xh.at(0), xh.at(1));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, Equivalence,
                         ::testing::Values(std::tuple{2, 2},   // pv=2? choose
                                           std::tuple{2, 4},
                                           std::tuple{4, 2},
                                           std::tuple{8, 1},
                                           std::tuple{2, 8}));

TEST(Equivalence, EnsembleCollisionChunkingIsBitIdentical) {
  // collision_step state-hash invariance across coll_pipeline_chunks with
  // the shared-cmat batched panel in play (k > 1): the overlap knob must
  // change timing only, never any member's values.
  std::map<int, std::uint64_t> ref;
  for (const int chunks : {1, 2, 4}) {
    auto e = EnsembleInput::sweep(Input::small_test(2), 4,
                                  [&](Input& in, int i) {
                                    in.species[0].a_ln_t = 2.0 + 0.5 * i;
                                    in.coll_pipeline_chunks = chunks;
                                  });
    const auto hashes = run_xgyro_real(e, 2);
    ASSERT_EQ(hashes.size(), 4u);
    if (chunks == 1) {
      ref = hashes;
    } else {
      EXPECT_EQ(hashes, ref) << "chunks=" << chunks;
    }
  }
}

TEST(Groups, SharingGroupsPartitionByFingerprint) {
  EnsembleInput e;
  Input a = Input::small_test(2);
  Input b = a;
  b.species[0].a_ln_t = 9.0;  // sweep-safe: same group as a
  Input c = a;
  c.collision.nu_ee *= 2.0;  // different physics: own group
  e.members = {a, b, c, a};
  const auto groups = e.sharing_groups();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0], (std::vector<int>{0, 1, 3}));
  EXPECT_EQ(groups[1], (std::vector<int>{2}));
}

TEST(Groups, GroupedLayoutSizesAndContexts) {
  // 4 members in 2 groups of 2, pv=2, pt=1: each group's coll comm has
  // group_size*pv = 4 participants, and the two groups' contexts differ.
  const int pv = 2, pt = 1;
  mpi::run_simulation(net::testbox(1, 8), 8, [&](mpi::Proc& p) {
    const std::vector<int> group_of_sim{0, 1, 0, 1};
    int sim = -1;
    auto layout = make_xgyro_layout_grouped(p.world(), group_of_sim,
                                            Decomposition{pv, pt}, &sim);
    EXPECT_EQ(layout.coll.size(), 2 * pv);
    EXPECT_EQ(layout.n_sims_sharing, 2);
    // sims 0,2 are group 0 (share indices 0,1); sims 1,3 group 1.
    EXPECT_EQ(layout.share_index, sim / 2);
    // Exchange contexts across the world: groups must not share a context.
    std::vector<std::uint64_t> ctx{layout.coll.context()};
    std::vector<std::uint64_t> all(8);
    p.world().allgather(std::span<const std::uint64_t>(ctx),
                        std::span<std::uint64_t>(all));
    const int my_group = group_of_sim[sim];
    for (int wr = 0; wr < 8; ++wr) {
      const int other_group = group_of_sim[wr / (pv * pt)];
      if (other_group == my_group) {
        EXPECT_EQ(all[wr], layout.coll.context());
      } else {
        EXPECT_NE(all[wr], layout.coll.context());
      }
    }
  });
}

TEST(Groups, MixedEnsembleRunsUnderGroupedPolicyAndMatchesCgyro) {
  // A mixed campaign: members 0,1 share physics A, members 2,3 share
  // physics B (different nu_ee). Under kGroupByFingerprint each pair shares
  // its own cmat, and every member still evolves bit-identically to its
  // standalone CGYRO run.
  Input a = Input::small_test(2);
  Input b = a;
  b.species[0].a_ln_t = 4.0;
  Input c = a;
  c.collision.nu_ee = 0.23;
  Input d = c;
  d.species[0].a_ln_t = 4.0;
  EnsembleInput mixed;
  mixed.members = {a, b, c, d};

  const int ranks_per_sim = 2;
  const auto decomp =
      Decomposition::choose(a, ranks_per_sim, /*k within group=*/2);
  std::map<int, std::uint64_t> hashes;
  std::map<int, int> group_of, gsize_of;
  std::mutex mu;
  mpi::run_simulation(net::testbox(1, 8), 8, [&](mpi::Proc& p) {
    EnsembleDriver drv(mixed, decomp, p, Mode::kReal,
                       SharingPolicy::kGroupByFingerprint);
    drv.initialize();
    drv.advance_report_interval();
    const auto h = drv.simulation().state_hash();
    if (p.world_rank() % ranks_per_sim == 0) {
      const std::scoped_lock lock(mu);
      hashes[drv.sim_index()] = h;
      group_of[drv.sim_index()] = drv.sharing_group();
      gsize_of[drv.sim_index()] = drv.group_size();
    }
  });
  ASSERT_EQ(hashes.size(), 4u);
  EXPECT_EQ(group_of.at(0), group_of.at(1));
  EXPECT_EQ(group_of.at(2), group_of.at(3));
  EXPECT_NE(group_of.at(0), group_of.at(2));
  for (int s = 0; s < 4; ++s) EXPECT_EQ(gsize_of.at(s), 2);
  for (int s = 0; s < 4; ++s) {
    EXPECT_EQ(hashes.at(s), run_cgyro_real(mixed.members[s], ranks_per_sim, 1))
        << "sim " << s;
  }
}

TEST(Groups, SingleGroupPolicyStillRejectsMixedEnsembles) {
  EnsembleInput mixed;
  mixed.members = {Input::small_test(2), Input::small_test(2)};
  mixed.members[1].collision.nu_ee *= 3.0;
  const Decomposition d{1, 1};
  EXPECT_THROW(
      mpi::run_simulation(net::testbox(1, 2), 2,
                          [&](mpi::Proc& p) {
                            EnsembleDriver drv(mixed, d, p, Mode::kReal,
                                               SharingPolicy::kSingleGroup);
                          }),
      InputError);
}

TEST(Groups, GroupedPolicyWithUniformEnsembleEqualsSingleGroup) {
  auto e = make_sweep(2);
  const Decomposition d{2, 1};
  std::map<int, std::uint64_t> grouped, single;
  std::mutex mu;
  for (const bool use_grouped : {false, true}) {
    mpi::run_simulation(net::testbox(1, 4), 4, [&](mpi::Proc& p) {
      EnsembleDriver drv(e, d, p, Mode::kReal,
                         use_grouped ? SharingPolicy::kGroupByFingerprint
                                     : SharingPolicy::kSingleGroup);
      drv.initialize();
      drv.advance_report_interval();
      const auto h = drv.simulation().state_hash();
      if (p.world_rank() % 2 == 0) {
        const std::scoped_lock lock(mu);
        (use_grouped ? grouped : single)[drv.sim_index()] = h;
      }
    });
  }
  EXPECT_EQ(grouped, single);
}

TEST(Groups, RunJobSizesUnequalGroupsByTheirOwnCollisionComms) {
  // nu_ee 0.1, 0.2, 0.1: groups of 2 and 1. nc = 32 divides by no 3·pv,
  // but each group's collision communicator splits nc over its own
  // size·pv ranks, so (pv, pt) = (1, 4) serves both — in the first attempt
  // and in the replan after a node is lost (4 → 2 ranks per member).
  Input base = Input::small_test(2);
  base.n_radial = 8;
  base.n_xi = 8;
  EnsembleInput batch;
  for (const double nu : {0.1, 0.2, 0.1}) {
    base.collision.nu_ee = nu;
    batch.members.push_back(base);
  }
  JobOptions opts;
  opts.mode = Mode::kReal;
  opts.sharing = SharingPolicy::kGroupByFingerprint;
  for (const bool kill : {false, true}) {
    SCOPED_TRACE(kill ? "after a node loss" : "first attempt");
    if (kill) {
      opts.faults = mpi::FaultPlan::parse("seed=1;kill=5@1e-6");
      opts.max_recoveries = 1;
    }
    const auto job = run_job(batch, net::testbox(2, 8), 4, opts);
    EXPECT_EQ(job.ranks_per_sim, kill ? 2 : 4);
    ASSERT_EQ(job.diagnostics.size(), 3u);
    EXPECT_TRUE(std::isfinite(job.diagnostics[1].phi_rms));
    // Members 0 and 2 are the same input, sharing one cmat copy.
    EXPECT_EQ(std::bit_cast<std::uint64_t>(job.diagnostics[0].phi_rms),
              std::bit_cast<std::uint64_t>(job.diagnostics[2].phi_rms));
  }
}

TEST(Memory, CmatTotalBytesInvariantInEnsembleSize) {
  // Paper §2.1: "its size does not change if we change the number of
  // simulations in a XGYRO ensemble" while other buffers grow ∝ k.
  const Input base = Input::small_test(2);
  const Decomposition d{2, 2};
  const double cmat_k1 =
      Simulation::memory_inventory(base, d, 1).bytes_of("cmat") * d.pv * d.pt;
  for (const int k : {2, 4}) {
    const auto inv = Simulation::memory_inventory(base, d, k);
    const double cmat_total = inv.bytes_of("cmat") * k * d.pv * d.pt;
    EXPECT_DOUBLE_EQ(cmat_total, cmat_k1) << "k=" << k;
    const double others_total = inv.total_excluding("cmat") * k * d.pv * d.pt;
    const double others_k1 =
        Simulation::memory_inventory(base, d, 1).total_excluding("cmat") *
        d.pv * d.pt;
    EXPECT_DOUBLE_EQ(others_total, others_k1 * k) << "k=" << k;
  }
}

TEST(Memory, RealCmatSlicesShrinkByK) {
  // Verify on the actual allocated tensors, not just the accounting.
  auto e = make_sweep(2);
  const Decomposition d{2, 1};
  std::uint64_t xgyro_slice = 0;
  mpi::run_simulation(net::testbox(1, 4), 4, [&](mpi::Proc& p) {
    EnsembleDriver drv(e, d, p, Mode::kReal);
    drv.initialize();
    if (p.world_rank() == 0) xgyro_slice = drv.simulation().cmat().bytes();
  });
  std::uint64_t cgyro_slice = 0;
  mpi::run_simulation(net::testbox(1, 2), 2, [&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), d);
    Simulation sim(e.members[0], d, std::move(layout), p, Mode::kReal);
    sim.initialize();
    if (p.world_rank() == 0) cgyro_slice = sim.cmat().bytes();
  });
  EXPECT_EQ(xgyro_slice * 2, cgyro_slice);
}

TEST(CommCost, XgyroStrCommCheaperThanCgyroSum) {
  // The Fig. 2 shape at test scale, in the paper's regime: the CGYRO
  // baseline's nv communicator spans multiple nodes (pv=8 on 4-rank nodes),
  // while each XGYRO member's nv communicator (pv=2) stays on one node and
  // has 4× fewer participants. 4 sequential CGYRO jobs vs one ensemble.
  Input base = Input::small_test(2);  // nv=32, nt=4
  base.n_radial = 16;
  base.n_theta = 8;                   // nc = 128: bandwidth-visible payloads
  base.n_steps_per_report = 5;
  const int k = 4;
  auto e = EnsembleInput::sweep(base, k, [](Input& in, int i) {
    in.species[0].a_ln_t = 2.0 + 0.1 * i;
  });
  const auto machine = net::testbox(8, 4);  // 32 rank slots, 4 per node

  JobOptions opts;
  opts.mode = Mode::kModel;
  const auto cgyro = run_cgyro_job(base, machine, 32, opts);   // pv=8, pt=4
  const auto xgyro = run_xgyro_job(e, machine, 8, opts);       // pv=2, pt=4

  const double cgyro_sum_total = k * report_step_seconds(cgyro);
  const double xgyro_total = report_step_seconds(xgyro);
  const double cgyro_sum_str = k * phase_seconds(cgyro, "str_comm");
  const double xgyro_str = phase_seconds(xgyro, "str_comm");

  EXPECT_LT(xgyro_str, cgyro_sum_str);
  EXPECT_LT(xgyro_total, cgyro_sum_total);
  // Compute is work-conserving: the ensemble does the same physics spread
  // over 4× fewer ranks per sim, so per-job compute quadruples while the
  // job count drops 4× — the sums must agree.
  EXPECT_NEAR(k * phase_seconds(cgyro, "coll"), phase_seconds(xgyro, "coll"),
              k * phase_seconds(cgyro, "coll") * 0.01);
}

TEST(CommCost, XgyroRelocatesStrTrafficOntoNodes) {
  // The quantitative mechanism behind the str_comm win: XGYRO does not
  // remove the field/upwind reduction bytes, it moves them from inter-node
  // links onto intra-node fabric. CGYRO with pv=8 on 4-rank nodes reduces
  // across 2 nodes (inter traffic); each XGYRO member with pv=2 reduces
  // within one node (zero inter bytes in str_comm).
  Input base = Input::small_test(2);
  base.n_steps_per_report = 2;
  const auto machine = net::testbox(8, 4);
  const net::Placement place(machine);
  JobOptions opts;
  opts.mode = Mode::kModel;

  mpi::RuntimeOptions ropts;
  ropts.enable_traffic = true;
  // CGYRO: one sim on 32 ranks (pv=8 spans 2 nodes).
  const auto d32 = Decomposition::choose(base, 32);
  mpi::Runtime rt_c(machine, 32, ropts);
  const auto cg = rt_c.run([&](mpi::Proc& p) {
    auto layout = gyro::make_cgyro_layout(p.world(), d32);
    Simulation sim(base, d32, std::move(layout), p, Mode::kModel);
    sim.initialize();
    sim.advance_report_interval();
  });
  // XGYRO: 4 members × 8 ranks (pv=2, intra-node).
  auto e = EnsembleInput::sweep(base, 4, [](Input& in, int i) {
    in.species[0].a_ln_t = 2.0 + 0.1 * i;
  });
  const auto d8 = Decomposition::choose(base, 8, 4);
  mpi::Runtime rt_x(machine, 32, ropts);
  const auto xg = rt_x.run([&](mpi::Proc& p) {
    EnsembleDriver drv(e, d8, p, Mode::kModel);
    drv.initialize();
    drv.advance_report_interval();
  });

  const auto cg_str = mpi::summarize_traffic_phase(cg, place, "str_comm");
  const auto xg_str = mpi::summarize_traffic_phase(xg, place, "str_comm");
  EXPECT_GT(cg_str.inter_fraction(), 0.2);
  EXPECT_DOUBLE_EQ(xg_str.inter_fraction(), 0.0);
  EXPECT_GT(xg_str.intra_bytes, 0u);
  // The collision transpose, by contrast, stays inter-node-heavy in both.
  const auto cg_coll = mpi::summarize_traffic_phase(cg, place, "coll_comm");
  const auto xg_coll = mpi::summarize_traffic_phase(xg, place, "coll_comm");
  EXPECT_GT(cg_coll.inter_bytes, 0u);
  EXPECT_GT(xg_coll.inter_bytes, 0u);
}

TEST(CommCost, TraceShowsSeparatedCollCommunicator) {
  Input base = Input::small_test(2);
  base.n_steps_per_report = 1;
  const int k = 2;
  auto e = EnsembleInput::sweep(base, k, [](Input& in, int i) {
    in.species[0].a_ln_t = 2.0 + 0.1 * i;
  });
  JobOptions opts;
  opts.mode = Mode::kModel;
  opts.enable_trace = true;
  const auto res = run_xgyro_job(e, net::testbox(1, 8), 4, opts);  // pv=1,pt=4

  bool saw_shared_coll = false;
  for (const auto& ev : res.trace) {
    if (ev.kind == mpi::TraceEvent::Kind::kAllToAll &&
        ev.comm_label == "coll_shared.g0") {
      saw_shared_coll = true;
      EXPECT_EQ(ev.participants, k * 1);  // k * pv
    }
  }
  EXPECT_TRUE(saw_shared_coll);
}

// --- Golden bits of the real nonlinear solver -------------------------------
//
// Every other real-mode test compares two runs of the same binary. These pin
// the final state_hash and flux_proxy bit pattern of nonlinear ensembles to
// constants, so a kernel rewrite (FFT bracket, RHS tables) that changes a
// single rounding anywhere fails here. The build uses ISO C++ without
// -ffast-math, so floating-point contraction is off; the constants can only
// move with a compiler or ISA that fuses multiply-adds.

struct GoldenMember {
  std::uint64_t state_hash = 0;
  std::uint64_t flux_bits = 0;
  bool operator==(const GoldenMember&) const = default;
};

std::ostream& operator<<(std::ostream& os, const GoldenMember& m) {
  return os << "{0x" << std::hex << m.state_hash << ", 0x" << m.flux_bits
            << std::dec << "}";
}

/// k small_test members (drive and seed swept) on `d` ranks each, advanced
/// `intervals` report intervals; per-member final bits.
std::vector<GoldenMember> run_golden(int k, Decomposition d, int nt,
                                     bool nonlinear = true, int intervals = 3) {
  Input base = Input::small_test(2);
  base.n_toroidal = nt;
  base.nonlinear = nonlinear;
  const auto e = EnsembleInput::sweep(base, k, [](Input& in, int i) {
    in.species[0].a_ln_t = 2.0 + 0.5 * i;
    in.seed = 11 + 7 * static_cast<std::uint64_t>(i);
  });
  std::vector<GoldenMember> out(static_cast<size_t>(k));
  std::mutex mu;
  mpi::run_simulation(
      net::testbox(1, k * d.nranks()), k * d.nranks(), [&](mpi::Proc& p) {
        EnsembleDriver drv(e, d, p, Mode::kReal);
        drv.initialize();
        gyro::Diagnostics diag;
        for (int i = 0; i < intervals; ++i) diag = drv.advance_report_interval();
        const auto h = drv.simulation().state_hash();
        if (drv.simulation().sim_rank() == 0) {
          const std::scoped_lock lock(mu);
          EXPECT_TRUE(std::isfinite(diag.flux_proxy));
          out[static_cast<size_t>(drv.sim_index())] = {
              h, std::bit_cast<std::uint64_t>(diag.flux_proxy)};
        }
      });
  return out;
}

TEST(Golden, FourMembersOneRankEachPow2) {
  const std::vector<GoldenMember> want{
      {0xd9e92f2bd2b0e1fc, 0x3ef4dbd55c6e6978},
      {0xb85bcc814956a2d2, 0x3ef6a08d003c1c5c},
      {0x322dc7449daf4cf4, 0x3efb719cf82f35da},
      {0x3921935170fa6668, 0x3ef57f2b350c9f36}};
  EXPECT_EQ(run_golden(4, Decomposition{1, 1}, 8), want);
}

TEST(Golden, TwoMembersSplitOverVelocityAndToroidal) {
  // pv = pt = 2: the bracket sees half the velocity lines and its φ lines
  // are gathered across the t communicator.
  const std::vector<GoldenMember> want{
      {0xfb76d083d871e334, 0x3ef4dbd55c6e6978},
      {0x271193ad415b302b, 0x3ef6a08d003c1c58}};
  EXPECT_EQ(run_golden(2, Decomposition{2, 2}, 8), want);
}

TEST(Golden, TwoMembersVelocitySplitIdentityBracket) {
  // pv = 2, pt = 1: the nl transpose is the identity and each cell's
  // bracket lines are half of the velocity extent of the state.
  const std::vector<GoldenMember> want{
      {0xfb76d083d871e334, 0x3ef4dbd55c6e6978},
      {0x271193ad415b302b, 0x3ef6a08d003c1c5c}};
  EXPECT_EQ(run_golden(2, Decomposition{2, 1}, 8), want);
}

TEST(Golden, TwoMembersBluesteinLength) {
  // nt = 6 takes the Bluestein path of the bracket FFT.
  const std::vector<GoldenMember> want{
      {0xdec458a2050c927b, 0x3ef25f1a8f1b7ace},
      {0x6cccec299ae81495, 0x3ef3c17f2a4a565a}};
  EXPECT_EQ(run_golden(2, Decomposition{1, 2}, 6), want);
}

TEST(Golden, LinearTwoMembers) {
  // No bracket: pins the streaming RHS on its own.
  const std::vector<GoldenMember> want{
      {0x3b2c7bca02765ebe, 0x3ef4dbd8efab9fda},
      {0x008032a7d025573b, 0x3ef6a02d15c6f931}};
  EXPECT_EQ(run_golden(2, Decomposition{2, 1}, 8, /*nonlinear=*/false), want);
}

TEST(Golden, OneMemberToroidalSplitLongLines) {
  const std::vector<GoldenMember> want{
      {0xc7dae61328523194, 0x3f000c45618468b5}};
  EXPECT_EQ(run_golden(1, Decomposition{1, 2}, 16), want);
}

// --- Golden signatures of every job entry point ------------------------------
//
// Each entry point that runs a whole job (the CGYRO/XGYRO job drivers, the
// campaign executor, the elastic executor in both layouts) is pinned to the
// bits it produced before they were folded into one runner: the makespan,
// the max-over-ranks time of every solver phase and of init, the message,
// byte and checked-collective counts, and every member's diagnostics.

std::string hex_bits(double v) {
  return strprintf("%016llx", static_cast<unsigned long long>(
                                  std::bit_cast<std::uint64_t>(v)));
}

std::string run_signature(const mpi::RunResult& r) {
  std::string s = hex_bits(r.makespan_s);
  auto phases = solver_phases();
  phases.push_back("init");
  for (const auto& ph : phases) s += ":" + hex_bits(r.phase_max_time(ph));
  mpi::PhaseStats t;
  for (const auto& rank : r.ranks) t += rank.total();
  return s + strprintf(":%llu:%llu:%llu",
                       static_cast<unsigned long long>(t.msgs_sent),
                       static_cast<unsigned long long>(t.bytes_sent),
                       static_cast<unsigned long long>(r.collectives_checked));
}

std::string diag_signature(const gyro::Diagnostics& d) {
  return strprintf("|%d:", d.steps) + hex_bits(d.time) + ":" +
         hex_bits(d.phi_rms) + ":" + hex_bits(d.flux_proxy) + ":" +
         hex_bits(d.free_energy);
}

TEST(Golden, JobRunnerSignatures) {
  const Input cg = Input::small_test(2);
  const auto ens = make_sweep(2);
  const auto box = net::testbox(1, 4);

  JobOptions real;
  real.mode = Mode::kReal;
  real.n_report_intervals = 2;
  JobOptions model;
  model.n_report_intervals = 2;
  EXPECT_EQ(run_signature(run_cgyro_job(cg, box, 4, real)),
            "3f71d2b4dd05c3db:3f62ecb91dbac864:0000000000000000:"
            "0000000000000000:0000000000000000:3f45798ee2308c3b:"
            "0000000000000000:3f093755f9ff01f1:3f55213e2cfb2493:40:672:421");
  EXPECT_EQ(run_signature(run_xgyro_job(ens, box, 2, real)),
            "3f809822f140efb5:3f72ecb91dbac864:0000000000000000:"
            "0000000000000000:0000000000000000:3f55798ee2308c3b:"
            "3f3a774f97c2d482:3ef93755f9ff01b2:3f5b638e757ee2e4:124:656000:"
            "388");
  EXPECT_EQ(run_signature(run_cgyro_job(cg, box, 4, model)),
            "3f71d2b4dd05c3db:3f62ecb91dbac864:0000000000000000:"
            "0000000000000000:0000000000000000:3f45798ee2308c3b:"
            "0000000000000000:3f093755f9ff01f1:3f55213e2cfb2493:40:672:421");
  EXPECT_EQ(run_signature(run_xgyro_job(ens, box, 2, model)),
            "3f809822f140efb5:3f72ecb91dbac864:0000000000000000:"
            "0000000000000000:0000000000000000:3f55798ee2308c3b:"
            "3f3a774f97c2d482:3ef93755f9ff01b2:3f5b638e757ee2e4:124:656000:"
            "388");

  // Two cmat-sharing groups -> a two-job plan, one run_job per job.
  campaign::CampaignSpec spec;
  Input other = cg;
  other.collision.nu_ee *= 2.0;
  other.tag = "other";
  spec.members.members = {ens.members[0], other};
  spec.machine = box;
  const auto plan = campaign::plan_campaign(spec);
  ASSERT_EQ(plan.jobs.size(), 2u);
  std::string camp_sig, member_sig;
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    const auto& job = plan.jobs[j];
    EnsembleInput batch;
    for (const int m : job.member_indices) {
      batch.members.push_back(spec.members.members[m]);
    }
    const auto r = run_job(batch, spec.machine, job.ranks_per_sim, real);
    camp_sig += run_signature(r.run) + "/";
    for (size_t i = 0; i < r.diagnostics.size(); ++i) {
      member_sig += strprintf("|m%d.j%zu", job.member_indices[i], j) +
                    diag_signature(r.diagnostics[i]);
    }
  }
  EXPECT_EQ(camp_sig + member_sig,
            "3f72051d17b54acf:3f62ecb91dbac864:0000000000000000:"
            "0000000000000000:0000000000000000:3f45798ee2308c3b:"
            "0000000000000000:3f093755f9ff01f1:3f55213e2cfb2493:56:960:427/"
            "3f72051d17b54acf:3f62ecb91dbac864:0000000000000000:"
            "0000000000000000:0000000000000000:3f45798ee2308c3b:"
            "0000000000000000:3f093755f9ff01f1:3f55213e2cfb2493:56:960:427/"
            "|m0.j0|10:3fc999999999999a:3f5b5bb814ee642d:3ef260875abebb46:"
            "3f0ac57f4ea02344|m1.j1|10:3fc999999999999a:3f5b2325e20a9f3b:"
            "3ef192d75fd710d2:3f08f7cf736a1fdc");

  campaign::RecoveryOptions layout_cgyro;
  layout_cgyro.cgyro_layout = true;
  const auto single = campaign::run_job_elastic(
      EnsembleInput{{cg}}, box, 4, 2, Mode::kReal, layout_cgyro);
  std::string single_sig = run_signature(single.run);
  for (const auto& d : single.diagnostics) single_sig += diag_signature(d);
  EXPECT_EQ(single_sig,
            "3f71d2b4dd05c3db:3f62ecb91dbac864:0000000000000000:"
            "0000000000000000:0000000000000000:3f45798ee2308c3b:"
            "0000000000000000:3f093755f9ff01f1:3f55213e2cfb2493:40:672:421|"
            "10:3fc999999999999a:3f5b57bef1ea27c0:3ef24f76e57768ca:"
            "3f0b9686e1410982");

  const auto pair =
      campaign::run_job_elastic(ens, box, 2, 2, Mode::kReal, {});
  std::string pair_sig = run_signature(pair.run);
  for (const auto& d : pair.diagnostics) pair_sig += diag_signature(d);
  EXPECT_EQ(pair_sig,
            "3f809822f140efb5:3f72ecb91dbac864:0000000000000000:"
            "0000000000000000:0000000000000000:3f55798ee2308c3b:"
            "3f3a774f97c2d482:3ef93755f9ff01b2:3f5b638e757ee2e4:124:656000:"
            "388|10:3fc999999999999a:3f5b5bb814ee642e:3ef260875abebb46:"
            "3f0ac57f4ea02341|10:3fc999999999999a:3f5b59abcc2b9393:"
            "3ef2578f290a35ba:3f0b248f5f26c720");
}

// The paper-scale Fig. 2 pair in model mode: one nl03c-like CGYRO run on
// all 256 ranks of the 32-node nl03c machine, then the 8-member sweep at 32
// ranks each, sharing cmat. Pins both jobs' makespan, per-phase and traffic
// bits, so a change to rank start-up (grid, classification, communicator
// splits, the invariant monitor) cannot move a paper-scale virtual result.
TEST(Golden, Fig2ModelSignature) {
  constexpr int kVariants = 8;
  Input base = Input::nl03c_like();
  base.n_steps_per_report = 1;
  const auto ensemble = EnsembleInput::sweep(base, kVariants, [](Input& m, int i) {
    m.species[0].a_ln_t = 1.5 + 0.3 * i;
    m.tag = strprintf("nl03c_v%d", i);
  });
  const auto machine = perfmodel::nl03c_machine(32);
  const int nranks = machine.total_ranks();
  ASSERT_EQ(nranks, 256);
  // Traffic sums to the traced fig2_model op: 128,512 messages,
  // 431,320,477,696 bytes, 1,974 checked collectives.
  EXPECT_EQ(run_signature(run_cgyro_job(base, machine, nranks)),
            "3fe3d0436421cc06:3f3b8745c4c2e82d:3f56a15aefc1ecb0:"
            "3f27be68d60a3cb5:3f8d3b44e7a02b1b:3f664c41c34e7735:"
            "3f5f4c2866127e72:3f168c1a6a63fdb1:3fe323b45b3a7472:72192:"
            "58260498432:404");
  EXPECT_EQ(run_signature(run_xgyro_job(ensemble, machine, nranks / kVariants)),
            "3fe6e44ba428dd9a:3f688be8c1b29278:3f30017d751fe55a:"
            "3f55e8a5c07656ba:3fb4730420777756:3f8645f7267232fc:"
            "3f961a0eeca65fa8:3f11af55f4a3b68e:3fe324b1c7917ea6:56320:"
            "373059979264:1570");
}

}  // namespace
}  // namespace xg::xgyro
