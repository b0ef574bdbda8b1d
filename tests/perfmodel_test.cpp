// Performance-model tests: closed forms vs the discrete-event simulator,
// and the nl03c memory-feasibility claims from the paper.
#include <gtest/gtest.h>

#include "gyro/simulation.hpp"
#include "perfmodel/perfmodel.hpp"
#include "simmpi/comm.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"
#include "xgyro/driver.hpp"

namespace xg::perfmodel {
namespace {

TEST(ClosedForm, RoundCostComponents) {
  const auto spec = net::testbox(2, 2);
  const double intra = round_cost(spec, 1000, false);
  const double inter = round_cost(spec, 1000, true);
  EXPECT_GT(inter, intra);
  EXPECT_NEAR(intra,
              spec.send_overhead_s + 1000 / spec.intra_bw_Bps +
                  spec.intra_latency_s + spec.recv_overhead_s,
              1e-15);
}

TEST(ClosedForm, AllReduceGrowsWithParticipants) {
  const auto spec = net::testbox(8, 1);
  double prev = 0;
  for (const int p : {2, 4, 8, 16, 32}) {
    const double t = estimate_allreduce(spec, p, 256 * 1024, true);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_DOUBLE_EQ(estimate_allreduce(spec, 1, 1024, true), 0.0);
}

class DesCrossCheck : public ::testing::TestWithParam<std::tuple<int, size_t>> {};

TEST_P(DesCrossCheck, AllReduceEstimateWithinFactorTwoOfDes) {
  const auto [p, bytes] = GetParam();
  const auto spec = net::testbox(p, 1);  // every pair internode
  const auto res = mpi::run_simulation(spec, p, [&](mpi::Proc& proc) {
    proc.world().allreduce_virtual(bytes);
  });
  const double des = res.makespan_s;
  const double est = estimate_allreduce(spec, p, bytes, true);
  if (p == 1) {
    EXPECT_DOUBLE_EQ(est, 0.0);
    EXPECT_DOUBLE_EQ(des, 0.0);
    return;
  }
  EXPECT_GT(est, des * 0.5) << "p=" << p << " bytes=" << bytes;
  EXPECT_LT(est, des * 2.0) << "p=" << p << " bytes=" << bytes;
}

TEST_P(DesCrossCheck, AllToAllEstimateWithinFactorTwoOfDes) {
  const auto [p, bytes] = GetParam();
  const auto spec = net::testbox(p, 1);
  const auto res = mpi::run_simulation(spec, p, [&](mpi::Proc& proc) {
    proc.world().alltoall_virtual(bytes);
  });
  const double est = estimate_alltoall(spec, p, bytes, true);
  if (p == 1) {
    EXPECT_DOUBLE_EQ(est, 0.0);
    return;
  }
  EXPECT_GT(est, res.makespan_s * 0.5);
  EXPECT_LT(est, res.makespan_s * 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DesCrossCheck,
    ::testing::Combine(::testing::Values(1, 2, 4, 8, 16),
                       ::testing::Values(size_t{1024}, size_t{512 * 1024})));

TEST(Nl03c, SingleSimulationNeedsThirtyTwoNodes) {
  // Paper §3: "a single CGYRO simulation does require at least 32 nodes."
  const auto in = gyro::Input::nl03c_like();
  EXPECT_EQ(min_feasible_nodes_cgyro(in, 128), 32);
  // Sharper: 16 nodes must fail on memory, 32 must fit.
  EXPECT_FALSE(plan_cgyro(in, nl03c_machine(16)).fit.fits);
  EXPECT_TRUE(plan_cgyro(in, nl03c_machine(32)).fit.fits);
}

TEST(Nl03c, EnsembleOfEightFitsOnThirtyTwoNodes) {
  // Paper §3: 8 nl03c variants run as one XGYRO ensemble on 32 nodes.
  const auto in = gyro::Input::nl03c_like();
  const auto p = plan_xgyro(in, 8, nl03c_machine(32));
  EXPECT_TRUE(p.fit.fits);
  EXPECT_GT(p.fit.utilization, 0.5);  // memory-tight, as on the real machine
  // Without cmat sharing the same placement would NOT fit: account the
  // ensemble layout but with per-simulation cmat copies (k=1 accounting on
  // the per-sim decomposition).
  const auto no_sharing = cluster::check_fit(
      gyro::Simulation::memory_inventory(in, p.decomp, 1), nl03c_machine(32));
  EXPECT_FALSE(no_sharing.fits);
}

TEST(Nl03c, CmatDominatesAndSharingShrinksIt) {
  const auto in = gyro::Input::nl03c_like();
  const auto d1 = gyro::Decomposition::choose(in, 256);
  const auto inv1 = gyro::Simulation::memory_inventory(in, d1, 1);
  EXPECT_GT(inv1.bytes_of("cmat") / inv1.total_excluding("cmat"), 8.0);
  const auto d8 = gyro::Decomposition::choose(in, 32, 8);
  const auto inv8 = gyro::Simulation::memory_inventory(in, d8, 8);
  // Shared slice is 8× smaller than an unshared slice on the same decomp.
  const auto inv8_unshared = gyro::Simulation::memory_inventory(in, d8, 1);
  EXPECT_DOUBLE_EQ(inv8.bytes_of("cmat") * 8, inv8_unshared.bytes_of("cmat"));
}

TEST(Planner, XgyroBeatsCgyroSumOnNl03c) {
  // Closed-form version of Fig. 2: 8 members, 32 nodes.
  const auto in = gyro::Input::nl03c_like();
  const auto machine = nl03c_machine(32);
  const auto cg = plan_cgyro(in, machine);
  const auto xg = plan_xgyro(in, 8, machine);
  const double cgyro_sum = 8.0 * cg.per_report.total();
  const double xgyro = xg.per_report.total();
  EXPECT_LT(xgyro, cgyro_sum);
  const double speedup = cgyro_sum / xgyro;
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 4.0);
  // The win comes from str communication (paper: 145 s → 33 s).
  EXPECT_LT(xg.per_report.str_comm, 8.0 * cg.per_report.str_comm);
  // Collision flops are work-conserving, but sharing cmat raises the
  // kernel's arithmetic intensity k-fold: at k=1 the apply is memory-bound
  // (4 cmat bytes per 4 flops, and the machine moves bytes half as fast as
  // flops), at k=8 the batched apply streams each cell once for all 8
  // members and goes flops-bound — half the per-apply cost on this machine.
  EXPECT_LT(xg.per_report.coll, 8.0 * cg.per_report.coll);
  EXPECT_NEAR(xg.per_report.coll, 4.0 * cg.per_report.coll,
              0.05 * xg.per_report.coll);
}

TEST(Planner, PerPhaseGoldenValuesK1VsK8OnFrontierLike) {
  // Golden values for estimate_phases on the Fig. 2 operating point
  // (nl03c-like, 32-node frontier-like machine): k=1 on all 256 ranks vs
  // the 8-member ensemble at 32 ranks each. These pin the closed forms so a
  // model change shows up as an explicit golden update, and they encode the
  // paper's qualitative ordering: with shared cmat the ensemble's str
  // AllReduce, collision apply, and coll transpose all cost less than 8
  // sequential single runs.
  const auto in = gyro::Input::nl03c_like();
  const auto machine = nl03c_machine(32);
  const auto d1 = gyro::Decomposition::choose(in, 256);
  const auto d8 = gyro::Decomposition::choose(in, 32, 8);
  const auto p1 = estimate_phases(in, d1, 1, machine);
  const auto p8 = estimate_phases(in, d8, 8, machine);

  auto near = [](double value, double golden) {
    EXPECT_NEAR(value, golden, 1e-6 * golden);
  };
  near(p1.str, 0.033973862);
  // With the tuned selector the 256-rank str AllReduce prices as
  // Rabenseifner (halved payload per level) instead of the legacy ring.
  near(p1.str_comm, 0.189829120);
  near(p1.nl, 0.016515072);
  near(p1.nl_comm, 1.564120320);
  near(p1.coll, 0.271790899);
  near(p1.coll_comm, 0.313115520);
  near(p8.str, 0.271790899);
  near(p8.str_comm, 0.019977216);
  near(p8.nl, 0.132120576);
  near(p8.nl_comm, 9.491354880);
  near(p8.coll, 1.087163597);
  near(p8.coll_comm, 2.294924160);

  // Paper ordering, campaign-normalized (k=8 run vs 8 sequential k=1 runs):
  // str_comm collapses (the shared-cmat AllReduce), coll halves (batched
  // apply goes flops-bound), the coll transpose shrinks.
  EXPECT_LT(p8.str_comm, 8.0 * p1.str_comm);
  EXPECT_LT(p8.coll, 8.0 * p1.coll);
  EXPECT_LT(p8.coll_comm, 8.0 * p1.coll_comm);
}

TEST(ClosedForm, PerAlgorithmGoldenValuesAt256Nodes) {
  // Per-algorithm golden values at the node_scaling sweep's largest point
  // (frontier-like, 256 nodes = 2048 ranks, 512 KiB — the nl03c field
  // payload). One hierarchical and one flat algorithm per collective pin
  // the cost formulas the --perfmodel-check divergence gate relies on, and
  // encode the tuned table's reasons: the hierarchical bcast pays one
  // inter-node hop per tree level instead of log2(p) full-price rounds, and
  // Rabenseifner's halved payload per level beats the ring's 2(P-1) rounds
  // by two orders of magnitude at this scale.
  const auto spec = net::frontier_like(256);
  const int p = spec.total_ranks();
  ASSERT_EQ(p, 2048);
  const std::uint64_t bytes = 512 * 1024;
  using K = mpi::TraceEvent::Kind;
  auto near = [](double value, double golden) {
    EXPECT_NEAR(value, golden, 1e-6 * golden);
  };
  const double bcast_hier = estimate_coll(spec, K::kBcast,
                                          mpi::CollAlg::kHierarchical, p,
                                          bytes, true);
  const double bcast_flat = estimate_coll(spec, K::kBcast,
                                          mpi::CollAlg::kBinomial, p, bytes,
                                          true);
  near(bcast_hier, 0.000291229440);
  near(bcast_flat, 0.000571373440);
  EXPECT_LT(bcast_hier, bcast_flat);

  const double ar_rab = estimate_coll(spec, K::kAllReduce,
                                      mpi::CollAlg::kRabenseifner, p, bytes,
                                      true);
  const double ar_ring = estimate_coll(spec, K::kAllReduce,
                                       mpi::CollAlg::kRing, p, bytes, true);
  near(ar_rab, 0.000303845120);
  near(ar_ring, 0.041023845120);
  EXPECT_LT(ar_rab, ar_ring);

  // kAuto resolves through the tuned table: the allreduce estimate equals
  // the Rabenseifner formula at this (bytes, p, spans) key.
  EXPECT_DOUBLE_EQ(estimate_coll(spec, K::kAllReduce, mpi::CollAlg::kAuto, p,
                                 bytes, true),
                   ar_rab);
}

TEST(Planner, PhaseEstimatesTrackDesWithinFactorThree) {
  // The closed forms are navigation aids, not truth — but they must stay in
  // the DES's ballpark at a small operating point so the capacity planner
  // gives sane advice. (Machine small enough to run the DES quickly.)
  gyro::Input in = gyro::Input::small_test(2);
  in.n_radial = 16;
  in.n_theta = 8;
  in.n_steps_per_report = 3;
  const auto machine = net::frontier_like(2);  // 16 ranks
  const auto plan = plan_cgyro(in, machine);
  xgyro::JobOptions opts;
  opts.mode = gyro::Mode::kModel;
  const auto des = xgyro::run_cgyro_job(in, machine, 16, opts);
  const double des_total = xgyro::report_step_seconds(des);
  EXPECT_GT(plan.per_report.total(), des_total / 3.0);
  EXPECT_LT(plan.per_report.total(), des_total * 3.0);
  const double des_str_comm = xgyro::phase_seconds(des, "str_comm");
  if (des_str_comm > 0) {
    EXPECT_GT(plan.per_report.str_comm, des_str_comm / 3.0);
    EXPECT_LT(plan.per_report.str_comm, des_str_comm * 3.0);
  }
}

TEST(Planner, DescribeMentionsKeyFields) {
  const auto in = gyro::Input::nl03c_like();
  const auto p = plan_xgyro(in, 8, nl03c_machine(32));
  const auto s = p.describe();
  EXPECT_NE(s.find("XGYRO"), std::string::npos);
  EXPECT_NE(s.find("k=8"), std::string::npos);
  EXPECT_NE(s.find("str_comm"), std::string::npos);
}

TEST(Planner, RejectsIndivisibleEnsemble) {
  const auto in = gyro::Input::nl03c_like();
  EXPECT_THROW(plan_xgyro(in, 7, nl03c_machine(32)), Error);
}

TEST(QueueWait, EstimateIsMonotoneAndGuarded) {
  // Empty backlog waits nothing; otherwise backlog drains at full cluster
  // utilization (the admission-time lower bound the service reports).
  EXPECT_DOUBLE_EQ(estimate_queue_wait(0.0, 4), 0.0);
  EXPECT_DOUBLE_EQ(estimate_queue_wait(-1.0, 4), 0.0);
  EXPECT_DOUBLE_EQ(estimate_queue_wait(100.0, 4), 25.0);
  EXPECT_GT(estimate_queue_wait(200.0, 4), estimate_queue_wait(100.0, 4));
  EXPECT_LT(estimate_queue_wait(100.0, 8), estimate_queue_wait(100.0, 4));
  EXPECT_THROW(estimate_queue_wait(1.0, 0), Error);
}

TEST(WaitCalibrationGate, SmallOrQuietSamplesReportButNeverGate) {
  // 4 wildly wrong predictions: under the sample-count cut.
  const WaitCalibration few = calibrate_queue_wait(
      {100.0, 100.0, 100.0, 100.0}, {2.0, 2.0, 2.0, 2.0});
  EXPECT_FALSE(few.significant);
  EXPECT_TRUE(few.pass);
  EXPECT_EQ(few.n, 4);

  // 20 wrong predictions of waits in the noise: under the mean-wait cut.
  std::vector<double> pred(20, 5.0), real(20, 0.1);
  const WaitCalibration quiet = calibrate_queue_wait(pred, real);
  EXPECT_FALSE(quiet.significant);
  EXPECT_TRUE(quiet.pass);
  EXPECT_LT(quiet.mean_realized_s, kWaitCalibrationMinMeanWaitS);
}

TEST(WaitCalibrationGate, AccurateLowerBoundPasses) {
  // Predictions sit just under the realized waits, as a lower bound
  // should: tight ratio, full coverage.
  std::vector<double> pred, real;
  for (int i = 0; i < 20; ++i) {
    real.push_back(8.0 + 0.25 * i);
    pred.push_back(real.back() - 0.5);
  }
  const WaitCalibration c = calibrate_queue_wait(pred, real);
  EXPECT_TRUE(c.significant);
  EXPECT_TRUE(c.pass);
  EXPECT_NEAR(c.mae_s, 0.5, 1e-12);
  EXPECT_NEAR(c.bias_s, -0.5, 1e-12);
  EXPECT_DOUBLE_EQ(c.coverage, 1.0);
  EXPECT_LT(c.ratio, 0.1);
}

TEST(WaitCalibrationGate, OverpredictionTripsBothCuts) {
  // Predictions far above the realized waits: ratio blows the tolerance
  // and coverage collapses (the lower-bound property is gone).
  std::vector<double> pred(20, 30.0), real(20, 10.0);
  const WaitCalibration c = calibrate_queue_wait(pred, real);
  EXPECT_TRUE(c.significant);
  EXPECT_FALSE(c.pass);
  EXPECT_GT(c.ratio, kDefaultWaitTolerance);
  EXPECT_DOUBLE_EQ(c.coverage, 0.0);
}

TEST(WaitCalibrationGate, LowCoverageTripsTheGateAlone) {
  // Half the predictions sit just above the realized wait: the error is
  // small (ratio 0.05), but the lower-bound property holds for only half
  // the requests, under the coverage cut.
  std::vector<double> pred, real(20, 10.0);
  for (int i = 0; i < 20; ++i) pred.push_back(i % 2 == 0 ? 10.5 : 9.5);
  const WaitCalibration c = calibrate_queue_wait(pred, real);
  EXPECT_TRUE(c.significant);
  EXPECT_NEAR(c.ratio, 0.05, 1e-12);
  EXPECT_LE(c.ratio, kDefaultWaitTolerance);
  EXPECT_DOUBLE_EQ(c.coverage, 0.5);
  EXPECT_LT(c.coverage, kDefaultWaitMinCoverage);
  EXPECT_FALSE(c.pass);
  EXPECT_DOUBLE_EQ(c.min_coverage, kDefaultWaitMinCoverage);
}

TEST(WaitCalibrationGate, RejectsMismatchedVectors) {
  EXPECT_THROW(calibrate_queue_wait({1.0, 2.0}, {1.0}), InputError);
  const WaitCalibration empty = calibrate_queue_wait({}, {});
  EXPECT_EQ(empty.n, 0);
  EXPECT_TRUE(empty.pass);
  EXPECT_FALSE(empty.significant);
}

TEST(FastPathAuditGate, SmallOrQuietSamplesReportButNeverGate) {
  // Two wildly divergent audits: under the sample-count cut.
  const AuditGate few = audit_fast_path({1.0, 1.0}, {10.0, 10.0});
  EXPECT_EQ(few.n, 2);
  EXPECT_FALSE(few.significant);
  EXPECT_TRUE(few.pass);
  EXPECT_DOUBLE_EQ(few.worst_ratio, 10.0);

  // Audited costs down in the noise: under the mean-measured cut.
  const AuditGate quiet =
      audit_fast_path({1e-8, 1e-8, 1e-8, 1e-8}, {1e-7, 1e-7, 1e-7, 1e-7});
  EXPECT_FALSE(quiet.significant);
  EXPECT_TRUE(quiet.pass);
  EXPECT_LT(quiet.mean_measured_s, kAuditMinMeanMeasuredS);

  const AuditGate empty = audit_fast_path({}, {});
  EXPECT_EQ(empty.n, 0);
  EXPECT_TRUE(empty.pass);
  EXPECT_FALSE(empty.significant);
}

TEST(FastPathAuditGate, AccuratePricesPassAndStatsAreExact) {
  // Prices within a few percent of the audited costs, both directions:
  // the ratio is symmetric (max/min), so under- and over-pricing gate
  // alike.
  const AuditGate g = audit_fast_path({1.0, 2.0, 4.2}, {1.1, 1.9, 4.2});
  EXPECT_EQ(g.n, 3);
  EXPECT_TRUE(g.significant);
  EXPECT_TRUE(g.pass);
  EXPECT_NEAR(g.worst_ratio, 1.1, 1e-12);
  EXPECT_NEAR(g.mean_price_s, 7.2 / 3.0, 1e-12);
  EXPECT_NEAR(g.mean_measured_s, 7.2 / 3.0, 1e-12);
  EXPECT_GE(g.mean_ratio, 1.0);
  EXPECT_LE(g.mean_ratio, g.worst_ratio);
  EXPECT_DOUBLE_EQ(g.tolerance, kDefaultAuditTolerance);
}

TEST(FastPathAuditGate, SingleDivergentJobTripsTheGate) {
  // The gate is a worst-case cut, not an average: one job drifting past
  // the tolerance fails the whole stream even if the mean looks fine.
  const AuditGate g =
      audit_fast_path({1.0, 1.0, 1.0, 1.0}, {1.0, 1.0, 1.0, 3.5});
  EXPECT_TRUE(g.significant);
  EXPECT_FALSE(g.pass);
  EXPECT_NEAR(g.worst_ratio, 3.5, 1e-12);
  EXPECT_LT(g.mean_ratio, kDefaultAuditTolerance);
}

TEST(FastPathAuditGate, ZeroPairsCountAsAgreement) {
  // A job whose price and audited cost both vanish contributes ratio 1
  // (perfect agreement), not a division by zero.
  const AuditGate g = audit_fast_path({0.0, 2.0, 2.0}, {0.0, 2.0, 2.0});
  EXPECT_TRUE(g.pass);
  EXPECT_DOUBLE_EQ(g.worst_ratio, 1.0);
  EXPECT_DOUBLE_EQ(g.mean_ratio, 1.0);
}

TEST(FastPathAuditGate, RejectsMismatchedOrOneSidedSamples) {
  EXPECT_THROW(audit_fast_path({1.0, 2.0}, {1.0}), InputError);
  // One side vanished: the model priced work the DES never ran (or vice
  // versa) — that is a bug upstream, not a divergence to average away.
  EXPECT_THROW(audit_fast_path({0.0}, {1.0}), InputError);
  EXPECT_THROW(audit_fast_path({1.0}, {0.0}), InputError);
}

}  // namespace
}  // namespace xg::perfmodel
