// Campaign planner/executor tests: batching choices under memory pressure,
// group handling, and end-to-end correctness of the executed jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>

#include "campaign/campaign.hpp"
#include "perfmodel/perfmodel.hpp"
#include "simnet/machine.hpp"
#include "xgyro/driver.hpp"

namespace xg::campaign {
namespace {

using gyro::Input;
using gyro::Mode;

CampaignSpec small_spec(int k, int nodes, int rpn) {
  CampaignSpec spec;
  spec.members = xgyro::EnsembleInput::sweep(
      Input::small_test(2), k, [](Input& in, int i) {
        in.species[0].a_ln_t = 2.0 + 0.25 * i;
        in.tag = "m" + std::to_string(i);
      });
  spec.machine = net::testbox(nodes, rpn);
  return spec;
}

TEST(Planner, BatchesWholeGroupWhenMemoryAllows) {
  // Plenty of memory: the cheapest plan is everything in one XGYRO job
  // (fewer sequential jobs, cheaper str comm per member).
  const auto spec = small_spec(4, 2, 8);  // 16 ranks, 4 GB each
  const auto plan = plan_campaign(spec);
  ASSERT_EQ(plan.jobs.size(), 1u);
  EXPECT_EQ(plan.jobs[0].k(), 4);
  EXPECT_EQ(plan.jobs[0].ranks_per_sim, 4);
  EXPECT_GT(plan.predicted_total_seconds, 0.0);
  const auto text = plan.describe();
  EXPECT_NE(text.find("k=4"), std::string::npos);
}

TEST(Planner, MemoryPressureForcesSmallerBatches) {
  // Set the per-rank budget between the k=1 and k=2 per-rank needs: only
  // unbatched jobs are feasible and the planner must fall back to them,
  // regardless of what the cost model would prefer.
  auto spec = small_spec(4, 2, 8);
  const auto& input = spec.members.members[0];
  const double need_k1 =
      gyro::Simulation::memory_inventory(
          input, gyro::Decomposition::choose(input, 16, 1), 1)
          .total_bytes();
  const double need_k2 =
      gyro::Simulation::memory_inventory(
          input, gyro::Decomposition::choose(input, 8, 2), 2)
          .total_bytes();
  ASSERT_GT(need_k2, need_k1);  // batching grows per-rank state
  spec.machine.rank_memory_bytes = 0.5 * (need_k1 + need_k2);
  const auto plan = plan_campaign(spec);
  ASSERT_EQ(plan.jobs.size(), 4u);
  for (const auto& job : plan.jobs) EXPECT_EQ(job.k(), 1);
}

TEST(Planner, ThrowsWhenNothingFits) {
  auto spec = small_spec(2, 1, 2);
  spec.machine.rank_memory_bytes = 1024;  // nothing fits
  EXPECT_THROW(plan_campaign(spec), Error);
}

TEST(Planner, MixedGroupsPlannedIndependently) {
  CampaignSpec spec;
  Input a = Input::small_test(2);
  Input b = a;
  b.collision.nu_ee *= 2.0;  // second sharing group
  spec.members.members = {a, a, b, b};
  spec.members.members[1].species[0].a_ln_t = 4.0;
  spec.members.members[3].species[0].a_ln_t = 4.0;
  spec.machine = net::testbox(2, 8);
  const auto plan = plan_campaign(spec);
  // Whatever batch size the cost model favors, jobs must never mix sharing
  // groups, and every member must be scheduled exactly once.
  std::vector<int> seen;
  for (const auto& job : plan.jobs) {
    const std::uint64_t fp =
        spec.members.members[job.member_indices.front()].cmat_fingerprint();
    for (const int m : job.member_indices) {
      EXPECT_EQ(spec.members.members[m].cmat_fingerprint(), fp)
          << "job mixes sharing groups";
      seen.push_back(m);
    }
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

// plan_batch_exact prices exactly k members on the whole machine; whenever
// it answers, its layout and cost are plan_xgyro's for the same arguments.
void expect_matches_plan_xgyro(const GroupBatch& gb, const Input& input,
                               const net::MachineSpec& machine) {
  const auto p = perfmodel::plan_xgyro(input, gb.k, machine);
  EXPECT_TRUE(p.fit.fits);
  EXPECT_EQ(gb.ranks_per_sim, p.ranks_per_sim);
  EXPECT_EQ(gb.decomp.pv, p.decomp.pv);
  EXPECT_EQ(gb.decomp.pt, p.decomp.pt);
  EXPECT_EQ(gb.predicted_seconds, p.per_report.total());
}

TEST(Planner, BatchExactFeasibleKIsPlanXgyro) {
  const Input input = Input::small_test(2);
  const auto machine = net::testbox(2, 8);
  for (const int k : {1, 2, 4}) {
    const auto gb = plan_batch_exact(input, k, machine);
    ASSERT_TRUE(gb.has_value()) << "k=" << k;
    EXPECT_EQ(gb->k, k);
    EXPECT_EQ(gb->ranks_per_sim, 16 / k);
    expect_matches_plan_xgyro(*gb, input, machine);
  }
}

TEST(Planner, BatchExactRejectsKNotDividingTheRanks) {
  // 16 ranks split into 3 or 5 equal members is impossible.
  const Input input = Input::small_test(2);
  EXPECT_FALSE(plan_batch_exact(input, 3, net::testbox(2, 8)).has_value());
  EXPECT_FALSE(plan_batch_exact(input, 5, net::testbox(2, 8)).has_value());
}

TEST(Planner, BatchExactRejectsGridWithoutDecomposition) {
  // nc = 16 never divides by 3·pv: 12 ranks do split into 3 members, but no
  // (pv, pt) suits the grid, so the planner itself refuses.
  const Input input = Input::small_test(2);
  const auto machine = net::testbox(3, 4);
  EXPECT_THROW(perfmodel::plan_xgyro(input, 3, machine), Error);
  EXPECT_FALSE(plan_batch_exact(input, 3, machine).has_value());
}

TEST(Planner, BatchExactRejectsMemoryOverflow) {
  const Input input = Input::small_test(2);
  auto machine = net::testbox(2, 8);
  machine.rank_memory_bytes = 1024;
  EXPECT_FALSE(perfmodel::plan_xgyro(input, 2, machine).fit.fits);
  EXPECT_FALSE(plan_batch_exact(input, 2, machine).has_value());
  EXPECT_FALSE(plan_group(input, 4, machine).has_value());
}

TEST(Planner, PlanGroupPicksTheCheapestDivisor) {
  // A group of 6 on 16 ranks: k = 3 and k = 6 divide the group but not the
  // ranks, so only k = 1 and k = 2 compete, priced as jobs × seconds.
  const Input input = Input::small_test(2);
  for (const auto& machine : {net::testbox(2, 8), net::testbox(1, 2)}) {
    for (const int group : {1, 4, 6}) {
      std::optional<GroupBatch> want;
      for (int k = 1; k <= group; ++k) {
        if (group % k != 0) continue;
        const auto gb = plan_batch_exact(input, k, machine);
        if (gb && (!want || (group / k) * gb->predicted_seconds <
                                (group / want->k) * want->predicted_seconds)) {
          want = gb;
        }
      }
      const auto got = plan_group(input, group, machine);
      ASSERT_EQ(got.has_value(), want.has_value()) << "group " << group;
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(got->k, want->k) << "group " << group;
      expect_matches_plan_xgyro(*got, input, machine);
    }
  }
}

TEST(Executor, RunsPlanAndReportsEveryMember) {
  const auto spec = small_spec(4, 2, 8);
  const auto plan = plan_campaign(spec);
  const auto result = run_campaign(spec, plan, Mode::kReal);
  ASSERT_EQ(result.members.size(), 4u);
  ASSERT_EQ(result.job_runs.size(), plan.jobs.size());
  for (const auto& m : result.members) {
    EXPECT_GE(m.member, 0);
    EXPECT_LT(m.member, 4);
    EXPECT_GT(m.diagnostics.phi_rms, 0.0);
    EXPECT_EQ(m.diagnostics.steps, spec.members.members[0].n_steps_per_report);
  }
  EXPECT_GT(result.total_report_seconds(), 0.0);
}

TEST(Executor, BatchedCampaignBeatsSequentialOnFrontier) {
  // The paper's bottom line, end to end through the planner: on the
  // Frontier-like machine the batched plan must beat forced k=1.
  CampaignSpec spec;
  gyro::Input base = gyro::Input::small_test(2);
  base.n_radial = 16;
  base.n_theta = 8;
  base.n_steps_per_report = 5;
  spec.members = xgyro::EnsembleInput::sweep(
      base, 4, [](Input& in, int i) { in.species[0].a_ln_t = 2.0 + 0.1 * i; });
  spec.machine = net::testbox(8, 4);  // 32 ranks, CGYRO pv=8 spans 2 nodes

  const auto plan = plan_campaign(spec);
  const auto batched = run_campaign(spec, plan, Mode::kModel);

  CampaignPlan sequential;
  for (int m = 0; m < 4; ++m) {
    JobPlan job;
    job.member_indices = {m};
    job.ranks_per_sim = spec.machine.total_ranks();
    job.decomp = gyro::Decomposition::choose(base, job.ranks_per_sim, 1);
    sequential.jobs.push_back(job);
  }
  const auto seq = run_campaign(spec, sequential, Mode::kModel);

  EXPECT_LT(batched.total_report_seconds(), seq.total_report_seconds());
}

TEST(Executor, RecoveryExhaustionYieldsPartialResultWithHistory) {
  // Two sharing groups -> two jobs with very different makespans: the kill
  // times land inside the heavy job but beyond the light one, so only the
  // heavy job burns its recovery budget. The campaign must come back as a
  // partial CampaignResult — the structured failure AND the recovery that
  // did succeed on record, and the light job's member still reported.
  CampaignSpec spec;
  Input heavy = Input::small_test(2);
  heavy.n_steps_per_report = 8;
  Input light = Input::small_test(2);
  light.n_steps_per_report = 1;
  light.collision.nu_ee *= 2.0;  // distinct fingerprint -> its own job
  spec.members.members = {heavy, light};
  spec.machine = net::testbox(2, 4);
  const auto plan = plan_campaign(spec);
  ASSERT_EQ(plan.jobs.size(), 2u);
  int heavy_job = plan.jobs[0].member_indices[0] == 0 ? 0 : 1;

  // Calibrate against a clean run: kills fire mid-heavy-job, after the
  // light job would already be done.
  const auto clean = run_campaign(spec, plan, Mode::kReal);
  const double t_heavy = clean.job_runs[heavy_job].makespan_s;
  const double t_light = clean.job_runs[1 - heavy_job].makespan_s;
  ASSERT_GT(t_heavy, 1.2 * t_light);
  const double t_kill = 0.5 * (t_heavy + t_light);

  RecoveryOptions opts;
  opts.max_recoveries = 1;
  opts.faults.add_kill(0, t_kill);
  // Armed for the retry: after the first recovery drops rank 0's node the
  // survivors replan (slower), so this fires in the second attempt and
  // exhausts the budget.
  opts.faults.add_kill(1, t_kill * 1.01);
  const auto res = run_campaign_elastic(spec, plan, Mode::kReal, opts);

  EXPECT_FALSE(res.complete());
  ASSERT_EQ(res.failures.size(), 1u);
  EXPECT_EQ(res.failures[0].job, heavy_job);
  EXPECT_EQ(res.failures[0].kind, "rank_failure");
  EXPECT_FALSE(res.failures[0].reason.empty());
  ASSERT_EQ(res.recoveries.size(), 1u);
  EXPECT_EQ(res.recoveries[0].job, heavy_job);
  EXPECT_EQ(res.recoveries[0].kind, "rank_failure");
  EXPECT_EQ(res.recoveries[0].world_rank, 0);

  // The surviving job still ran to completion.
  ASSERT_EQ(res.job_runs.size(), 1u);
  ASSERT_EQ(res.members.size(), 1u);
  EXPECT_EQ(res.members[0].member, 1);  // the light member
  EXPECT_EQ(res.members[0].diagnostics.steps, 1);
}

}  // namespace
}  // namespace xg::campaign
