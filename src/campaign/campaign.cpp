#include "campaign/campaign.hpp"

#include <optional>

#include "perfmodel/perfmodel.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "xgyro/driver.hpp"

namespace xg::campaign {

std::optional<GroupBatch> plan_batch_exact(const gyro::Input& input, int k,
                                           const net::MachineSpec& machine,
                                           const mpi::CollSelector* selector) {
  XG_REQUIRE(k >= 1, "plan_batch_exact: empty batch");
  if (machine.total_ranks() % k != 0) return std::nullopt;
  perfmodel::PlanPoint p;
  try {
    p = perfmodel::plan_xgyro(input, k, machine, selector);
  } catch (const Error&) {
    return std::nullopt;  // no (pv, pt) suits the grid
  }
  if (!p.fit.fits) return std::nullopt;
  return GroupBatch{k, p.ranks_per_sim, p.decomp, p.per_report.total()};
}

std::optional<GroupBatch> plan_group(const gyro::Input& input, int group_size,
                                     const net::MachineSpec& machine,
                                     const mpi::CollSelector* selector) {
  XG_REQUIRE(group_size >= 1, "plan_group: empty group");
  // Best k: minimize (#jobs × predicted seconds per job).
  std::optional<GroupBatch> best;
  double best_cost = 0.0;
  for (int k = 1; k <= group_size; ++k) {
    if (group_size % k != 0) continue;
    const auto gb = plan_batch_exact(input, k, machine, selector);
    if (!gb.has_value()) continue;
    const double cost = (group_size / k) * gb->predicted_seconds;
    if (!best.has_value() || cost < best_cost) {
      best = gb;
      best_cost = cost;
    }
  }
  return best;
}

CampaignPlan plan_campaign(const CampaignSpec& spec) {
  XG_REQUIRE(spec.members.n_sims() >= 1, "plan_campaign: empty campaign");
  CampaignPlan plan;
  for (const auto& group : spec.members.sharing_groups()) {
    const auto& input = spec.members.members[group.front()];
    const int g = static_cast<int>(group.size());
    const auto best = plan_group(input, g, spec.machine);
    if (!best.has_value()) {
      throw Error(strprintf(
          "campaign: no feasible batching for sharing group of %d member(s) "
          "('%s') on %d nodes — even a single simulation does not fit",
          g, input.tag.c_str(), spec.machine.n_nodes));
    }
    for (int j = 0; j < g / best->k; ++j) {
      JobPlan job;
      job.member_indices.assign(group.begin() + j * best->k,
                                group.begin() + (j + 1) * best->k);
      job.ranks_per_sim = best->ranks_per_sim;
      job.decomp = best->decomp;
      job.predicted_seconds = best->predicted_seconds;
      plan.predicted_total_seconds += best->predicted_seconds;
      plan.jobs.push_back(std::move(job));
    }
  }
  return plan;
}

std::string CampaignPlan::describe() const {
  std::string out = strprintf("campaign plan: %zu job(s), predicted %.3f s "
                              "per reporting step total\n",
                              jobs.size(), predicted_total_seconds);
  for (size_t j = 0; j < jobs.size(); ++j) {
    const auto& job = jobs[j];
    out += strprintf("  job %zu: k=%d members [", j, job.k());
    for (size_t i = 0; i < job.member_indices.size(); ++i) {
      out += strprintf("%s%d", i ? " " : "", job.member_indices[i]);
    }
    out += strprintf("] %d ranks/sim (pv=%d pt=%d), predicted %.3f s\n",
                     job.ranks_per_sim, job.decomp.pv, job.decomp.pt,
                     job.predicted_seconds);
  }
  return out;
}

xgyro::JobResult run_job_elastic(const xgyro::EnsembleInput& batch,
                                 const net::MachineSpec& machine,
                                 int ranks_per_sim, int n_report_intervals,
                                 gyro::Mode mode, const RecoveryOptions& opts) {
  xgyro::JobOptions options = opts;
  options.n_report_intervals = n_report_intervals;
  options.mode = mode;
  return xgyro::run_job(batch, machine, ranks_per_sim, options);
}

CampaignResult run_campaign_elastic(const CampaignSpec& spec,
                                    const CampaignPlan& plan, gyro::Mode mode,
                                    const RecoveryOptions& opts) {
  CampaignResult result;
  result.plan = plan;
  for (size_t j = 0; j < plan.jobs.size(); ++j) {
    const auto& job = plan.jobs[j];
    xgyro::EnsembleInput batch;
    for (const int m : job.member_indices) {
      batch.members.push_back(spec.members.members[m]);
    }
    RecoveryOptions jopts = opts;
    if (!opts.checkpoint_dir.empty()) {
      jopts.checkpoint_dir =
          opts.checkpoint_dir + strprintf("/job-%zu", j);
    }
    xgyro::JobResult r;
    try {
      r = run_job_elastic(batch, spec.machine, job.ranks_per_sim,
                          spec.n_report_intervals, mode, jopts);
    } catch (const JobAborted& e) {
      // Keep the failed job's recovery history and move on: the caller gets
      // a partial CampaignResult instead of losing the whole campaign.
      JobFailure f;
      f.job = static_cast<int>(j);
      f.kind = e.kind();
      f.reason = e.reason();
      f.world_rank = e.world_rank();
      f.virtual_time_s = e.virtual_time_s();
      f.phase = e.phase();
      f.message = e.what();
      result.failures.push_back(std::move(f));
      for (auto ev : e.recoveries()) {
        ev.job = static_cast<int>(j);
        result.recoveries.push_back(std::move(ev));
      }
      result.snapshots_committed += e.snapshots_committed();
      result.snapshots_rejected += e.snapshots_rejected();
      continue;
    }
    result.job_runs.push_back(std::move(r.run));
    for (size_t i = 0; i < batch.members.size(); ++i) {
      result.members.push_back(
          {job.member_indices[i], static_cast<int>(j), r.diagnostics[i]});
    }
    for (auto& ev : r.recoveries) {
      ev.job = static_cast<int>(j);
      result.recoveries.push_back(std::move(ev));
    }
    result.snapshots_committed += r.snapshots_committed;
    result.snapshots_rejected += r.snapshots_rejected;
  }
  return result;
}

CampaignResult run_campaign(const CampaignSpec& spec, const CampaignPlan& plan,
                            gyro::Mode mode) {
  return run_campaign_elastic(spec, plan, mode, {});
}

double CampaignResult::total_report_seconds() const {
  double total = 0.0;
  for (const auto& run : job_runs) {
    total += xgyro::report_step_seconds(run);
  }
  return total;
}

}  // namespace xg::campaign
