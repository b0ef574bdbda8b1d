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

}  // namespace xg::campaign
