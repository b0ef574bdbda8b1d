// Campaign planning: the user-facing payoff of the paper.
//
// A fusion study is a pile of simulations and a node allocation. This module
// decides how to run them — how many members to batch per XGYRO job, per
// cmat-sharing group, subject to memory feasibility ("the net result is more
// simulations completed on the same compute budget"). Each planned job runs
// through xgyro::run_job (examples/campaign_demo loops it over plan.jobs);
// the online CampaignService (service.hpp) runs a request stream on the same
// planner.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "gyro/simulation.hpp"
#include "simnet/machine.hpp"
#include "util/error.hpp"
#include "xgyro/driver.hpp"
#include "xgyro/ensemble.hpp"

namespace xg::campaign {

struct CampaignSpec {
  xgyro::EnsembleInput members;  ///< every simulation the study needs
  net::MachineSpec machine;      ///< the fixed allocation to run on
};

/// One scheduled job: a subset of members sharing cmat, run concurrently.
struct JobPlan {
  std::vector<int> member_indices;  ///< indices into CampaignSpec::members
  int ranks_per_sim = 0;
  gyro::Decomposition decomp;
  double predicted_seconds = 0.0;  ///< closed-form time per report interval

  [[nodiscard]] int k() const { return static_cast<int>(member_indices.size()); }
};

struct CampaignPlan {
  std::vector<JobPlan> jobs;  ///< run one after another
  double predicted_total_seconds = 0.0;

  [[nodiscard]] std::string describe() const;
};

/// Best way to batch one cmat-sharing group of `group_size` members with
/// `input`'s physics on `machine`: the batch size k minimizing
/// (#jobs × predicted seconds per job) subject to
///   * k divides the group size and the machine's rank count,
///   * a valid (pv, pt) decomposition exists for nc % (k·pv) == 0,
///   * the per-rank memory inventory fits the machine.
struct GroupBatch {
  int k = 0;
  int ranks_per_sim = 0;
  gyro::Decomposition decomp;
  double predicted_seconds = 0.0;  ///< per report interval, per job
};

/// Returns the optimal GroupBatch — plan_batch_exact's answer for the best
/// divisor k — or nothing when even k = 1 cannot run (no decomposition, or
/// a single simulation overflows the memory budget).
/// Shared by plan_campaign below and the online campaign service, so
/// both realize the same grouping given the same members and machine.
/// predicted_seconds prices the built-in tuned collective table, the one
/// every job runs with.
std::optional<GroupBatch> plan_group(const gyro::Input& input, int group_size,
                                     const net::MachineSpec& machine);

/// Feasibility + predicted cost of running EXACTLY k members of `input`'s
/// physics as one job on the whole machine (no splitting into smaller
/// jobs, unlike plan_group): perfmodel::plan_xgyro's decomposition and
/// per-interval total. Nothing when k does not divide the machine's rank
/// count, no decomposition exists, or the memory does not fit. The
/// online service uses this to consider uneven batch splits (e.g. a batch
/// of 3 as one k=2 job plus one k=1 job on a 2^n-rank machine).
std::optional<GroupBatch> plan_batch_exact(const gyro::Input& input, int k,
                                           const net::MachineSpec& machine);

/// Greedy planner: members are grouped by cmat fingerprint; each group is
/// batched per plan_group and chunked into group_size/k jobs. k = 1
/// degenerates to plain sequential CGYRO, so a plan always exists if a
/// single simulation fits at all. Throws xg::Error when even k = 1 cannot
/// run.
CampaignPlan plan_campaign(const CampaignSpec& spec);

using xgyro::JobAborted;
using xgyro::RecoveryEvent;

/// The job runner's options with three recoveries allowed per job.
/// n_report_intervals and mode are ignored: run_job_elastic takes them as
/// arguments. Kept, with run_job_elastic, only for the host-cost
/// benchmark's ensemble_real reference run (perfbench/); every other caller
/// uses xgyro::run_job. The next change to the benchmark moves that run onto
/// xgyro::run_job and deletes both.
struct RecoveryOptions : xgyro::JobOptions {
  RecoveryOptions() { max_recoveries = 3; }
};

/// xgyro::run_job with the interval count and mode given explicitly.
xgyro::JobResult run_job_elastic(const xgyro::EnsembleInput& batch,
                                 const net::MachineSpec& machine,
                                 int ranks_per_sim, int n_report_intervals,
                                 gyro::Mode mode,
                                 const RecoveryOptions& opts = {});

}  // namespace xg::campaign
