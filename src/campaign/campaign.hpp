// Campaign planning and execution: the user-facing payoff of the paper.
//
// A fusion study is a pile of simulations and a node allocation. This module
// decides how to run them — how many members to batch per XGYRO job, per
// cmat-sharing group, subject to memory feasibility — and then executes the
// resulting job sequence over the simulated machine, collecting per-member
// diagnostics and the campaign cost the paper's Fig. 2 compares ("the net
// result is more simulations completed on the same compute budget").
#pragma once

#include <cstdint>
#include <memory>
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
  int n_report_intervals = 1;
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
  std::vector<JobPlan> jobs;  ///< executed sequentially
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
/// Shared by the offline planner below and the online campaign service, so
/// both realize the same grouping given the same members and machine.
/// `selector` makes predicted_seconds selector-aware (nullptr = built-in
/// tuned table) — pass the decision table the jobs will actually run with
/// so the service's fast path prices the same schedules the DES executes.
std::optional<GroupBatch> plan_group(const gyro::Input& input, int group_size,
                                     const net::MachineSpec& machine,
                                     const mpi::CollSelector* selector =
                                         nullptr);

/// Feasibility + predicted cost of running EXACTLY k members of `input`'s
/// physics as one job on the whole machine (no splitting into smaller
/// jobs, unlike plan_group): perfmodel::plan_xgyro's decomposition and
/// per-interval total. Nothing when k does not divide the machine's rank
/// count, no decomposition exists, or the memory does not fit. The
/// online service uses this to consider uneven batch splits (e.g. a batch
/// of 3 as one k=2 job plus one k=1 job on a 2^n-rank machine).
std::optional<GroupBatch> plan_batch_exact(const gyro::Input& input, int k,
                                           const net::MachineSpec& machine,
                                           const mpi::CollSelector* selector =
                                               nullptr);

/// Greedy planner: members are grouped by cmat fingerprint; each group is
/// batched per plan_group and chunked into group_size/k jobs. k = 1
/// degenerates to plain sequential CGYRO, so a plan always exists if a
/// single simulation fits at all. Throws xg::Error when even k = 1 cannot
/// run.
CampaignPlan plan_campaign(const CampaignSpec& spec);

struct MemberResult {
  int member = -1;
  int job = -1;
  gyro::Diagnostics diagnostics;
};

using xgyro::JobAborted;
using xgyro::RecoveryEvent;

/// One job the elastic executor gave up on: the terminal failure after the
/// recovery budget ran out (or the surviving allocation could no longer
/// host the job). The campaign keeps going — remaining jobs still run.
struct JobFailure {
  int job = -1;                 ///< campaign job index
  std::string kind;             ///< "rank_failure" or "deadlock"
  std::string reason;           ///< why recovery stopped
  int world_rank = -1;
  double virtual_time_s = 0.0;
  std::string phase;
  std::string message;          ///< full diagnostic text
};

struct CampaignResult {
  CampaignPlan plan;
  std::vector<mpi::RunResult> job_runs;  ///< one DES result per completed job
  std::vector<MemberResult> members;     ///< diagnostics per completed member

  // Elastic-executor accounting (empty/zero for a fault-free campaign).
  std::vector<RecoveryEvent> recoveries;
  std::vector<JobFailure> failures;      ///< jobs the executor gave up on
  std::uint64_t snapshots_committed = 0;
  std::uint64_t snapshots_rejected = 0;  ///< corrupt snapshots skipped

  /// True when every planned job completed (no structured failures).
  [[nodiscard]] bool complete() const { return failures.empty(); }

  /// Campaign cost: Σ over jobs of seconds-per-reporting-step (the Fig. 2
  /// quantity; init time excluded, as in the paper).
  [[nodiscard]] double total_report_seconds() const;
};

/// Options of the elastic executor: the job runner's options with three
/// recoveries allowed per job. n_report_intervals and mode are ignored —
/// run_job_elastic takes them as arguments, run_campaign_elastic from the
/// spec. run_campaign_elastic nests per-job snapshots under
/// <checkpoint_dir>/job-<j>.
struct RecoveryOptions : xgyro::JobOptions {
  RecoveryOptions() { max_recoveries = 3; }
};

/// xgyro::run_job with the interval count and mode given explicitly.
xgyro::JobResult run_job_elastic(const xgyro::EnsembleInput& batch,
                                 const net::MachineSpec& machine,
                                 int ranks_per_sim, int n_report_intervals,
                                 gyro::Mode mode,
                                 const RecoveryOptions& opts = {});

/// Execute a plan job by job on the simulated machine, each job through
/// run_job_elastic; recovery events and snapshot counters are aggregated
/// into the CampaignResult. A job the executor
/// gives up on (JobAborted) is recorded as a JobFailure — its recovery
/// history is kept and the remaining jobs still run, so the caller gets a
/// partial CampaignResult (check complete()) instead of a bare throw.
CampaignResult run_campaign_elastic(const CampaignSpec& spec,
                                    const CampaignPlan& plan, gyro::Mode mode,
                                    const RecoveryOptions& opts);

/// run_campaign_elastic with default options: no faults, so no recovery is
/// ever needed.
CampaignResult run_campaign(const CampaignSpec& spec, const CampaignPlan& plan,
                            gyro::Mode mode);

}  // namespace xg::campaign
