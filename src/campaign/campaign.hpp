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

/// Returns the optimal GroupBatch, or nothing when even k = 1 cannot run
/// (no decomposition, or a single simulation overflows the memory budget).
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
/// jobs, unlike plan_group). Nothing when k does not divide the machine's
/// rank count, no decomposition exists, or the memory does not fit. The
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

/// One successful recovery of the elastic executor: what failed, where the
/// run resumed from, and how the allocation/decomposition changed.
struct RecoveryEvent {
  std::string kind;             ///< "rank_failure" or "deadlock"
  int job = -1;                 ///< campaign job index (-1 standalone)
  int world_rank = -1;          ///< failed rank (rank_failure only)
  double virtual_time_s = 0.0;  ///< virtual time of the failure
  std::string phase;            ///< solver phase at failure
  std::int64_t resumed_interval = 0;  ///< 0 = restarted from scratch
  int nodes_before = 0, nodes_after = 0;
  int ranks_per_sim_before = 0, ranks_per_sim_after = 0;
};

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

  // Elastic-executor accounting (empty/zero under plain run_campaign).
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

/// Execute a plan job by job on the simulated machine.
CampaignResult run_campaign(const CampaignSpec& spec, const CampaignPlan& plan,
                            gyro::Mode mode);

/// Knobs of the elastic executor (run_job_elastic / run_campaign_elastic).
struct RecoveryOptions {
  /// Snapshot directory; empty disables checkpointing (recovery then
  /// restarts the job from scratch). run_campaign_elastic nests per-job
  /// snapshots under <checkpoint_dir>/job-<j>.
  std::string checkpoint_dir;
  int checkpoint_every = 1;  ///< report intervals between snapshots
  /// Recoveries allowed per job before the failure is rethrown. 0 makes
  /// the elastic executor behave exactly like the plain one.
  int max_recoveries = 3;
  /// Restore from the newest valid snapshot before the first attempt (the
  /// CLI --resume flag); recovery attempts always resume when they can.
  bool resume = false;
  mpi::FaultPlan faults;
  bool check_invariants = true;
  bool enable_trace = false;
  bool enable_traffic = false;
  /// Collective decision table for every attempt (nullptr = built-in tuned).
  std::shared_ptr<const mpi::CollSelector> coll_selector;
  xgyro::SharingPolicy sharing = xgyro::SharingPolicy::kSingleGroup;
  /// Single-member jobs only: run the classic CGYRO layout instead of a
  /// k = 1 ensemble layout (what xgyro_cli uses for --input runs).
  bool cgyro_layout = false;
};

/// Structured terminal failure of the elastic executor: thrown when the
/// recovery budget is exhausted or the surviving allocation cannot host the
/// job. Carries the partial accounting (recoveries that DID succeed,
/// snapshot counters) so callers can fold a failed job into a partial
/// CampaignResult instead of losing the history with a bare rethrow.
class JobAborted : public Error {
 public:
  JobAborted(std::string kind, std::string reason, int world_rank,
             double virtual_time_s, std::string phase,
             std::vector<RecoveryEvent> recoveries,
             std::uint64_t snapshots_committed,
             std::uint64_t snapshots_rejected);

  [[nodiscard]] const std::string& kind() const { return kind_; }
  [[nodiscard]] const std::string& reason() const { return reason_; }
  [[nodiscard]] int world_rank() const { return world_rank_; }
  [[nodiscard]] double virtual_time_s() const { return virtual_time_s_; }
  [[nodiscard]] const std::string& phase() const { return phase_; }
  [[nodiscard]] const std::vector<RecoveryEvent>& recoveries() const {
    return recoveries_;
  }
  [[nodiscard]] std::uint64_t snapshots_committed() const {
    return snapshots_committed_;
  }
  [[nodiscard]] std::uint64_t snapshots_rejected() const {
    return snapshots_rejected_;
  }

 private:
  std::string kind_;
  std::string reason_;
  int world_rank_;
  double virtual_time_s_;
  std::string phase_;
  std::vector<RecoveryEvent> recoveries_;
  std::uint64_t snapshots_committed_;
  std::uint64_t snapshots_rejected_;
};

struct ElasticJobResult {
  mpi::RunResult run;  ///< the final (successful) attempt
  std::vector<gyro::Diagnostics> diagnostics;  ///< per batch member
  std::vector<RecoveryEvent> recoveries;
  std::uint64_t snapshots_committed = 0;
  std::uint64_t snapshots_rejected = 0;
  net::MachineSpec machine;  ///< surviving allocation of the final attempt
  int ranks_per_sim = 0;     ///< decomposition of the final attempt
};

/// Run one job with elastic recovery: on RankFailure the failed rank's node
/// is dropped from the allocation, the decomposition is replanned for the
/// survivors (keeping the current ranks-per-sim when it still fits), the
/// fired rank's kill clauses are stripped from the fault plan (kills armed
/// for other ranks stay live and can fire in later attempts), and the job
/// resumes from the newest valid snapshot (or from scratch without
/// checkpointing). DeadlockError retries on the same allocation. After
/// max_recoveries failures — or when the survivors cannot host the job —
/// a JobAborted carrying the partial accounting is thrown.
ElasticJobResult run_job_elastic(const xgyro::EnsembleInput& batch,
                                 const net::MachineSpec& machine,
                                 int ranks_per_sim, int n_report_intervals,
                                 gyro::Mode mode,
                                 const RecoveryOptions& opts = {});

/// run_campaign with per-job elastic recovery; recovery events and snapshot
/// counters are aggregated into the CampaignResult. A job the executor
/// gives up on (JobAborted) is recorded as a JobFailure — its recovery
/// history is kept and the remaining jobs still run, so the caller gets a
/// partial CampaignResult (check complete()) instead of a bare throw.
CampaignResult run_campaign_elastic(const CampaignSpec& spec,
                                    const CampaignPlan& plan, gyro::Mode mode,
                                    const RecoveryOptions& opts);

}  // namespace xg::campaign
