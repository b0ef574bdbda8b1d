// The job runner: run a CGYRO simulation or an XGYRO ensemble as one
// simulated HPC job and return the timing/traffic result. Every job in the
// library — the CGYRO/XGYRO drivers, the campaign service, the CLI and the
// examples that run a campaign plan — goes through run_job, which owns the
// one rank body: layout choice, snapshot restore, the report-interval loop,
// periodic snapshots, per-member diagnostics, and elastic recovery from rank
// failures and deadlocks.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "gyro/simulation.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"
#include "telemetry/report.hpp"
#include "util/error.hpp"
#include "xgyro/ensemble.hpp"

namespace xg::xgyro {

struct JobOptions {
  int n_report_intervals = 1;  ///< reporting steps to simulate
  gyro::Mode mode = gyro::Mode::kModel;
  bool enable_trace = false;
  bool enable_traffic = false;
  /// Deterministic fault-injection plan forwarded to the runtime
  /// (default: inactive). See mpi::FaultPlan::parse for the spec grammar.
  mpi::FaultPlan faults;
  /// Per-collective invariant checking (member agreement); on by default.
  bool check_invariants = true;
  /// Collective algorithm decision table consulted by every collective
  /// entered with CollAlg::kAuto (nullptr = built-in tuned table). Use
  /// mpi::CollSelector::legacy() for the pre-selector ablation baseline, or
  /// a table loaded via telemetry::load_coll_table.
  std::shared_ptr<const mpi::CollSelector> coll_selector;
  /// How ensemble members map onto shared tensors.
  SharingPolicy sharing = SharingPolicy::kSingleGroup;
  /// Single-member jobs only: run the classic CGYRO layout instead of a
  /// k = 1 ensemble layout.
  bool cgyro_layout = false;
  /// Periodic elastic snapshots (see src/checkpoint): empty disables. Real
  /// mode only — model mode carries no restorable state. Without snapshots
  /// a recovery restarts the job from scratch.
  std::string checkpoint_dir;
  /// Report intervals between snapshots (the final interval is always
  /// snapshotted so a completed job leaves a resumable image).
  int checkpoint_every = 1;
  /// Restore from the latest valid snapshot in checkpoint_dir before the
  /// first attempt; already-completed intervals are skipped. Recovery
  /// attempts always resume when they can.
  bool resume = false;
  /// Recoveries allowed before a RankFailure or DeadlockError ends the job
  /// as a JobAborted. 0 = the first failure aborts.
  int max_recoveries = 0;
  /// Host-schedule perturbation forwarded to the runtime (see
  /// mpi::RuntimeOptions::schedule_seed); 0 = the fixed order. Tests only.
  std::uint64_t schedule_seed = 0;
};

/// One successful recovery of the runner, in the form a RunReport carries.
using RecoveryEvent = telemetry::RecoveryEvent;

/// Structured terminal failure of a job: thrown when the recovery budget is
/// exhausted or the surviving allocation cannot host the job. Carries the
/// partial accounting (recoveries that DID succeed, snapshot counters) so
/// callers can fold a failed job into a partial result instead of losing
/// the history with a bare rethrow. what() is summary(reason()), followed
/// on the next lines by report() when there is one.
class JobAborted : public Error {
 public:
  JobAborted(std::string kind, std::string reason, int world_rank,
             double virtual_time_s, std::string phase,
             std::vector<RecoveryEvent> recoveries,
             std::uint64_t snapshots_committed,
             std::uint64_t snapshots_rejected, std::string report = {});

  /// One line naming the failure, where and when it happened, `reason` as
  /// the cause, and the recoveries that succeeded before it. A caller that
  /// knows the cause better than the runner (a CLI run with recovery off)
  /// passes its own reason.
  [[nodiscard]] std::string summary(const std::string& reason) const;

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
  /// The last failure's full runtime report: for a deadlock, every blocked
  /// rank and the receive it waits in (mpi::DeadlockError::what()). Empty
  /// for a rank failure, whose fields above say it all.
  [[nodiscard]] const std::string& report() const { return report_; }

 private:
  std::string kind_;
  std::string reason_;
  int world_rank_;
  double virtual_time_s_;
  std::string phase_;
  std::vector<RecoveryEvent> recoveries_;
  std::uint64_t snapshots_committed_;
  std::uint64_t snapshots_rejected_;
  std::string report_;
};

struct JobResult {
  mpi::RunResult run;  ///< the final (successful) attempt
  std::vector<gyro::Diagnostics> diagnostics;  ///< per batch member
  std::vector<RecoveryEvent> recoveries;
  std::uint64_t snapshots_committed = 0;
  std::uint64_t snapshots_rejected = 0;
  net::MachineSpec machine;  ///< surviving allocation of the final attempt
  int ranks_per_sim = 0;     ///< decomposition of the final attempt
};

/// Run `batch` as one job of k·ranks_per_sim ranks on `machine`.
///
/// On RankFailure the failed rank's node is dropped from the allocation,
/// the decomposition is replanned for the survivors (keeping the current
/// ranks-per-sim when it still fits), the fired rank's kill clauses are
/// stripped from the fault plan (kills armed for other ranks stay live and
/// can fire in later attempts), and the job resumes from the newest valid
/// snapshot (or from scratch without checkpointing). DeadlockError retries
/// on the same allocation, with the fault plan's hang clauses removed.
/// After max_recoveries failures — or when the survivors cannot host the
/// job — a JobAborted is thrown.
JobResult run_job(const EnsembleInput& batch, const net::MachineSpec& machine,
                  int ranks_per_sim, const JobOptions& options = {});

/// One CGYRO job: a single simulation on `nranks` ranks of `machine`
/// (paper baseline: each nl03c variant runs alone on all 32 nodes).
mpi::RunResult run_cgyro_job(const gyro::Input& input,
                             const net::MachineSpec& machine, int nranks,
                             const JobOptions& options = {});

/// One XGYRO job: the whole ensemble at once, `ranks_per_sim` each, sharing
/// cmat across all k·pv collision ranks.
mpi::RunResult run_xgyro_job(const EnsembleInput& ensemble,
                             const net::MachineSpec& machine,
                             int ranks_per_sim, const JobOptions& options = {});

/// Phase names reported by the solver, in presentation order.
const std::vector<std::string>& solver_phases();

/// Sum over phases of max-over-ranks time, excluding "init" — the
/// "seconds per reporting step" quantity of the paper's Fig. 2.
double report_step_seconds(const mpi::RunResult& result);

/// Same, restricted to one phase.
double phase_seconds(const mpi::RunResult& result, const std::string& phase);

}  // namespace xg::xgyro
