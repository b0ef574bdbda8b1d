// Job-level drivers: run a CGYRO simulation or an XGYRO ensemble as one
// simulated HPC job and return the timing/traffic result. These are the
// entry points the benchmarks and examples use to reproduce the paper's
// measurements.
#pragma once

#include "gyro/simulation.hpp"
#include "simmpi/runtime.hpp"
#include "simnet/machine.hpp"
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
  /// Periodic elastic snapshots (see src/checkpoint): empty disables. Real
  /// mode only — model mode carries no restorable state.
  std::string checkpoint_dir;
  /// Report intervals between snapshots (the final interval is always
  /// snapshotted so a completed job leaves a resumable image).
  int checkpoint_every = 1;
  /// Restore from the latest valid snapshot in checkpoint_dir before
  /// stepping; already-completed intervals are skipped.
  bool resume = false;
  /// Collective algorithm decision table consulted by every collective
  /// entered with CollAlg::kAuto (nullptr = built-in tuned table). Use
  /// mpi::CollSelector::legacy() for the pre-selector ablation baseline, or
  /// a table loaded via telemetry::load_coll_table.
  std::shared_ptr<const mpi::CollSelector> coll_selector;
};

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
