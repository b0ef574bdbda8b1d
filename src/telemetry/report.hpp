// Structured run reports: one schema-versioned JSON document per job run
// combining makespan, per-phase timing, traffic split, fault statistics,
// invariant-check counts, and metric histogram summaries — plus the diff
// machinery xgyro_report uses to turn two reports into the paper's Fig. 2
// speedup table and a regression delta list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gyro/timing_log.hpp"
#include "simmpi/stats.hpp"
#include "simnet/machine.hpp"
#include "telemetry/json.hpp"

namespace xg::telemetry {

/// One successful elastic recovery of a job: what failed, where the run
/// resumed from, and how the allocation and decomposition changed. The job
/// runner records it (xgyro::RecoveryEvent is this type); a RunReport
/// serializes every field but `job` under its optional "recovery" object.
struct RecoveryEvent {
  std::string kind;             ///< "rank_failure" or "deadlock"
  int job = -1;                 ///< service job id (-1 standalone)
  int world_rank = -1;          ///< failed rank
  double virtual_time_s = 0.0;  ///< virtual time of the failure
  std::string phase;            ///< solver phase at failure
  std::int64_t resumed_interval = 0;  ///< 0 = restarted from scratch
  int nodes_before = 0, nodes_after = 0;
  int ranks_per_sim_before = 0, ranks_per_sim_after = 0;
};

struct RunReport {
  static constexpr int kSchemaVersion = 1;

  std::string label;        ///< "cgyro", "xgyro", or user-chosen
  double makespan_s = 0.0;
  int nranks = 0;
  int n_members = 1;        ///< ensemble members (1 for a plain CGYRO job)
  std::vector<gyro::TimingRow> phases;  ///< max-over-ranks, solver order

  bool have_traffic = false;  ///< run had enable_traffic
  std::uint64_t intra_bytes = 0;
  std::uint64_t inter_bytes = 0;

  std::uint64_t fault_delayed_msgs = 0;
  double fault_delay_added_s = 0.0;
  double fault_straggler_added_s = 0.0;
  std::uint64_t collectives_checked = 0;  ///< invariant monitor

  std::uint64_t trace_rows = 0;          ///< per-member collective rows
  std::uint64_t collectives_traced = 0;  ///< distinct (comm, seq) instances
  std::uint64_t spans = 0;
  double max_collective_skew_s = 0.0;    ///< worst straggler lag

  /// Elastic checkpoint/recovery accounting. have_recovery is true when the
  /// run had recovery or snapshots on (even with zero events); reports written
  /// before this section existed parse with have_recovery = false.
  bool have_recovery = false;
  std::uint64_t snapshots_committed = 0;
  std::uint64_t snapshots_rejected = 0;
  std::vector<RecoveryEvent> recoveries;

  /// Embedded metrics snapshot (null when metrics were not collected).
  Json metrics;

  /// Embedded analysis section (null unless the run was analyzed): an
  /// object with "critical_path", "waitwork", and optionally "divergence"
  /// sub-documents as produced by the src/analysis engine. Serialized under
  /// the optional "analysis" key; reports written before the analysis
  /// engine existed parse with a null section.
  Json analysis;
};

/// Assemble a report from a finished run. `phases` is the presentation
/// order (normally xgyro::solver_phases()).
RunReport build_run_report(const mpi::RunResult& result,
                           const net::Placement& placement,
                           const std::vector<std::string>& phases,
                           std::string label, int n_members,
                           bool with_metrics = true);

/// { "schema": "xgyro.report", "schema_version": 1, ... }
Json report_to_json(const RunReport& report);
/// Inverse of report_to_json; throws xg::InputError on schema mismatch.
RunReport report_from_json(const Json& doc);

void write_run_report(const std::string& path, const RunReport& report);
RunReport load_run_report(const std::string& path);

/// The Fig. 2 reduction as text, byte-identical to what xgyro_report has
/// always printed from raw timing logs: per-phase "CGYRO sum" (k × the
/// baseline row) vs XGYRO, ratio column, TOTAL row, makespans footer.
std::string format_speedup_table(const std::vector<gyro::TimingRow>& baseline,
                                 double baseline_makespan,
                                 const std::vector<gyro::TimingRow>& ensemble,
                                 double ensemble_makespan, int k);

/// One phase's change between two reports (A = before/baseline,
/// B = after/candidate).
struct PhaseDelta {
  std::string phase;
  double a_total_s = 0.0;
  double b_total_s = 0.0;
  double delta_s = 0.0;    ///< b - a
  double delta_frac = 0.0; ///< (b - a) / a, 0 when a == 0
};

struct ReportDiff {
  std::vector<PhaseDelta> phases;
  double a_makespan_s = 0.0;
  double b_makespan_s = 0.0;
  double makespan_delta_frac = 0.0;
  std::int64_t inter_bytes_delta = 0;  ///< b - a (0 unless both have traffic)
};

ReportDiff diff_reports(const RunReport& a, const RunReport& b);

/// Regression-oriented rendering of a diff: per-phase deltas with signs and
/// percentages, makespan change, inter-node byte change.
std::string format_regressions(const RunReport& a, const RunReport& b);

}  // namespace xg::telemetry
