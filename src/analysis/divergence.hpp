// Perf-model divergence report: closed-form perfmodel predictions replayed
// against measured per-phase DES costs, with a tolerance gate.
//
// The closed forms intentionally simplify (no overlap, worst-link rounds),
// so they track the DES within a multiplicative envelope rather than
// percent-level — the default gate tolerance of 3x matches the factor the
// perfmodel tests have always asserted. Phases carrying less than a
// configurable fraction of total time are reported but not gated: a 3x miss
// on a microsecond phase is noise, not divergence.
#pragma once

#include <string>
#include <vector>

#include "gyro/decomposition.hpp"
#include "gyro/input.hpp"
#include "perfmodel/perfmodel.hpp"
#include "simmpi/stats.hpp"
#include "simnet/machine.hpp"
#include "telemetry/json.hpp"

namespace xg::analysis {

struct PhaseDivergence {
  std::string phase;
  double predicted_s = 0.0;  ///< closed-form, per reporting interval
  double measured_s = 0.0;   ///< DES max-over-ranks, per reporting interval
  double ratio = 1.0;        ///< measured / predicted
  bool significant = false;  ///< carries ≥ significance_frac of either total
  bool within = true;        ///< ratio inside [1/tolerance, tolerance]
};

struct DivergenceReport {
  double tolerance = 0.0;
  double significance_frac = 0.0;
  int n_report_intervals = 1;
  double predicted_total_s = 0.0;
  double measured_total_s = 0.0;
  bool pass = true;  ///< every significant phase within tolerance
  std::vector<PhaseDivergence> phases;  ///< solver presentation order
};

/// Default gate: the factor the closed forms are tested to track the DES
/// within (see perfmodel tests).
inline constexpr double kDefaultDivergenceTolerance = 3.0;
/// Phases below this fraction of both totals are not gated.
inline constexpr double kDefaultSignificanceFrac = 0.01;

/// Replay perfmodel::estimate_phases for (input, decomp, k, machine) and
/// compare each predicted phase with result.phase_max_time(phase) divided by
/// `n_report_intervals`. Phases the model does not predict (e.g. "report")
/// are excluded; they are part of neither total, and phases under
/// kDefaultSignificanceFrac of both totals are not gated. `selector` must
/// be the collective selector the measured run used (nullptr = built-in
/// tuned table) so the closed forms price the schedules that actually ran.
DivergenceReport check_divergence(
    const mpi::RunResult& result, const gyro::Input& input,
    const gyro::Decomposition& decomp, int k, const net::MachineSpec& machine,
    int n_report_intervals, double tolerance = kDefaultDivergenceTolerance,
    const mpi::CollSelector* selector = nullptr);

/// { "tolerance", "significance_frac", "n_report_intervals", "pass",
///   "predicted_total_s", "measured_total_s",
///   "phases": [{phase, predicted_s, measured_s, ratio, significant,
///               within}] }
telemetry::Json divergence_json(const DivergenceReport& report);
/// Inverse of divergence_json (used by xgyro_report to re-render embedded
/// analysis sections). Throws xg::InputError on malformed input.
DivergenceReport divergence_from_json(const telemetry::Json& doc);

/// Human-readable predicted-vs-measured table with gate verdict.
std::string format_divergence(const DivergenceReport& report);

}  // namespace xg::analysis
