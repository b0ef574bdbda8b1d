// Rolling-window service monitors computed online from the event stream.
//
// A ServiceMonitor is a pure function of the event records fed to it:
// the live engine and an offline replay of the same log reach identical
// monitor state, which is what lets xgyro_servemon reproduce the numbers a
// running service reported. It tracks, per tenant, queue-wait
// distributions in mergeable quantile sketches (exact end-of-run
// percentiles live in the service.end record for cross-checking), plus:
//
//   starvation  — age of the oldest still-queued request vs. the median
//                 wait of the already-placed cohort;
//   fairness    — Jain's index over per-tenant completed counts;
//   SLO         — rolling compliance of "wait ≤ threshold" against a
//                 target, with edge-triggered burn-rate alerts emitted
//                 back into the event log;
//   calibration — the admission-time queue-wait prediction replayed
//                 against realized waits (perfmodel::calibrate_queue_wait,
//                 gated like the PR-5 divergence gate);
//   fast path   — job.modeled / job.audited counts and the sampled-audit
//                 divergence gate (perfmodel::audit_fast_path) replayed
//                 from the (price, measured) pairs in job.audited records,
//                 so servemon re-derives the same verdict the live service
//                 reported.
//
// Internal structures are chosen for production stream sizes: the running
// cohort median uses a two-heap tracker and the oldest-queued age an
// ordered (t, id) index, so per-event cost is O(log n) — a 10⁵-request
// stream emits ~10⁶ events and a linear scan per event would dominate the
// whole service run.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <queue>
#include <set>
#include <string>
#include <vector>

#include "perfmodel/perfmodel.hpp"
#include "telemetry/events.hpp"
#include "telemetry/json.hpp"
#include "telemetry/sketch.hpp"

namespace xg::campaign {

/// One service-level objective on queue wait. Spec grammar (';'-separated):
///
///   wait=S     the objective: queue wait ≤ S virtual seconds (required)
///   target=F   fraction of placements that must meet it (default 0.95)
///   window=S   rolling compliance window in virtual seconds
///              (default 0 = whole run so far)
///   burn=R     alert when burn rate ≥ R (default 2.0); burn rate is
///              (1 - compliance) / (1 - target), so 1.0 = exactly on
///              budget, 2.0 = burning error budget twice as fast
struct SloSpec {
  double wait_s = 0.0;
  double target = 0.95;
  double window_s = 0.0;
  double burn_alert = 2.0;

  [[nodiscard]] bool enabled() const { return wait_s > 0.0; }
  static SloSpec parse(const std::string& spec);
  [[nodiscard]] telemetry::Json to_json() const;
};

class ServiceMonitor {
 public:
  /// `window_s` bounds the rolling placement window used by the snapshot
  /// calibration and SLO compliance when the SLO has no window of its own
  /// (0 = unbounded: windows cover the whole run).
  explicit ServiceMonitor(double window_s = 0.0, SloSpec slo = {},
                          int sketch_compression = 128);

  /// Feed one event record (live or replayed — monitor.snapshot and
  /// slo.alert records are ignored, so replaying a log that already
  /// contains them does not double count). Returns the payloads of any
  /// slo.alert records this event triggered; the caller wraps them in
  /// make_event and writes them to the sink.
  std::vector<telemetry::Json> consume(const telemetry::Json& record);

  /// Rolling-window snapshot payload for a monitor.snapshot record at the
  /// current virtual time: queued/oldest-age/starvation, per-tenant sketch
  /// percentiles, fairness, windowed calibration, SLO compliance.
  [[nodiscard]] telemetry::Json snapshot();

  /// End-of-run report: cumulative sketches, fairness, starvation peak,
  /// calibration verdict, SLO summary. This is what servemon renders.
  [[nodiscard]] telemetry::Json report() const;

  [[nodiscard]] double jain_fairness() const;
  [[nodiscard]] perfmodel::WaitCalibration calibration() const;
  /// Fast-path audit verdict from the replayed job.audited records
  /// (forced audits are excluded — a fault-carrying job's DES cost
  /// includes recoveries the price never models).
  [[nodiscard]] perfmodel::AuditGate audit_gate() const;
  /// All per-tenant sketches merged (demonstrates mergeability; equals the
  /// sketch of the full placement stream up to compression).
  [[nodiscard]] telemetry::QuantileSketch overall_sketch() const;
  [[nodiscard]] int alerts() const { return alerts_; }
  [[nodiscard]] int placed() const { return placed_; }
  [[nodiscard]] double now() const { return now_; }

 private:
  struct Tenant {
    telemetry::QuantileSketch waits;
    int submitted = 0;
    int rejected = 0;
    int completed = 0;
    int failed = 0;
  };

  struct Placement {
    double t = 0.0;
    double wait_s = 0.0;
    double predicted_s = 0.0;
  };

  /// Streaming lower-median tracker: the classic two-heap construction
  /// (max-heap of the lower half, min-heap of the upper half). Insertion
  /// is O(log n) against O(n) for an insert-sorted vector, and the value
  /// read is the same order statistic (sorted[(n-1)/2]) the vector gave.
  class RunningMedian {
   public:
    void observe(double x);
    [[nodiscard]] double median() const;  ///< 0.0 when empty

   private:
    std::priority_queue<double> lo_;  ///< lower half (top = its max)
    std::priority_queue<double, std::vector<double>, std::greater<>> hi_;
  };

  void trim(double t);
  static telemetry::Json tenant_json(const Tenant& tn);
  void dequeue(int id);  ///< drop `id` from the queued set, if there
  [[nodiscard]] double slo_compliance() const;

  double window_s_;
  SloSpec slo_;
  int compression_;
  double now_ = 0.0;
  std::map<std::string, Tenant> tenants_;
  std::map<int, std::string> tenant_of_;
  std::map<int, std::pair<std::string, double>> queued_;  ///< id → (tenant, t)
  std::set<std::pair<double, int>> queued_age_;  ///< (t, id): begin = oldest
  std::deque<Placement> window_;   ///< placements inside the rolling window
  RunningMedian med_waits_;        ///< placed-cohort median wait
  double starvation_peak_ = 0.0;   ///< max oldest-age/median ratio seen
  double oldest_age_peak_s_ = 0.0;
  int placed_ = 0;
  int slo_met_ = 0;     ///< cumulative placements meeting the SLO
  int alerts_ = 0;
  bool alerting_ = false;
  int preemptions_ = 0;
  int resumes_ = 0;
  // Cumulative (predicted, realized) pairs for the end-of-run calibration
  // verdict; the rolling window_ drives the per-snapshot one.
  std::vector<double> pred_;
  std::vector<double> real_;
  // Fast-path bookkeeping replayed from job.modeled / job.audited records.
  int jobs_modeled_ = 0;
  int jobs_audited_ = 0;
  int audits_forced_ = 0;
  std::vector<double> audit_price_;     ///< sampled (non-forced) audits only
  std::vector<double> audit_measured_;
};

/// JSON rendering of a calibration verdict (shared by ServiceResult and
/// monitor snapshots).
[[nodiscard]] telemetry::Json wait_calibration_json(
    const perfmodel::WaitCalibration& c);

/// Fast-path job counts (shared by ServiceResult, snapshots and the report).
[[nodiscard]] telemetry::Json fast_path_json(int modeled, int audited,
                                             int forced);

/// Jain's fairness index (Σx)² / (n·Σx²) over per-tenant completed counts,
/// 1 when nothing completed (shared by ServiceResult and the monitor).
[[nodiscard]] double jain_index(const std::map<std::string, int>& counts);

/// JSON rendering of a fast-path audit verdict (shared by ServiceResult
/// and the monitor report).
[[nodiscard]] telemetry::Json audit_gate_json(const perfmodel::AuditGate& g);

}  // namespace xg::campaign
