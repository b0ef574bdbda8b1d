#include "telemetry/report.hpp"

#include <cmath>
#include <map>
#include <set>

#include "simmpi/traffic.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::telemetry {

RunReport build_run_report(const mpi::RunResult& result,
                           const net::Placement& placement,
                           const std::vector<std::string>& phases,
                           std::string label, int n_members,
                           bool with_metrics) {
  RunReport rep;
  rep.label = std::move(label);
  rep.makespan_s = result.makespan_s;
  rep.nranks = static_cast<int>(result.ranks.size());
  rep.n_members = n_members;
  rep.phases = gyro::timing_rows(result, phases);

  for (const auto& r : result.ranks) {
    for (const auto& [name, p] : r.phases) {
      if (!p.bytes_to.empty()) rep.have_traffic = true;
    }
  }
  if (rep.have_traffic) {
    const mpi::TrafficSummary traffic =
        mpi::summarize_traffic(result, placement);
    rep.intra_bytes = traffic.intra_bytes;
    rep.inter_bytes = traffic.inter_bytes;
  }

  for (const auto& fs : result.fault_stats) {
    rep.fault_delayed_msgs += fs.delayed_msgs;
    rep.fault_delay_added_s += fs.delay_added_s;
    rep.fault_straggler_added_s += fs.straggler_added_s;
  }
  rep.collectives_checked = result.collectives_checked;

  rep.trace_rows = result.trace.size();
  rep.spans = result.spans.size();
  std::set<std::pair<std::uint64_t, std::uint64_t>> instances;
  for (const auto& e : result.trace) instances.insert({e.comm_context, e.seq});
  rep.collectives_traced = instances.size();
  rep.max_collective_skew_s = max_collective_skew_s(result);

  if (with_metrics) {
    rep.metrics = collect_run_metrics(result, placement).snapshot();
  }
  return rep;
}

Json report_to_json(const RunReport& report) {
  Json phases = Json::array();
  for (const auto& row : report.phases) {
    phases.push(Json::object()
                    .set("phase", Json(row.phase))
                    .set("comm_s", Json(row.comm_s))
                    .set("compute_s", Json(row.compute_s))
                    .set("total_s", Json(row.total_s)));
  }
  Json traffic;
  if (report.have_traffic) {
    traffic = Json::object()
                  .set("intra_bytes", Json(report.intra_bytes))
                  .set("inter_bytes", Json(report.inter_bytes));
  }
  Json recovery;  // null unless the run used the elastic executor
  if (report.have_recovery) {
    Json events = Json::array();
    for (const auto& ev : report.recoveries) {
      events.push(Json::object()
                      .set("kind", Json(ev.kind))
                      .set("world_rank", Json(ev.world_rank))
                      .set("virtual_time_s", Json(ev.virtual_time_s))
                      .set("phase", Json(ev.phase))
                      .set("resumed_interval", Json(ev.resumed_interval))
                      .set("nodes_before", Json(ev.nodes_before))
                      .set("nodes_after", Json(ev.nodes_after))
                      .set("ranks_per_sim_before",
                           Json(ev.ranks_per_sim_before))
                      .set("ranks_per_sim_after",
                           Json(ev.ranks_per_sim_after)));
    }
    recovery = Json::object()
                   .set("snapshots_committed", Json(report.snapshots_committed))
                   .set("snapshots_rejected", Json(report.snapshots_rejected))
                   .set("events", std::move(events));
  }
  return Json::object()
      .set("schema", Json("xgyro.report"))
      .set("schema_version", Json(RunReport::kSchemaVersion))
      .set("label", Json(report.label))
      .set("makespan_s", Json(report.makespan_s))
      .set("nranks", Json(report.nranks))
      .set("n_members", Json(report.n_members))
      .set("phases", std::move(phases))
      .set("traffic", std::move(traffic))
      .set("faults", Json::object()
                         .set("delayed_msgs", Json(report.fault_delayed_msgs))
                         .set("delay_added_s", Json(report.fault_delay_added_s))
                         .set("straggler_added_s",
                              Json(report.fault_straggler_added_s)))
      .set("invariants", Json::object().set("collectives_checked",
                                            Json(report.collectives_checked)))
      .set("trace", Json::object()
                        .set("rows", Json(report.trace_rows))
                        .set("collectives", Json(report.collectives_traced))
                        .set("spans", Json(report.spans))
                        .set("max_collective_skew_s",
                             Json(report.max_collective_skew_s)))
      .set("recovery", std::move(recovery))
      .set("metrics", report.metrics)
      .set("analysis", report.analysis);
}

RunReport report_from_json(const Json& doc) {
  const Json* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "xgyro.report") {
    throw InputError("report: missing or wrong 'schema' field");
  }
  if (doc.at("schema_version").as_int() != RunReport::kSchemaVersion) {
    throw InputError(strprintf("report: unsupported schema_version %lld",
                               static_cast<long long>(
                                   doc.at("schema_version").as_int())));
  }
  RunReport rep;
  rep.label = doc.at("label").as_string();
  rep.makespan_s = doc.at("makespan_s").as_double();
  rep.nranks = static_cast<int>(doc.at("nranks").as_int());
  rep.n_members = static_cast<int>(doc.at("n_members").as_int());
  for (const auto& row : doc.at("phases").elems()) {
    gyro::TimingRow r;
    r.phase = row.at("phase").as_string();
    r.comm_s = row.at("comm_s").as_double();
    r.compute_s = row.at("compute_s").as_double();
    r.total_s = row.at("total_s").as_double();
    rep.phases.push_back(std::move(r));
  }
  const Json& traffic = doc.at("traffic");
  if (!traffic.is_null()) {
    rep.have_traffic = true;
    rep.intra_bytes =
        static_cast<std::uint64_t>(traffic.at("intra_bytes").as_int());
    rep.inter_bytes =
        static_cast<std::uint64_t>(traffic.at("inter_bytes").as_int());
  }
  const Json& faults = doc.at("faults");
  rep.fault_delayed_msgs =
      static_cast<std::uint64_t>(faults.at("delayed_msgs").as_int());
  rep.fault_delay_added_s = faults.at("delay_added_s").as_double();
  rep.fault_straggler_added_s = faults.at("straggler_added_s").as_double();
  rep.collectives_checked = static_cast<std::uint64_t>(
      doc.at("invariants").at("collectives_checked").as_int());
  const Json& trace = doc.at("trace");
  rep.trace_rows = static_cast<std::uint64_t>(trace.at("rows").as_int());
  rep.collectives_traced =
      static_cast<std::uint64_t>(trace.at("collectives").as_int());
  rep.spans = static_cast<std::uint64_t>(trace.at("spans").as_int());
  rep.max_collective_skew_s = trace.at("max_collective_skew_s").as_double();
  // Optional since schema additions stay backward compatible: reports
  // written before the elastic executor existed simply lack the key.
  const Json* recovery = doc.find("recovery");
  if (recovery != nullptr && !recovery->is_null()) {
    rep.have_recovery = true;
    rep.snapshots_committed = static_cast<std::uint64_t>(
        recovery->at("snapshots_committed").as_int());
    rep.snapshots_rejected = static_cast<std::uint64_t>(
        recovery->at("snapshots_rejected").as_int());
    for (const auto& e : recovery->at("events").elems()) {
      RecoveryEvent ev;
      ev.kind = e.at("kind").as_string();
      ev.world_rank = static_cast<int>(e.at("world_rank").as_int());
      ev.virtual_time_s = e.at("virtual_time_s").as_double();
      ev.phase = e.at("phase").as_string();
      ev.resumed_interval = e.at("resumed_interval").as_int();
      ev.nodes_before = static_cast<int>(e.at("nodes_before").as_int());
      ev.nodes_after = static_cast<int>(e.at("nodes_after").as_int());
      ev.ranks_per_sim_before =
          static_cast<int>(e.at("ranks_per_sim_before").as_int());
      ev.ranks_per_sim_after =
          static_cast<int>(e.at("ranks_per_sim_after").as_int());
      rep.recoveries.push_back(std::move(ev));
    }
  }
  rep.metrics = doc.at("metrics");
  // Optional like "recovery": older reports lack the key entirely.
  if (const Json* analysis = doc.find("analysis"); analysis != nullptr) {
    rep.analysis = *analysis;
  }
  return rep;
}

void write_run_report(const std::string& path, const RunReport& report) {
  write_json_file(path, report_to_json(report));
}

RunReport load_run_report(const std::string& path) {
  return report_from_json(load_json_file(path));
}

std::string format_speedup_table(const std::vector<gyro::TimingRow>& baseline,
                                 double baseline_makespan,
                                 const std::vector<gyro::TimingRow>& ensemble,
                                 double ensemble_makespan, int k) {
  std::map<std::string, gyro::TimingRow> xg_by_phase;
  for (const auto& row : ensemble) xg_by_phase[row.phase] = row;

  std::string out;
  out += strprintf("Fig. 2-style reduction (%d sequential CGYRO jobs vs one "
                   "XGYRO ensemble)\n\n",
                   k);
  out += strprintf("%-12s %14s %14s %10s\n", "phase", "CGYRO sum [s]",
                   "XGYRO [s]", "ratio");
  double cg_total = 0, xg_total = 0;
  for (const auto& row : baseline) {
    const auto it = xg_by_phase.find(row.phase);
    const double cg_t = k * row.total_s;
    const double xg_t = it != xg_by_phase.end() ? it->second.total_s : 0.0;
    cg_total += cg_t;
    xg_total += xg_t;
    out += strprintf("%-12s %14.3f %14.3f %9.2fx\n", row.phase.c_str(), cg_t,
                     xg_t, xg_t > 0 ? cg_t / xg_t : 0.0);
  }
  out += strprintf("%-12s %14.3f %14.3f %9.2fx\n", "TOTAL", cg_total, xg_total,
                   xg_total > 0 ? cg_total / xg_total : 0.0);
  out += strprintf("\nmakespans: CGYRO job %.3f s (x%d sequential), XGYRO "
                   "ensemble %.3f s\n",
                   baseline_makespan, k, ensemble_makespan);
  return out;
}

ReportDiff diff_reports(const RunReport& a, const RunReport& b) {
  ReportDiff diff;
  diff.a_makespan_s = a.makespan_s;
  diff.b_makespan_s = b.makespan_s;
  diff.makespan_delta_frac =
      a.makespan_s != 0.0 ? (b.makespan_s - a.makespan_s) / a.makespan_s : 0.0;

  std::map<std::string, const gyro::TimingRow*> b_by_phase;
  for (const auto& row : b.phases) b_by_phase[row.phase] = &row;
  std::set<std::string> seen;
  for (const auto& row : a.phases) {
    PhaseDelta d;
    d.phase = row.phase;
    d.a_total_s = row.total_s;
    const auto it = b_by_phase.find(row.phase);
    d.b_total_s = it != b_by_phase.end() ? it->second->total_s : 0.0;
    d.delta_s = d.b_total_s - d.a_total_s;
    d.delta_frac = d.a_total_s != 0.0 ? d.delta_s / d.a_total_s : 0.0;
    seen.insert(row.phase);
    diff.phases.push_back(std::move(d));
  }
  for (const auto& row : b.phases) {
    if (seen.count(row.phase) != 0) continue;
    PhaseDelta d;
    d.phase = row.phase;
    d.b_total_s = row.total_s;
    d.delta_s = row.total_s;
    diff.phases.push_back(std::move(d));
  }

  if (a.have_traffic && b.have_traffic) {
    diff.inter_bytes_delta = static_cast<std::int64_t>(b.inter_bytes) -
                             static_cast<std::int64_t>(a.inter_bytes);
  }
  return diff;
}

std::string format_regressions(const RunReport& a, const RunReport& b) {
  const ReportDiff diff = diff_reports(a, b);
  std::string out;
  out += strprintf("regression deltas (%s -> %s)\n\n", a.label.c_str(),
                   b.label.c_str());
  out += strprintf("%-12s %12s %12s %12s %9s\n", "phase", "A total [s]",
                   "B total [s]", "delta [s]", "delta");
  for (const auto& d : diff.phases) {
    out += strprintf("%-12s %12.3f %12.3f %+12.3f %+8.1f%%\n", d.phase.c_str(),
                     d.a_total_s, d.b_total_s, d.delta_s,
                     100.0 * d.delta_frac);
  }
  out += strprintf("\nmakespan: %.3f s -> %.3f s (%+.1f%%)\n",
                   diff.a_makespan_s, diff.b_makespan_s,
                   100.0 * diff.makespan_delta_frac);
  if (a.have_traffic && b.have_traffic) {
    out += strprintf("inter-node bytes: %llu -> %llu (%+lld)\n",
                     static_cast<unsigned long long>(a.inter_bytes),
                     static_cast<unsigned long long>(b.inter_bytes),
                     static_cast<long long>(diff.inter_bytes_delta));
  }
  if (a.max_collective_skew_s > 0.0 || b.max_collective_skew_s > 0.0) {
    out += strprintf("max collective skew: %.3e s -> %.3e s\n",
                     a.max_collective_skew_s, b.max_collective_skew_s);
  }
  return out;
}

}  // namespace xg::telemetry
