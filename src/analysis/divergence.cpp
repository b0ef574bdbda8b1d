#include "analysis/divergence.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::analysis {

using telemetry::Json;

namespace {

struct PredictedPhase {
  const char* name;
  double perfmodel::PhaseEstimate::*field;
};

constexpr PredictedPhase kPredictedPhases[] = {
    {"str", &perfmodel::PhaseEstimate::str},
    {"str_comm", &perfmodel::PhaseEstimate::str_comm},
    {"nl", &perfmodel::PhaseEstimate::nl},
    {"nl_comm", &perfmodel::PhaseEstimate::nl_comm},
    {"coll", &perfmodel::PhaseEstimate::coll},
    {"coll_comm", &perfmodel::PhaseEstimate::coll_comm},
};

void finish_report(DivergenceReport& report) {
  for (auto& p : report.phases) {
    p.significant =
        (report.predicted_total_s > 0.0 &&
         p.predicted_s >= report.significance_frac * report.predicted_total_s) ||
        (report.measured_total_s > 0.0 &&
         p.measured_s >= report.significance_frac * report.measured_total_s);
    if (p.predicted_s > 0.0) {
      p.ratio = p.measured_s / p.predicted_s;
    } else {
      p.ratio = p.measured_s > 0.0 ? std::numeric_limits<double>::infinity()
                                   : 1.0;
    }
    p.within = std::isfinite(p.ratio) && p.ratio <= report.tolerance &&
               p.ratio >= 1.0 / report.tolerance;
    if (p.significant && !p.within) report.pass = false;
  }
}

}  // namespace

DivergenceReport check_divergence(const mpi::RunResult& result,
                                  const gyro::Input& input,
                                  const gyro::Decomposition& decomp, int k,
                                  const net::MachineSpec& machine,
                                  int n_report_intervals, double tolerance,
                                  const mpi::CollSelector* selector) {
  if (tolerance < 1.0) {
    throw InputError("divergence: tolerance must be >= 1 (it is a ratio bound)");
  }
  if (n_report_intervals < 1) {
    throw InputError("divergence: n_report_intervals must be >= 1");
  }
  const perfmodel::PhaseEstimate predicted =
      perfmodel::estimate_phases(input, decomp, k, machine, selector);

  DivergenceReport report;
  report.tolerance = tolerance;
  report.significance_frac = kDefaultSignificanceFrac;
  report.n_report_intervals = n_report_intervals;
  for (const auto& pp : kPredictedPhases) {
    PhaseDivergence d;
    d.phase = pp.name;
    d.predicted_s = predicted.*(pp.field);
    d.measured_s =
        result.phase_max_time(pp.name) / static_cast<double>(n_report_intervals);
    report.predicted_total_s += d.predicted_s;
    report.measured_total_s += d.measured_s;
    report.phases.push_back(std::move(d));
  }
  finish_report(report);
  return report;
}

Json divergence_json(const DivergenceReport& report) {
  Json phases = Json::array();
  for (const auto& p : report.phases) {
    phases.push(Json::object()
                    .set("phase", Json(p.phase))
                    .set("predicted_s", Json(p.predicted_s))
                    .set("measured_s", Json(p.measured_s))
                    .set("ratio", Json(std::isfinite(p.ratio) ? p.ratio : -1.0))
                    .set("significant", Json(p.significant))
                    .set("within", Json(p.within)));
  }
  return Json::object()
      .set("tolerance", Json(report.tolerance))
      .set("significance_frac", Json(report.significance_frac))
      .set("n_report_intervals", Json(report.n_report_intervals))
      .set("predicted_total_s", Json(report.predicted_total_s))
      .set("measured_total_s", Json(report.measured_total_s))
      .set("pass", Json(report.pass))
      .set("phases", std::move(phases));
}

DivergenceReport divergence_from_json(const Json& doc) {
  DivergenceReport report;
  report.tolerance = doc.at("tolerance").as_double();
  report.significance_frac = doc.at("significance_frac").as_double();
  report.n_report_intervals =
      static_cast<int>(doc.at("n_report_intervals").as_int());
  report.predicted_total_s = doc.at("predicted_total_s").as_double();
  report.measured_total_s = doc.at("measured_total_s").as_double();
  report.pass = doc.at("pass").as_bool();
  for (const auto& p : doc.at("phases").elems()) {
    PhaseDivergence d;
    d.phase = p.at("phase").as_string();
    d.predicted_s = p.at("predicted_s").as_double();
    d.measured_s = p.at("measured_s").as_double();
    const double r = p.at("ratio").as_double();
    d.ratio = r < 0.0 ? std::numeric_limits<double>::infinity() : r;
    d.significant = p.at("significant").as_bool();
    d.within = p.at("within").as_bool();
    report.phases.push_back(std::move(d));
  }
  return report;
}

std::string format_divergence(const DivergenceReport& report) {
  std::string out;
  out += strprintf(
      "perf-model divergence (tolerance %.2fx, gating phases >= %.1f%% of "
      "total, per %d interval%s):\n",
      report.tolerance, 100.0 * report.significance_frac,
      report.n_report_intervals, report.n_report_intervals == 1 ? "" : "s");
  out += strprintf("  %-10s %14s %14s %9s  %s\n", "phase", "predicted_s",
                   "measured_s", "ratio", "gate");
  for (const auto& p : report.phases) {
    std::string ratio = std::isfinite(p.ratio)
                            ? strprintf("%9.3f", p.ratio)
                            : std::string("      inf");
    const char* gate = !p.significant ? "minor (not gated)"
                       : p.within     ? "ok"
                                      : "DIVERGED";
    out += strprintf("  %-10s %14.6f %14.6f %s  %s\n", p.phase.c_str(),
                     p.predicted_s, p.measured_s, ratio.c_str(), gate);
  }
  out += strprintf("  total      %14.6f %14.6f %9.3f  %s\n",
                   report.predicted_total_s, report.measured_total_s,
                   report.predicted_total_s > 0.0
                       ? report.measured_total_s / report.predicted_total_s
                       : 0.0,
                   report.pass ? "PASS" : "FAIL");
  return out;
}

}  // namespace xg::analysis
