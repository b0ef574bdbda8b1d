// xgyro_servemon — offline analyzer for xgyro.events service logs:
//
//   ./examples/xgyro_servemon --events serve.events.jsonl --summary
//
// The log is validated first (contiguous seq, monotone virtual time, a
// legal per-request state machine with exactly-once terminals), then
// replayed through the same ServiceMonitor the live service runs, so the
// fairness/starvation/SLO/calibration numbers it prints are bit-identical
// to what the service computed online. When the log carries a service.end
// record, the replayed sketch percentiles are cross-checked against the
// exact end-of-run per-tenant percentiles recorded there.
//
// Exit status:
//   0  log valid; every enabled check passed
//   1  usage error, unreadable log, or validation failure
//   2  an analysis gate tripped: sketch percentiles off the recorded
//      exact ones, calibration gate failed, (with --slo) alerts fired,
//      or (with --audit) the fast-path divergence gate failed
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "campaign/monitor.hpp"
#include "telemetry/events.hpp"
#include "telemetry/json.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace {

struct Options {
  std::string events;
  bool validate = false;
  bool summary = false;
  bool audit = false;
  std::string slo;
  std::string tenant;
  double window_s = 0.0;
  std::string trace_out;
  std::string json_out;
};

void print_help() {
  std::printf(
      "usage: xgyro_servemon --events FILE [options]\n\n"
      "  --events FILE     xgyro.events JSONL log to analyze\n"
      "  --validate        validate only (state machine, exactly-once\n"
      "                    terminals) and print the record census\n"
      "  --summary         replay the log through the service monitors and\n"
      "                    print the fairness/SLO report [default]\n"
      "  --slo SPEC        evaluate an SLO during replay, e.g.\n"
      "                    \"wait=100;target=0.9;window=500;burn=2\";\n"
      "                    alerts firing make the exit status 2\n"
      "  --audit           re-derive the fast-path audit verdict from the\n"
      "                    replayed job.audited records; a failing gate (or\n"
      "                    a log with no audits) makes the exit status 2\n"
      "  --tenant NAME     restrict the per-tenant table to one tenant\n"
      "  --window S        rolling monitor window in virtual seconds\n"
      "                    [0 = whole run]\n"
      "  --trace-out FILE  write the Chrome/Perfetto trace view of the log\n"
      "  --json FILE       write the replayed monitor report as JSON\n"
      "  --help            print this reference and exit\n"
      "\n"
      "exit status:\n"
      "  0  log valid; every enabled check passed\n"
      "  1  usage error, unreadable log, or validation failure\n"
      "  2  sketch/exact mismatch, calibration gate, SLO alerts, or a\n"
      "     failing fast-path audit gate\n");
}

Options parse_args(int argc, char** argv) {
  Options o;
  std::set<std::string> seen;
  auto need_value = [&](int i) {
    if (i + 1 >= argc) {
      throw xg::InputError(xg::strprintf("missing value after %s", argv[i]));
    }
    return std::string(argv[i + 1]);
  };
  auto once = [&](const std::string& flag) {
    if (!seen.insert(flag).second) {
      throw xg::InputError(
          xg::strprintf("duplicate %s (give each option at most once)",
                        flag.c_str()));
    }
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--events") {
      once(a);
      o.events = need_value(i++);
    } else if (a == "--validate") {
      once(a);
      o.validate = true;
    } else if (a == "--summary") {
      once(a);
      o.summary = true;
    } else if (a == "--slo") {
      once(a);
      o.slo = need_value(i++);
    } else if (a == "--audit") {
      once(a);
      o.audit = true;
    } else if (a == "--tenant") {
      once(a);
      o.tenant = need_value(i++);
    } else if (a == "--window") {
      once(a);
      o.window_s = xg::parse_double(need_value(i++), a);
    } else if (a == "--trace-out") {
      once(a);
      o.trace_out = need_value(i++);
    } else if (a == "--json") {
      once(a);
      o.json_out = need_value(i++);
    } else if (a == "--help" || a == "-h") {
      print_help();
      std::exit(0);
    } else {
      throw xg::InputError(
          xg::strprintf("unknown option '%s' (see --help)", a.c_str()));
    }
  }
  if (o.events.empty()) {
    throw xg::InputError("--events FILE is required (see --help)");
  }
  if (o.window_s < 0.0) throw xg::InputError("--window must be >= 0");
  if (!o.slo.empty()) {
    (void)xg::campaign::SloSpec::parse(o.slo);  // fail fast on bad grammar
  }
  if (!o.validate && !o.summary) o.summary = true;
  return o;
}

/// Sketch-vs-exact agreement: the sketch is exact for small tenants and
/// rank-bounded otherwise, so a generous envelope of 15% of the exact
/// distribution's max (plus an absolute epsilon) separates "sketch noise"
/// from "replay produced different numbers".
bool quantile_close(double sketch, double exact, double exact_max) {
  return std::abs(sketch - exact) <= 0.15 * std::max(exact_max, 0.0) + 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xg;
  using telemetry::Json;
  try {
    const Options opt = parse_args(argc, argv);

    const std::vector<Json> records = telemetry::load_event_log(opt.events);
    const telemetry::EventLogStats stats = telemetry::validate_events(records);
    std::printf(
        "%s: %d record(s), %d request(s), %d terminal(s) "
        "(%d completed, %d failed, %d rejected)%s\n",
        opt.events.c_str(), stats.records, stats.requests, stats.terminals,
        stats.completed, stats.failed, stats.rejected,
        stats.aborted ? " [ABORTED RUN]" : "");
    if (opt.validate) {
      for (const auto& [type, n] : stats.by_type) {
        std::printf("  %-20s %d\n", type.c_str(), n);
      }
      std::printf("validation: OK\n");
    }

    int exit_code = 0;
    if (opt.summary || opt.audit || !opt.json_out.empty()) {
      campaign::SloSpec slo;
      if (!opt.slo.empty()) slo = campaign::SloSpec::parse(opt.slo);
      campaign::ServiceMonitor monitor(opt.window_s, slo);
      for (const auto& rec : records) (void)monitor.consume(rec);
      const Json report = monitor.report();

      // The exact per-tenant percentiles the live service recorded, if the
      // run finished cleanly.
      const Json* exact_by_tenant = nullptr;
      if (!records.empty() && stats.ended) {
        exact_by_tenant = records.back().find("queue_wait_by_tenant");
      }

      if (opt.summary) {
        std::printf("fairness (Jain): %.4f over %zu tenant(s)\n",
                    monitor.jain_fairness(), report.at("tenants").size());
        const Json& starve = report.at("starvation");
        std::printf("starvation: peak queued age %.6f s (%.2fx the cohort "
                    "median wait)\n",
                    starve.at("peak_age_s").as_double(),
                    starve.at("peak_ratio").as_double());
        for (const auto& [tenant, tj] : report.at("tenants").items()) {
          if (!opt.tenant.empty() && tenant != opt.tenant) continue;
          std::printf(
              "tenant %s: %lld placed, wait p50 %.6f p95 %.6f p99 %.6f "
              "(sketch, %d centroid(s))\n",
              tenant.c_str(), static_cast<long long>(tj.at("n").as_int()),
              tj.at("p50").as_double(), tj.at("p95").as_double(),
              tj.at("p99").as_double(),
              static_cast<int>(tj.at("sketch_centroids").as_int()));
          if (exact_by_tenant != nullptr) {
            const Json* ex = exact_by_tenant->find(tenant);
            if (ex != nullptr) {
              const double exact_max = ex->at("max").as_double();
              const bool ok =
                  quantile_close(tj.at("p50").as_double(),
                                 ex->at("p50").as_double(), exact_max) &&
                  quantile_close(tj.at("p95").as_double(),
                                 ex->at("p95").as_double(), exact_max) &&
                  quantile_close(tj.at("p99").as_double(),
                                 ex->at("p99").as_double(), exact_max);
              std::printf("  exact:  wait p50 %.6f p95 %.6f p99 %.6f -> %s\n",
                          ex->at("p50").as_double(),
                          ex->at("p95").as_double(),
                          ex->at("p99").as_double(),
                          ok ? "sketch agrees" : "SKETCH MISMATCH");
              if (!ok) exit_code = 2;
            }
          }
        }
        const Json& cal = report.at("calibration");
        std::printf(
            "wait prediction: n=%lld mae %.6f s (ratio %.3f, coverage "
            "%.2f) -> %s\n",
            static_cast<long long>(cal.at("n").as_int()),
            cal.at("mae_s").as_double(), cal.at("ratio").as_double(),
            cal.at("coverage").as_double(),
            cal.at("pass").as_bool() ? "calibrated" : "CALIBRATION GATE");
        if (!cal.at("pass").as_bool()) exit_code = 2;
        if (const Json* sj = report.find("slo"); sj != nullptr) {
          std::printf(
              "slo: wait<=%.6g s target %.2f -> compliance %.4f, burn %.2f, "
              "%d alert(s)%s\n",
              sj->at("wait_s").as_double(), sj->at("target").as_double(),
              sj->at("compliance").as_double(),
              sj->at("burn_rate").as_double(), monitor.alerts(),
              monitor.alerts() > 0 ? " [SLO BURN]" : "");
          if (monitor.alerts() > 0) exit_code = 2;
        }
      }

      if (opt.audit) {
        const Json* fp = report.find("fast_path");
        if (fp == nullptr) {
          std::printf(
              "fast path: no job.modeled/job.audited records in this log "
              "[AUDIT GATE]\n");
          exit_code = 2;
        } else {
          const Json& audit = fp->at("audit");
          const bool pass = audit.at("pass").as_bool();
          std::printf(
              "fast path: %lld modeled, %lld audited (%lld forced)\n"
              "audit gate: n=%lld, mean price %.6f s vs measured %.6f s, "
              "worst ratio %.3f (tolerance %.1f) -> %s\n",
              static_cast<long long>(fp->at("modeled").as_int()),
              static_cast<long long>(fp->at("audited").as_int()),
              static_cast<long long>(fp->at("forced").as_int()),
              static_cast<long long>(audit.at("n").as_int()),
              audit.at("mean_price_s").as_double(),
              audit.at("mean_measured_s").as_double(),
              audit.at("worst_ratio").as_double(),
              audit.at("tolerance").as_double(),
              pass ? "PASS" : "AUDIT GATE");
          if (!pass) exit_code = 2;
        }
      }

      if (!opt.json_out.empty()) {
        Json doc = Json::object();
        doc.set("schema", "xgyro.servemon").set("schema_version", 1);
        Json census = Json::object();
        for (const auto& [type, n] : stats.by_type) census.set(type, n);
        doc.set("records", stats.records)
            .set("requests", stats.requests)
            .set("aborted", stats.aborted)
            .set("census", std::move(census))
            .set("report", report);
        telemetry::write_json_file(opt.json_out, doc);
        std::printf("monitor report written to %s\n", opt.json_out.c_str());
      }
    }

    if (!opt.trace_out.empty()) {
      telemetry::write_json_file(opt.trace_out,
                                 telemetry::service_chrome_trace(records));
      std::printf("trace written to %s (open in Perfetto / chrome://tracing)"
                  "\n",
                  opt.trace_out.c_str());
    }
    return exit_code;
  } catch (const Error& e) {
    std::fprintf(stderr, "xgyro_servemon: %s\n", e.what());
    return 1;
  }
}
