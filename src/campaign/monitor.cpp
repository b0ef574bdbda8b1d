#include "campaign/monitor.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace xg::campaign {

using telemetry::Json;

// ---------------------------------------------------------------------------
// SloSpec

SloSpec SloSpec::parse(const std::string& spec) {
  SloSpec out;
  for (const auto& [key, value] : spec_items(spec, "slo")) {
    if (key == "wait") {
      out.wait_s = parse_double(value, "slo:wait");
      if (out.wait_s <= 0.0) throw InputError("slo: wait must be > 0");
    } else if (key == "target") {
      out.target = parse_double(value, "slo:target");
      if (out.target <= 0.0 || out.target >= 1.0) {
        throw InputError("slo: target must be in (0,1)");
      }
    } else if (key == "window") {
      out.window_s = parse_double(value, "slo:window");
      if (out.window_s < 0.0) throw InputError("slo: window must be >= 0");
    } else if (key == "burn") {
      out.burn_alert = parse_double(value, "slo:burn");
      if (out.burn_alert <= 0.0) throw InputError("slo: burn must be > 0");
    } else {
      throw InputError(strprintf("slo: unknown component '%s'", key.c_str()));
    }
  }
  if (!out.enabled()) {
    throw InputError("slo: 'wait=SECONDS' is required");
  }
  return out;
}

Json SloSpec::to_json() const {
  return Json::object()
      .set("wait_s", wait_s)
      .set("target", target)
      .set("window_s", window_s)
      .set("burn_alert", burn_alert);
}

Json audit_gate_json(const perfmodel::AuditGate& g) {
  return Json::object()
      .set("n", g.n)
      .set("mean_price_s", g.mean_price_s)
      .set("mean_measured_s", g.mean_measured_s)
      .set("worst_ratio", g.worst_ratio)
      .set("mean_ratio", g.mean_ratio)
      .set("tolerance", g.tolerance)
      .set("significant", g.significant)
      .set("pass", g.pass);
}

Json wait_calibration_json(const perfmodel::WaitCalibration& c) {
  return Json::object()
      .set("n", c.n)
      .set("mae_s", c.mae_s)
      .set("bias_s", c.bias_s)
      .set("mean_realized_s", c.mean_realized_s)
      .set("mean_predicted_s", c.mean_predicted_s)
      .set("ratio", c.ratio)
      .set("coverage", c.coverage)
      .set("tolerance", c.tolerance)
      .set("min_coverage", c.min_coverage)
      .set("significant", c.significant)
      .set("pass", c.pass);
}

Json fast_path_json(int modeled, int audited, int forced) {
  return Json::object()
      .set("modeled", modeled)
      .set("audited", audited)
      .set("forced", forced);
}

double jain_index(const std::map<std::string, int>& counts) {
  double sum = 0.0, sum_sq = 0.0;
  for (const auto& [name, c] : counts) {
    const double x = c;
    sum += x;
    sum_sq += x * x;
  }
  if (counts.empty() || sum <= 0.0) return 1.0;
  return sum * sum / (double(counts.size()) * sum_sq);
}

// ---------------------------------------------------------------------------
// ServiceMonitor

ServiceMonitor::ServiceMonitor(double window_s, SloSpec slo)
    : window_s_(window_s), slo_(slo) {
  XG_REQUIRE(window_s >= 0.0, "monitor: window must be >= 0");
}

void ServiceMonitor::RunningMedian::observe(double x) {
  if (lo_.empty() || x <= lo_.top()) {
    lo_.push(x);
  } else {
    hi_.push(x);
  }
  // Rebalance so lo_ holds ceil(n/2) elements; its top is then the lower
  // median sorted[(n-1)/2].
  if (lo_.size() > hi_.size() + 1) {
    hi_.push(lo_.top());
    lo_.pop();
  } else if (hi_.size() > lo_.size()) {
    lo_.push(hi_.top());
    hi_.pop();
  }
}

double ServiceMonitor::RunningMedian::median() const {
  return lo_.empty() ? 0.0 : lo_.top();
}

void ServiceMonitor::trim(double t) {
  // The deque serves two consumers with possibly different horizons; keep
  // enough history for the longer one. Either horizon at 0 means that
  // consumer wants the whole run, so nothing can be dropped.
  if (window_s_ <= 0.0 || (slo_.enabled() && slo_.window_s <= 0.0)) return;
  const double horizon = std::max(window_s_, slo_.enabled() ? slo_.window_s
                                                            : 0.0);
  while (!window_.empty() && window_.front().t < t - horizon) {
    window_.pop_front();
  }
}

void ServiceMonitor::dequeue(int id) {
  if (const auto qit = queued_.find(id); qit != queued_.end()) {
    queued_age_.erase({qit->second.second, id});
    queued_.erase(qit);
  }
}

double ServiceMonitor::slo_compliance() const {
  if (slo_.window_s <= 0.0) {
    return placed_ > 0 ? static_cast<double>(slo_met_) / placed_ : 1.0;
  }
  int n = 0, met = 0;
  for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
    if (it->t < now_ - slo_.window_s) break;
    ++n;
    if (it->wait_s <= slo_.wait_s) ++met;
  }
  return n > 0 ? static_cast<double>(met) / n : 1.0;
}

std::vector<Json> ServiceMonitor::consume(const Json& record) {
  using telemetry::EventKind;
  std::vector<Json> alerts;
  const Json* type_field = record.find("type");
  if (type_field == nullptr) return alerts;
  const EventKind kind = telemetry::event_kind(type_field->as_string());
  if (const Json* t = record.find("t"); t != nullptr) {
    now_ = std::max(now_, t->as_double());
  }
  if (kind == EventKind::kJobModeled) {
    ++jobs_modeled_;
    return alerts;
  }
  if (kind == EventKind::kJobAudited) {
    ++jobs_audited_;
    const Json* forced = record.find("forced");
    if (forced != nullptr && forced->as_bool()) {
      ++audits_forced_;
    } else {
      audit_price_.push_back(record.at("price_s").as_double());
      audit_measured_.push_back(record.at("measured_s").as_double());
    }
    return alerts;
  }
  if (!telemetry::is_request_kind(kind)) return alerts;

  const int id = static_cast<int>(record.at("request").as_int());
  switch (kind) {
    case EventKind::kRequestSubmitted: {
      const std::string& tenant = record.at("tenant").as_string();
      ++tenants_[tenant].submitted;
      tenant_of_[id] = tenant;
      break;
    }
    case EventKind::kRequestAdmitted:
      if (const auto tit = tenant_of_.find(id); tit != tenant_of_.end()) {
        queued_[id] = {tit->second, now_};
        queued_age_.insert({now_, id});
      }
      break;
    case EventKind::kRequestRejected:
      if (const auto tit = tenant_of_.find(id); tit != tenant_of_.end()) {
        ++tenants_[tit->second].rejected;
      }
      break;
    case EventKind::kRequestPlaced: {
      const double wait = record.at("wait_s").as_double();
      double pred = 0.0;
      if (const Json* p = record.find("predicted_wait_s"); p != nullptr) {
        pred = p->as_double();
      }
      const auto tit = tenant_of_.find(id);
      if (tit != tenant_of_.end()) tenants_[tit->second].waits.observe(wait);
      dequeue(id);
      ++placed_;
      if (slo_.enabled() && wait <= slo_.wait_s) ++slo_met_;
      med_waits_.observe(wait);
      window_.push_back({now_, wait, pred});
      trim(now_);
      pred_.push_back(pred);
      real_.push_back(wait);
      if (!slo_.enabled()) break;
      const double compliance = slo_compliance();
      const double burn = (1.0 - compliance) / (1.0 - slo_.target);
      // Edge-triggered with a small warm-up so the first late placement
      // of a run does not fire on its own.
      if (placed_ >= 4 && burn >= slo_.burn_alert) {
        if (!alerting_) {
          alerting_ = true;
          ++alerts_;
          alerts.push_back(Json::object()
                               .set("compliance", compliance)
                               .set("burn_rate", burn)
                               .set("slo", slo_.to_json()));
        }
      } else {
        alerting_ = false;
      }
      break;
    }
    case EventKind::kRequestPreempted:
      ++preemptions_;
      break;
    case EventKind::kRequestResumed:
      ++resumes_;
      break;
    case EventKind::kRequestCompleted:
    case EventKind::kRequestFailed:
      dequeue(id);  // failed-before-placement requests leave the queue here
      if (const auto tit = tenant_of_.find(id); tit != tenant_of_.end()) {
        Tenant& tn = tenants_[tit->second];
        ++(kind == EventKind::kRequestCompleted ? tn.completed : tn.failed);
      }
      break;
    default:
      break;  // batched: nothing to track
  }

  // Starvation tracking: age of the oldest still-queued request against
  // the median wait of everyone already placed. The (t, id) index makes
  // the oldest lookup O(log n) per event instead of a full queue scan.
  if (!queued_age_.empty()) {
    const double oldest = std::max(now_ - queued_age_.begin()->first, 0.0);
    oldest_age_peak_s_ = std::max(oldest_age_peak_s_, oldest);
    const double median = med_waits_.median();
    if (median > 0.0) {
      starvation_peak_ = std::max(starvation_peak_, oldest / median);
    }
  }
  return alerts;
}

double ServiceMonitor::jain_fairness() const {
  std::map<std::string, int> completed;
  for (const auto& [name, tn] : tenants_) completed[name] = tn.completed;
  return jain_index(completed);
}

perfmodel::WaitCalibration ServiceMonitor::calibration() const {
  return perfmodel::calibrate_queue_wait(pred_, real_);
}

perfmodel::AuditGate ServiceMonitor::audit_gate() const {
  return perfmodel::audit_fast_path(audit_price_, audit_measured_);
}

telemetry::QuantileSketch ServiceMonitor::overall_sketch() const {
  telemetry::QuantileSketch all;
  for (const auto& [name, tn] : tenants_) {
    (void)name;
    all.merge(tn.waits);
  }
  return all;
}

namespace {

Json sketch_stats(const telemetry::QuantileSketch& s) {
  return Json::object()
      .set("n", static_cast<std::int64_t>(s.count()))
      .set("mean", s.mean())
      .set("p50", s.quantile(0.50))
      .set("p95", s.quantile(0.95))
      .set("p99", s.quantile(0.99))
      .set("max", s.max());
}

}  // namespace

Json ServiceMonitor::tenant_json(const Tenant& tn) {
  return sketch_stats(tn.waits)
      .set("submitted", tn.submitted)
      .set("completed", tn.completed)
      .set("failed", tn.failed)
      .set("rejected", tn.rejected);
}

Json ServiceMonitor::snapshot() {
  trim(now_);
  const double oldest =
      queued_age_.empty()
          ? 0.0
          : std::max(now_ - queued_age_.begin()->first, 0.0);
  const double median = med_waits_.median();

  Json snap = Json::object();
  snap.set("queued", static_cast<std::int64_t>(queued_.size()))
      .set("oldest_wait_s", oldest)
      .set("starvation_ratio", median > 0.0 ? oldest / median : 0.0)
      .set("fairness_jain", jain_fairness())
      .set("placed", placed_)
      .set("preemptions", preemptions_)
      .set("resumes", resumes_);

  Json tenants = Json::object();
  for (const auto& [name, tn] : tenants_) tenants.set(name, tenant_json(tn));
  snap.set("tenants", std::move(tenants));

  // Windowed view: placements inside the rolling horizon only.
  std::vector<double> wpred, wreal;
  double wmax = 0.0, wsum = 0.0;
  for (auto it = window_.rbegin(); it != window_.rend(); ++it) {
    if (window_s_ > 0.0 && it->t < now_ - window_s_) break;
    wpred.push_back(it->predicted_s);
    wreal.push_back(it->wait_s);
    wmax = std::max(wmax, it->wait_s);
    wsum += it->wait_s;
  }
  Json win = Json::object();
  win.set("horizon_s", window_s_)
      .set("n", static_cast<std::int64_t>(wreal.size()))
      .set("wait_mean_s", wreal.empty() ? 0.0 : wsum / double(wreal.size()))
      .set("wait_max_s", wmax);
  snap.set("window", std::move(win));
  snap.set("calibration", wait_calibration_json(
                              perfmodel::calibrate_queue_wait(wpred, wreal)));
  if (jobs_modeled_ + jobs_audited_ > 0) {
    snap.set("fast_path",
             fast_path_json(jobs_modeled_, jobs_audited_, audits_forced_));
  }

  if (slo_.enabled()) {
    const double compliance = slo_compliance();
    snap.set("slo", slo_.to_json()
                        .set("compliance", compliance)
                        .set("burn_rate",
                             (1.0 - compliance) / (1.0 - slo_.target))
                        .set("alerting", alerting_)
                        .set("alerts", alerts_));
  }
  return snap;
}

Json ServiceMonitor::report() const {
  Json doc = Json::object();
  doc.set("fairness_jain", jain_fairness())
      .set("placed", placed_)
      .set("preemptions", preemptions_)
      .set("resumes", resumes_)
      .set("starvation",
           Json::object()
               .set("peak_ratio", starvation_peak_)
               .set("peak_age_s", oldest_age_peak_s_));
  Json tenants = Json::object();
  for (const auto& [name, tn] : tenants_) {
    tenants.set(name, tenant_json(tn).set("sketch_centroids",
                                          tn.waits.centroids()));
  }
  doc.set("tenants", std::move(tenants));
  doc.set("overall", sketch_stats(overall_sketch()));
  doc.set("calibration", wait_calibration_json(calibration()));
  if (jobs_modeled_ + jobs_audited_ > 0) {
    doc.set("fast_path",
            fast_path_json(jobs_modeled_, jobs_audited_, audits_forced_)
                .set("audit", audit_gate_json(audit_gate())));
  }
  if (slo_.enabled()) {
    const double compliance =
        placed_ > 0 ? static_cast<double>(slo_met_) / placed_ : 1.0;
    doc.set("slo", slo_.to_json()
                       .set("met", slo_met_)
                       .set("compliance", compliance)
                       .set("burn_rate",
                            (1.0 - compliance) / (1.0 - slo_.target))
                       .set("alerts", alerts_));
  }
  return doc;
}

}  // namespace xg::campaign
