#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

#include "spans.hpp"
#include "util/format.hpp"

namespace pb {

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.user_ms = ru.ru_utime.tv_sec * 1e3 + ru.ru_utime.tv_usec * 1e-3;
  u.sys_ms = ru.ru_stime.tv_sec * 1e3 + ru.ru_stime.tv_usec * 1e-3;
  u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
  u.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + frac * (v[hi] - v[lo]);
}

double loadavg_1min() {
  std::ifstream f("/proc/loadavg");
  double v = -1.0;
  if (!(f >> v)) return -1.0;
  return v;
}

CpuTicks CpuTicks::now() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  CpuTicks t;
  if (!(f >> cpu) || cpu != "cpu") return t;
  double v = 0.0;
  for (int field = 0; field < 8 && (f >> v); ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

int os_threads() {
  std::ifstream f("/proc/self/status");
  std::string key;
  while (f >> key) {
    if (key == "Threads:") {
      int n = -1;
      f >> n;
      return n;
    }
  }
  return -1;
}

std::string bits(double v) {
  return xg::strprintf("%016llx",
                       static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(v)));
}

OpLoop::OpLoop(double seconds, int min_ops, double cap_factor)
    : seconds_(seconds), min_ops_(min_ops), cap_factor_(cap_factor) {}

void OpLoop::begin() {
  before_ = Usage::now();
  t0_ms_ = now_ms();
}

bool OpLoop::more() const {
  const double elapsed_s = (now_ms() - t0_ms_) / 1e3;
  if (elapsed_s < seconds_) return true;
  return attempted() < min_ops_ && elapsed_s < cap_factor_ * seconds_;
}

void OpLoop::record(double ms, bool ok) {
  op_ms_.push_back(ms);
  if (!ok) ++failed_;
}

void OpLoop::end() { after_ = Usage::now(); }

void add_end_to_end(Result& r, const OpLoop& loop,
                    const std::vector<double>& setup_s,
                    double rank_steps_per_op, double requests_per_op) {
  const auto& ops = loop.op_ms();
  const double n = static_cast<double>(ops.size());
  double busy_ms = 0.0;
  for (double ms : ops) busy_ms += ms;
  const double p50 = quantile(ops, 0.5);
  const double p90 = quantile(ops, 0.9);
  const long beyond_p90 =
      std::count_if(ops.begin(), ops.end(), [&](double v) { return v > p90; });
  const Usage& u0 = loop.usage_before();
  const Usage& u1 = loop.usage_after();
  const double cpu_ms = (u1.user_ms - u0.user_ms) + (u1.sys_ms - u0.sys_ms);

  r.attempted = loop.attempted();
  r.failed = loop.failed();
  // Throughput at the median op time: on a shared host, stalls of a few
  // seconds land in the mean (and in p90) and swamp run-to-run spread.
  r.add("setup_s", median(setup_s), "s");
  r.add("op_ms_p50", p50, "ms");
  r.add("rank_steps_per_s", p50 > 0 ? rank_steps_per_op * 1e3 / p50 : 0.0, "1/s");
  r.add("requests_per_s", p50 > 0 ? requests_per_op * 1e3 / p50 : 0.0, "1/s");
  r.add("cpu_ms_per_op", n > 0 ? cpu_ms / n : 0.0, "ms");
  r.add("peak_rss_mb", Usage::now().max_rss_mb, "MB");

  const double fail_frac = n > 0 ? static_cast<double>(loop.failed()) / n : 1.0;
  r.note(xg::strprintf("samples: %ld ops, %ld beyond p90 (%s); setup repeated %zu times",
                       loop.attempted(), beyond_p90,
                       beyond_p90 >= 10 ? "ok" : "WARNING: fewer than 10",
                       setup_s.size()));
  r.note(xg::strprintf("op_ms_p90: %.3f ms over %ld ops (mean %.3f ms); reported, not gated",
                       p90, loop.attempted(), n > 0 ? busy_ms / n : 0.0));
  r.note(xg::strprintf("fail_frac: %.6f (%ld of %ld ops failed)", fail_frac,
                       loop.failed(), loop.attempted()));
  if (!loop.first_error.empty()) r.note("first failure: " + loop.first_error);
  r.note(xg::strprintf("cpu split over the loop: user %.1f ms, sys %.1f ms (sys %.1f%%)",
                       u1.user_ms - u0.user_ms, u1.sys_ms - u0.sys_ms,
                       cpu_ms > 0 ? 100.0 * (u1.sys_ms - u0.sys_ms) / cpu_ms : 0.0));

  xg::telemetry::Json samples = xg::telemetry::Json::array();
  for (double ms : ops) samples.push(ms);
  xg::telemetry::Json setups = xg::telemetry::Json::array();
  for (double s : setup_s) setups.push(s);
  r.detail.set("op_ms", std::move(samples))
      .set("setup_s_samples", std::move(setups))
      .set("op_ms_p90", p90)
      .set("op_ms_mean", n > 0 ? busy_ms / n : 0.0)
      .set("beyond_p90", static_cast<std::int64_t>(beyond_p90))
      .set("fail_frac", fail_frac)
      .set("rank_steps_per_op", rank_steps_per_op)
      .set("requests_per_op", requests_per_op);
}

const std::vector<std::pair<std::string, std::string>>& layer_metric_catalogue() {
  static const std::vector<std::pair<std::string, std::string>> kCatalogue{
      {"simmpi.job_wall_ms", "ms"},
      {"simmpi.us_per_msg", "us"},
      {"simmpi.spawn_ms", "ms"},
      {"simmpi.join_ms", "ms"},
      {"simmpi.sys_frac", "frac"},
      {"simmpi.ctx_switches_per_msg", "1/msg"},
      {"simmpi.os_threads_peak", "count"},
      {"simmpi.rank_skew_ms", "ms"},
      {"simmpi.msgs", "count"},
      {"simmpi.bytes", "B"},
      {"simmpi.collectives", "count"},
      {"simmpi.msgs.str_comm", "count"},
      {"simmpi.msgs.nl_comm", "count"},
      {"simmpi.msgs.coll_comm", "count"},
      {"simmpi.bytes.str_comm", "B"},
      {"simmpi.bytes.nl_comm", "B"},
      {"simmpi.bytes.coll_comm", "B"},
      {"xgyro.init_ms", "ms"},
      {"xgyro.advance_ms", "ms"},
      {"xgyro.ensemble_vs_sequential", "ratio"},
      {"gyro.step_ms", "ms"},
      {"gyro.diag_ms", "ms"},
      {"collision.apply_cells_per_s", "1/s"},
      {"collision.apply_gflops", "GFLOP/s"},
      {"collision.bytes_per_flop", "B/FLOP"},
      {"collision.build_cell_ms", "ms"},
      {"collision.cmat_mb", "MB"},
      {"fft.lines_per_s", "1/s"},
      {"checkpoint.write_ms", "ms"},
      {"checkpoint.bytes", "B"},
      {"checkpoint.mb_per_s", "MB/s"},
      {"checkpoint.restore_ms", "ms"},
      {"campaign.service_ms", "ms"},
      {"campaign.us_per_request", "us"},
      {"campaign.jobs", "count"},
      {"campaign.audits", "count"},
      {"campaign.audit_ms", "ms"},
      {"campaign.monitor_us_per_record", "us"},
      {"perfmodel.plan_us_per_job", "us"},
      {"telemetry.events", "count"},
      {"telemetry.bytes_per_event", "B"},
      {"telemetry.emit_ms", "ms"},
      {"telemetry.dump_us_per_event", "us"},
      {"telemetry.parse_us_per_event", "us"},
      {"telemetry.validate_us_per_event", "us"},
      {"bench.trace_overhead_frac", "frac"},
  };
  return kCatalogue;
}

void add_layer_metrics(Result& r, const LayerValues& values) {
  xg::telemetry::Json not_exercised = xg::telemetry::Json::array();
  for (const auto& [name, unit] : layer_metric_catalogue()) {
    const auto it = values.find(name);
    if (it == values.end()) {
      not_exercised.push(name);
      r.add(name, 0.0, unit);
      r.note(xg::strprintf("  %-34s %14s %s", name.c_str(), "n/a", unit.c_str()));
    } else {
      r.add(name, it->second, unit);
      r.note(xg::strprintf("  %-34s %14.6g %s", name.c_str(), it->second,
                           unit.c_str()));
    }
  }
  r.detail.set("layers_not_exercised", std::move(not_exercised));
}

void finish_traced(Result& r, const OpLoop& plain, const OpLoop& traced,
                   const Tracer& tracer, LayerValues values) {
  r.attempted = plain.attempted() + traced.attempted();
  r.failed = plain.failed() + traced.failed();
  const double p50_plain = quantile(plain.op_ms(), 0.5);
  const double p50_traced = quantile(traced.op_ms(), 0.5);
  values["bench.trace_overhead_frac"] = p50_plain > 0 ? p50_traced / p50_plain - 1.0 : 0.0;
  r.note(xg::strprintf("traced run: %ld untraced ops (p50 %.3f ms), %ld traced ops "
                       "(p50 %.3f ms), %ld failed",
                       plain.attempted(), p50_plain, traced.attempted(), p50_traced,
                       r.failed));
  for (const OpLoop* l : {&plain, &traced}) {
    if (!l->first_error.empty()) r.note("first failure: " + l->first_error);
  }
  const auto table = tracer.self_times();
  r.note("per-layer self time (traced ops):");
  for (auto& line : format_self_times(table, traced.attempted())) r.note(std::move(line));
  r.detail.set("self_times", self_times_json(table, traced.attempted()));
  r.span_dump = tracer.dump();
  r.note("per-layer metrics:");
  add_layer_metrics(r, values);
}

}  // namespace pb
