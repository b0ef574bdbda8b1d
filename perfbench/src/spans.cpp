#include "spans.hpp"

#include <algorithm>
#include <utility>

#include "harness.hpp"
#include "util/format.hpp"

namespace pb {

using xg::telemetry::Json;

int Tracer::open(const std::string& name, int parent, long op) {
  const double t = now_ms();
  const std::scoped_lock lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{id, parent, op, name, t, -1.0});
  return id;
}

void Tracer::close(int id) {
  const double t = now_ms();
  const std::scoped_lock lock(mu_);
  spans_.at(static_cast<size_t>(id)).t1_ms = t;
}

void Tracer::aggregate(int parent, const std::string& name, double ms,
                       long count) {
  const std::scoped_lock lock(mu_);
  aggregates_.push_back(Aggregate{parent, name, ms, count});
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::scoped_lock lock(mu_);
  std::vector<double> out;
  for (const auto& s : spans_) {
    if (s.name == name && s.t1_ms >= s.t0_ms) out.push_back(s.t1_ms - s.t0_ms);
  }
  return out;
}

std::map<std::string, SelfTime> Tracer::self_times() const {
  const std::scoped_lock lock(mu_);
  std::vector<std::vector<std::pair<double, double>>> child_iv(spans_.size());
  std::vector<double> child_agg(spans_.size(), 0.0);
  for (const auto& s : spans_) {
    if (s.parent >= 0 && s.t1_ms >= s.t0_ms) {
      child_iv[static_cast<size_t>(s.parent)].push_back({s.t0_ms, s.t1_ms});
    }
  }
  for (const auto& a : aggregates_) {
    if (a.parent >= 0) child_agg[static_cast<size_t>(a.parent)] += a.total_ms;
  }
  std::map<std::string, SelfTime> table;
  for (const auto& s : spans_) {
    if (s.t1_ms < s.t0_ms) continue;  // never closed
    auto iv = child_iv[static_cast<size_t>(s.id)];
    std::sort(iv.begin(), iv.end());
    // Union of child intervals clipped to the parent (children may run on
    // other threads and overlap one another).
    double covered = 0.0, cur_lo = 0.0, cur_hi = -1.0;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, s.t0_ms);
      hi = std::min(hi, s.t1_ms);
      if (hi <= lo) continue;
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    const double dur = s.t1_ms - s.t0_ms;
    SelfTime& t = table[s.name];
    t.total_ms += dur;
    t.self_ms += std::max(0.0, dur - covered - child_agg[static_cast<size_t>(s.id)]);
    ++t.count;
  }
  for (const auto& a : aggregates_) {
    SelfTime& t = table[a.name];
    t.total_ms += a.total_ms;
    t.self_ms += a.total_ms;
    t.count += a.count;
  }
  return table;
}

Json Tracer::dump() const {
  const std::scoped_lock lock(mu_);
  Json spans = Json::array();
  for (const auto& s : spans_) {
    spans.push(Json::object()
                   .set("id", s.id)
                   .set("parent", s.parent)
                   .set("op", static_cast<std::int64_t>(s.op))
                   .set("name", s.name)
                   .set("t0_ms", s.t0_ms)
                   .set("t1_ms", s.t1_ms));
  }
  Json aggs = Json::array();
  for (const auto& a : aggregates_) {
    aggs.push(Json::object()
                  .set("parent", a.parent)
                  .set("name", a.name)
                  .set("total_ms", a.total_ms)
                  .set("count", static_cast<std::int64_t>(a.count)));
  }
  return Json::object().set("spans", std::move(spans)).set("aggregates", std::move(aggs));
}

namespace {

std::map<std::string, SelfTime> by_module(const std::map<std::string, SelfTime>& table) {
  std::map<std::string, SelfTime> modules;
  for (const auto& [name, t] : table) {
    SelfTime& m = modules[name.substr(0, name.find('.'))];
    m.total_ms += t.total_ms;
    m.self_ms += t.self_ms;
    m.count += t.count;
  }
  return modules;
}

}  // namespace

std::vector<std::string> format_self_times(
    const std::map<std::string, SelfTime>& table, long ops) {
  const double per = ops > 0 ? 1.0 / static_cast<double>(ops) : 0.0;
  std::vector<std::string> lines;
  lines.push_back(xg::strprintf("  %-32s %10s %12s %12s %14s", "span", "calls",
                                "total_ms", "self_ms", "self_ms_per_op"));
  for (const auto& [name, t] : table) {
    lines.push_back(xg::strprintf("  %-32s %10ld %12.3f %12.3f %14.4f", name.c_str(),
                                  t.count, t.total_ms, t.self_ms, t.self_ms * per));
  }
  lines.push_back(xg::strprintf("  %-32s %10s %12s %12s %14s", "layer (module)", "calls",
                                "total_ms", "self_ms", "self_ms_per_op"));
  for (const auto& [name, t] : by_module(table)) {
    lines.push_back(xg::strprintf("  %-32s %10ld %12.3f %12.3f %14.4f", name.c_str(),
                                  t.count, t.total_ms, t.self_ms, t.self_ms * per));
  }
  return lines;
}

Json self_times_json(const std::map<std::string, SelfTime>& table, long ops) {
  auto render = [ops](const std::map<std::string, SelfTime>& m) {
    Json j = Json::object();
    for (const auto& [name, t] : m) {
      j.set(name, Json::object()
                      .set("calls", static_cast<std::int64_t>(t.count))
                      .set("total_ms", t.total_ms)
                      .set("self_ms", t.self_ms)
                      .set("self_ms_per_op", ops > 0 ? t.self_ms / ops : 0.0));
    }
    return j;
  };
  return Json::object()
      .set("spans", render(table))
      .set("layers", render(by_module(table)));
}

}  // namespace pb
