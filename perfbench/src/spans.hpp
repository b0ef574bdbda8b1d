// In-memory span recorder for the traced run. Spans are recorded only
// around the benchmark's own calls into library functions (name, start,
// end, parent span, op id) and written out when the run ends. Calls too
// small and too frequent for one span each (one JSON dump per event record)
// are folded into an aggregate: total time and count under a parent span.
#pragma once

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "telemetry/json.hpp"

namespace pb {

struct Span {
  int id = -1;
  int parent = -1;  ///< -1 = root
  long op = -1;     ///< op this span belongs to (-1 = set-up / check work)
  std::string name; ///< "<module>.<call>"
  double t0_ms = 0.0;
  double t1_ms = 0.0;
};

struct Aggregate {
  int parent = -1;
  std::string name;
  double total_ms = 0.0;
  long count = 0;
};

/// Self time of one span name summed over the run.
struct SelfTime {
  double total_ms = 0.0;
  double self_ms = 0.0;
  long count = 0;
};

class Tracer {
 public:
  /// Open a span now; returns its id. Thread-safe.
  int open(const std::string& name, int parent, long op);
  void close(int id);
  void aggregate(int parent, const std::string& name, double ms, long count);

  /// Durations (ms) of every closed span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Self time per span name: duration minus the union of its child spans'
  /// intervals, minus aggregated child time. Aggregates count as their own
  /// names with self time = total time.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;

  /// {"spans": [...], "aggregates": [...]} for the span dump file.
  [[nodiscard]] xg::telemetry::Json dump() const;

 private:
  mutable std::mutex mu_;  ///< guards spans_ and aggregates_
  std::vector<Span> spans_;
  std::vector<Aggregate> aggregates_;
};

/// RAII span over a scope; a null tracer records nothing.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, int parent, long op)
      : tracer_(tracer), id_(tracer ? tracer->open(name, parent, op) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Self-time table rendered as text lines (one per span name, then one per
/// module), for the traced run's human-readable output.
std::vector<std::string> format_self_times(
    const std::map<std::string, SelfTime>& table, long ops);

/// The same table as JSON.
xg::telemetry::Json self_times_json(const std::map<std::string, SelfTime>& table,
                                    long ops);

}  // namespace pb
