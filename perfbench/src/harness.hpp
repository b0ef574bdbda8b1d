// Shared machinery of the host-cost benchmark: command-line options, the
// closed-loop op timer, process resource snapshots, order statistics, and
// the result record every workload fills in.
//
// A workload runs one client with one operation in flight at a time. It
// sets up (several times, so set-up cost is a median too), issues ops until
// the run's time is up, checks every op's output, and reports either its
// end-to-end metrics (untraced run) or its per-layer metrics (traced run).
#pragma once

#include <cstdint>
#include <exception>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/json.hpp"

namespace pb {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test: compare against a reference with one bit flipped, so every
  /// op's output check must fail.
  bool perturb = false;
  /// Directory for checkpoints and other files the workloads write.
  std::string scratch_dir = ".bench_build/tmp";
  /// Where the full result record and the span dump go ("" = not written).
  std::string out_dir;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Wall milliseconds on the steady clock (arbitrary epoch).
double now_ms();

/// Process-wide resource usage (all threads, live and exited).
struct Usage {
  double user_ms = 0.0;
  double sys_ms = 0.0;
  long ctx_switches = 0;  ///< voluntary + involuntary
  double max_rss_mb = 0.0;
  static Usage now();
};

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// 1-minute load average from /proc/loadavg (-1 when unreadable).
double loadavg_1min();
/// Cumulative CPU time of the whole machine from /proc/stat: total and
/// steal (time the hypervisor ran something else while a vCPU wanted to
/// run), in clock ticks; both 0 when unreadable.
struct CpuTicks {
  double total = 0.0;
  double steal = 0.0;
  static CpuTicks now();
};

/// "Threads:" of /proc/self/status (-1 when unreadable).
int os_threads();

/// Hex rendering of a double's bit pattern: the exact value, for
/// bit-identity checks.
std::string bits(double v);

/// Closed-loop driver: decides when to stop issuing ops and records each
/// op's wall time and verdict. Runs for `seconds`, then keeps going until
/// it holds `min_ops` samples, but never past `cap_factor`·seconds.
class OpLoop {
 public:
  OpLoop(double seconds, int min_ops, double cap_factor = 2.5);
  void begin();
  [[nodiscard]] bool more() const;
  void record(double ms, bool ok);
  void end();

  [[nodiscard]] const std::vector<double>& op_ms() const { return op_ms_; }
  [[nodiscard]] long attempted() const { return static_cast<long>(op_ms_.size()); }
  [[nodiscard]] long failed() const { return failed_; }
  /// Mark every recorded op failed (a final-state check that implicates all).
  void fail_all() { failed_ = attempted(); }
  [[nodiscard]] const Usage& usage_before() const { return before_; }
  [[nodiscard]] const Usage& usage_after() const { return after_; }

  /// What the first failing op threw or why its check failed ("" = none).
  std::string first_error;

 private:
  double seconds_;
  int min_ops_;
  double cap_factor_;
  double t0_ms_ = 0.0;
  std::vector<double> op_ms_;
  long failed_ = 0;
  Usage before_, after_;
};

/// Issue ops until `loop` says stop, one at a time. `op` returns "" when its
/// output check passes, else why it failed; a throw counts as a failure too.
template <typename Op>
void drive(OpLoop& loop, Op&& op) {
  loop.begin();
  while (loop.more()) {
    const double t0 = now_ms();
    std::string why;
    try {
      why = op();
    } catch (const std::exception& e) {
      why = std::string("exception: ") + e.what();
    }
    loop.record(now_ms() - t0, why.empty());
    if (!why.empty() && loop.first_error.empty()) loop.first_error = why;
  }
  loop.end();
}

/// Set-up is repeated so its cost is a median; returns each repetition's
/// wall seconds. `setup` rebuilds the workload state from scratch.
inline constexpr int kSetupRepeats = 3;
template <typename Setup>
std::vector<double> repeat_setup(Setup&& setup) {
  std::vector<double> s;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const double t0 = now_ms();
    setup();
    s.push_back((now_ms() - t0) / 1e3);
  }
  return s;
}

/// One workload's result: the contract fields plus a detailed record.
struct Result {
  long attempted = 0;
  long failed = 0;
  /// Metric name -> (value, unit), in print order.
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  /// Human-readable lines printed before the final JSON line.
  std::vector<std::string> notes;
  /// Full record (sample counts, layer tables, host context).
  xg::telemetry::Json detail = xg::telemetry::Json::object();
  /// Traced run only: every recorded span, written to its own file.
  xg::telemetry::Json span_dump;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

/// Fill the end-to-end metrics shared by every workload from a finished
/// loop. `rank_steps_per_op` / `requests_per_op` convert ops into the
/// throughput units; `setup_s` holds one entry per set-up repetition.
void add_end_to_end(Result& r, const OpLoop& loop,
                    const std::vector<double>& setup_s,
                    double rank_steps_per_op, double requests_per_op);

/// Per-layer metric catalogue (name, unit), in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& layer_metric_catalogue();

/// Per-layer values a traced run measured; names absent from the map were
/// not exercised by that workload and are reported as 0.
using LayerValues = std::map<std::string, double>;
void add_layer_metrics(Result& r, const LayerValues& values);

class Tracer;
/// Close a traced run: verdicts of its untraced and traced halves,
/// bench.trace_overhead_frac (traced op p50 ÷ untraced op p50 − 1), the
/// per-layer self-time table, the span dump, and the per-layer metrics.
void finish_traced(Result& r, const OpLoop& plain, const OpLoop& traced,
                   const Tracer& tracer, LayerValues values);

// --- workloads ----------------------------------------------------------------
Result run_fig2_model(const Options& opt);
Result run_ensemble_real(const Options& opt);
Result run_serve_stream(const Options& opt);

}  // namespace pb
