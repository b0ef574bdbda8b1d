// Chrome trace-event export and collective-skew analysis.
//
// A finished run's SpanEvent/TraceEvent streams are rendered as a Chrome
// trace-event JSON document (the format understood by chrome://tracing and
// ui.perfetto.dev): one process per ensemble member, one thread (track) per
// world rank, "X" complete events for spans and per-member collective
// intervals, "M" metadata rows naming the tracks. Virtual seconds are scaled
// to the format's microsecond timestamps.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simmpi/stats.hpp"
#include "telemetry/json.hpp"

namespace xg::telemetry {

/// Per-collective-instance member skew, from grouping trace rows by
/// (comm_context, seq). The straggler lag — how late the last member entered
/// the collective relative to the first — is the quantity fault-injected
/// stragglers perturb.
struct CollectiveSkew {
  std::uint64_t comm_context = 0;
  std::uint64_t seq = 0;
  std::string comm_label;
  mpi::TraceEvent::Kind kind{};
  int participants = 0;  ///< communicator size
  int rows = 0;          ///< member rows actually recorded
  double start_skew_s = 0.0;  ///< max t_start - min t_start (straggler lag)
  double end_skew_s = 0.0;    ///< max t_end - min t_end
};

/// All collective instances in `result.trace`, ordered by first entry time.
std::vector<CollectiveSkew> collective_skew(const mpi::RunResult& result);

/// Largest straggler lag over all instances (0 for an empty trace).
double max_collective_skew_s(const mpi::RunResult& result);

/// Trace-event rows and document, shared with service_chrome_trace: an "M"
/// row naming a process or thread, an "X" row over [ts_s, ts_s + dur_s).
Json trace_meta_row(const char* what, int pid, int tid,
                    const std::string& name);
Json trace_slice_row(const std::string& name, const char* cat, int pid,
                     int tid, double ts_s, double dur_s, Json args);
Json trace_document(Json trace_events);

/// Build the Chrome trace document:
/// { "schema": "xgyro.trace", "schema_version": 1, "displayTimeUnit": "ms",
///   "traceEvents": [...] }.
/// pid = ensemble member (+1; member -1 → pid 0), tid = world rank.
/// Span events become "X" rows named by the span; per-member collective rows
/// become "X" rows named "mpi.<kind>" with args {comm, seq, bytes, ...}.
Json chrome_trace_json(const mpi::RunResult& result);

/// Write the trace document to `path`. Throws xg::Error on I/O failure.
void write_chrome_trace(const std::string& path, const mpi::RunResult& result);

/// Result of validating a Chrome trace document.
struct TraceCheck {
  int n_tracks = 0;          ///< distinct (pid, tid) pairs with metadata rows
  int n_complete_events = 0; ///< "X" rows
  /// Distinct (ctx, seq) collective instances seen in event args.
  int n_collective_instances = 0;
  /// Distinct tids that have at least one complete event AND a thread_name
  /// metadata row — "one complete track per rank".
  std::vector<int> ranks_with_tracks;
};

/// Validate a parsed Chrome trace document: schema fields, event
/// well-formedness (ph/ts/dur/pid/tid present, ts/dur finite and
/// non-negative), metadata coverage, and collective-instance consistency
/// (all rows of one (ctx, seq) instance must agree on `participants`, and an
/// instance may not have more rows than participants). Throws xg::InputError
/// on any violation.
TraceCheck check_chrome_trace(const Json& doc);

}  // namespace xg::telemetry
