// Streaming service event log: one schema-versioned JSONL record per
// request-lifecycle transition of the online campaign service.
//
// The log is the service's observability substrate: it is written
// *during* the run (each record is flushed as soon as it is emitted, so a
// crashed service still leaves a valid partial log ending in a
// `service.aborted` record), and every monitor/report/trace view is a pure
// function of the record stream — replaying a log through the same
// monitors reproduces the live numbers bit for bit.
//
// Record grammar (each line is one compact JSON object):
//
//   common fields    seq (0,1,2,... contiguous), t (virtual seconds,
//                    non-decreasing), type
//   service.start    first record: schema "xgyro.events", schema_version,
//                    cluster/config echo
//   request.*        request-lifecycle transitions (the kind table in
//                    events.cpp holds the legal state machine):
//                    submitted → admitted | rejected; admitted → batched;
//                    batched → placed | failed; placed → preempted |
//                    completed | failed; preempted → resumed | failed
//                    (a preempted job can be stranded by cluster shrink);
//                    resumed → preempted | completed | failed.
//                    rejected/completed/failed are terminal, exactly once.
//   monitor.snapshot periodic rolling-window monitor state (no lifecycle
//                    effect)
//   slo.alert        burn-rate alert emitted by the SLO monitor
//   job.modeled      a job's slices were priced by the perfmodel fast path
//                    instead of DES-executed: job id + fast-path price
//   job.audited      a sampled-audit job finished its DES execution: job
//                    id, fast-path price, measured DES cost, divergence
//                    ratio, and whether the audit was forced (fault plans)
//   service.end      last record of a clean run: totals
//   service.aborted  last record of a crashed run: reason
//
// validate_events() checks the whole grammar: contiguous seq, monotone t,
// exactly-once terminals, and per-request transition legality; a log that
// ends in service.aborted is exempt from the every-request-terminal rule
// (that is what makes flushed partial logs schema-valid). At production
// stream sizes the parsed-vector form is too hungry (10⁵ requests ≈ 10⁶
// records); EventValidator is the streaming equivalent — feed records one
// at a time, memory stays O(requests), and validate_events() is now a thin
// wrapper over it.
//
// Every record type is one EventKind row of that table. A request's state
// is the kind of its last record, and the service engine, the validator,
// the monitor and the trace view all check and read it through the table.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/json.hpp"

namespace xg::telemetry {

inline constexpr const char* kEventSchema = "xgyro.events";
inline constexpr int kEventSchemaVersion = 1;

/// Every record type of the schema, request kinds last in lifecycle order.
/// As a request's state, kNone means "no record yet".
enum class EventKind : std::uint8_t {
  kNone,  ///< no record yet, or a type the schema does not know
  kServiceStart,
  kServiceEnd,
  kServiceAborted,
  kMonitorSnapshot,
  kSloAlert,
  kJobModeled,
  kJobAudited,
  kRequestSubmitted,
  kRequestAdmitted,
  kRequestRejected,
  kRequestBatched,
  kRequestPlaced,
  kRequestPreempted,
  kRequestResumed,
  kRequestCompleted,
  kRequestFailed,
};
inline constexpr int kEventKindCount = int(EventKind::kRequestFailed) + 1;

/// One row of the kind table (events.cpp): the record's "type" and, for a
/// request kind, the kinds it may follow (bit p of `follows` = kind p) and
/// whether it is a request's last record.
struct EventKindRow {
  std::string_view name;
  std::uint32_t follows = 0;
  bool terminal = false;
};
[[nodiscard]] const EventKindRow& kind_row(EventKind k);
[[nodiscard]] inline std::string_view event_name(EventKind k) {
  return kind_row(k).name;
}
[[nodiscard]] inline bool is_request_kind(EventKind k) {
  return k >= EventKind::kRequestSubmitted;
}
/// The table's verdict on one request's edge `prior` → `next`.
[[nodiscard]] inline bool may_follow(EventKind prior, EventKind next) {
  return (kind_row(next).follows >> static_cast<unsigned>(prior) & 1u) != 0;
}
/// The kind named `type`; kNone when the schema has no such type.
[[nodiscard]] EventKind event_kind(std::string_view type);
/// The validator's words for an illegal edge of request `request`.
[[nodiscard]] std::string transition_error(int request, EventKind prior,
                                           EventKind next);
/// Take the edge `state` → `next`, or throw xg::Error with
/// transition_error's text when the table forbids it.
void advance_request(EventKind& state, int request, EventKind next);

/// Where emitted event records go. The service borrows a sink; ownership
/// stays with the caller (CLI, bench, or test).
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void write(const Json& record) = 0;
};

/// In-memory sink for tests and benchmarks.
class EventBuffer : public EventSink {
 public:
  void write(const Json& record) override { records.push_back(record); }
  std::vector<Json> records;
};

/// JSONL file sink. Every record is written as one compact line and
/// flushed immediately, so the log on disk is always a valid prefix of
/// the stream — a post-mortem after a crash has data up to the crash.
class EventLogWriter : public EventSink {
 public:
  /// Opens (truncates) `path`. Throws xg::Error when unwritable.
  explicit EventLogWriter(const std::string& path);
  ~EventLogWriter() override;
  EventLogWriter(const EventLogWriter&) = delete;
  EventLogWriter& operator=(const EventLogWriter&) = delete;

  void write(const Json& record) override;

  /// Append the `service.aborted` terminal record (continuing the seq/t
  /// stream) and close the file. Call on structured failure paths so the
  /// partial log stays schema-valid. No-op if nothing was written yet or
  /// the log is already closed.
  void abort(const std::string& reason);

  [[nodiscard]] long records_written() const { return n_; }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* f_ = nullptr;
  long n_ = 0;
  long last_seq_ = -1;
  double last_t_ = 0.0;
};

/// Build one event record with the common fields set; callers .set() the
/// type-specific fields on the result.
[[nodiscard]] Json make_event(long seq, double t, std::string_view type);

/// Summary of a validated event log.
struct EventLogStats {
  int records = 0;
  int requests = 0;      ///< distinct request ids with a submitted record
  int terminals = 0;     ///< rejected + completed + failed
  int completed = 0;
  int failed = 0;
  int rejected = 0;
  int jobs_modeled = 0;  ///< job.modeled records (fast-path priced jobs)
  int jobs_audited = 0;  ///< job.audited records (sampled DES audits)
  bool aborted = false;  ///< log ends in service.aborted
  bool ended = false;    ///< log ends in service.end
  std::map<std::string, int> by_type;
};

/// Streaming grammar validator: consume() each record in stream order,
/// then finish() exactly once for the end-of-log checks (every submitted
/// request terminal unless the log aborted). Throws xg::InputError naming
/// the offending seq on any violation: gaps/duplicates/out-of-order seq,
/// time running backwards, a missing or malformed service.start header,
/// an illegal per-request transition, a second terminal, a job.* record
/// without its job/price fields, or events after the log's terminal
/// service.* record. Memory is O(distinct requests), never O(records), so
/// a 10⁵-request stream can validate inline as the service emits.
class EventValidator : public EventSink {
 public:
  void consume(const Json& record);
  /// EventSink adapter so the validator can sit directly in a sink chain.
  void write(const Json& record) override { consume(record); }
  /// End-of-log checks; returns the accumulated stats. Call once.
  EventLogStats finish();

 private:
  EventLogStats stats_;
  std::map<int, EventKind> req_state_;  ///< request id -> last record kind
  long next_seq_ = 0;
  double prev_t_ = 0.0;
  bool closed_ = false;
  bool finished_ = false;
};

/// Validate a parsed record stream against the full grammar (see file
/// header): EventValidator::consume over every record, then finish().
EventLogStats validate_events(const std::vector<Json>& records);

/// Parse a JSONL event log file into records (no validation beyond JSON
/// well-formedness per line; empty trailing line allowed).
std::vector<Json> load_event_log(const std::string& path);

/// load_event_log + validate_events.
EventLogStats validate_event_log_file(const std::string& path);

/// Render a validated record stream as a Chrome trace-event document
/// (schema xgyro.trace, accepted by check_chrome_trace and the Perfetto
/// UI): one process (pid) per tenant, one thread (tid) per request, with
/// "queue" / "batch" / "run" / "preempted" complete-event slices covering
/// each request's life, and a "service" process whose per-job tracks show
/// job placement spans. A whole service run then opens in the same UI as
/// a single-job trace.
Json service_chrome_trace(const std::vector<Json>& records);

}  // namespace xg::telemetry
