// Observability plane: event-log grammar validation (legal request state
// machines, exactly-once terminals, contiguous seq, monotone virtual
// time), the quantile sketch behind the rolling monitors (exact in the
// small, rank-bounded and mergeable at scale, deterministic, JSON
// round-trip), the ServiceMonitor's replay identity (live vs. replayed
// streams reach the same state), and the per-tenant Chrome trace view.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "campaign/monitor.hpp"
#include "telemetry/events.hpp"
#include "telemetry/json.hpp"
#include "telemetry/sketch.hpp"
#include "util/error.hpp"

namespace xg::telemetry {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Log builder: synthetic record streams with contiguous seq and monotone t.

class LogBuilder {
 public:
  LogBuilder() {
    Json start = make_event(seq_++, 0.0, "service.start");
    start.set("schema", kEventSchema).set("schema_version", kEventSchemaVersion);
    recs_.push_back(std::move(start));
  }

  Json& add(double t, const std::string& type) {
    t_ = std::max(t_, t);
    recs_.push_back(make_event(seq_++, t_, type));
    return recs_.back();
  }

  Json& req(double t, const std::string& type, int id) {
    return add(t, "request." + type).set("request", id);
  }

  /// submitted → admitted → batched → placed → completed for one request.
  void full_life(int id, const std::string& tenant, double t0,
                 double wait_s = 0.5, double predicted_s = 0.0) {
    req(t0, "submitted", id).set("tenant", tenant).set("priority", 0);
    req(t0, "admitted", id).set("queue_depth", 1).set("predicted_wait_s",
                                                      predicted_s);
    req(t0, "batched", id).set("batch", id).set("window_close_s", t0 + wait_s);
    req(t0 + wait_s, "placed", id)
        .set("job", id)
        .set("nodes", 1)
        .set("k", 1)
        .set("ready_s", t0 + wait_s)
        .set("wait_s", wait_s)
        .set("predicted_wait_s", predicted_s);
    req(t0 + wait_s + 1.0, "completed", id).set("turnaround_s", wait_s + 1.0);
  }

  std::vector<Json> end(double t) {
    add(t, "service.end");
    return recs_;
  }

  std::vector<Json> take() { return recs_; }

 private:
  std::vector<Json> recs_;
  long seq_ = 0;
  double t_ = 0.0;
};

void expect_rejects(std::vector<Json> recs, const std::string& needle) {
  try {
    validate_events(recs);
    FAIL() << "log was accepted; expected rejection mentioning '" << needle
           << "'";
  } catch (const InputError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Validator: legal logs

TEST(EventValidation, AcceptsFullLifecycleWithPreemptionAndRejection) {
  LogBuilder b;
  b.full_life(0, "a", 0.0);
  b.req(0.1, "submitted", 1).set("tenant", "b");
  b.req(0.1, "rejected", 1).set("reason", "queue full");
  b.req(0.2, "submitted", 2).set("tenant", "a");
  b.req(0.2, "admitted", 2);
  b.req(0.2, "batched", 2);
  b.req(0.7, "placed", 2).set("wait_s", 0.5);
  b.req(1.0, "preempted", 2).set("intervals_done", 1);
  b.req(1.5, "resumed", 2);
  b.req(2.0, "completed", 2);
  const EventLogStats stats = validate_events(b.end(2.5));
  EXPECT_EQ(stats.requests, 3);
  EXPECT_EQ(stats.terminals, 3);
  EXPECT_EQ(stats.completed, 2);
  EXPECT_EQ(stats.rejected, 1);
  EXPECT_EQ(stats.failed, 0);
  EXPECT_TRUE(stats.ended);
  EXPECT_FALSE(stats.aborted);
  EXPECT_EQ(stats.by_type.at("request.preempted"), 1);
}

TEST(EventValidation, PreemptedRequestMayFailWithoutResuming) {
  // A preempted job stranded by cluster shrink fails from kPreempted.
  LogBuilder b;
  b.req(0.0, "submitted", 0).set("tenant", "a");
  b.req(0.0, "admitted", 0);
  b.req(0.0, "batched", 0);
  b.req(0.5, "placed", 0).set("wait_s", 0.5);
  b.req(1.0, "preempted", 0);
  b.req(2.0, "failed", 0).set("reason", "no surviving placement");
  const EventLogStats stats = validate_events(b.end(2.0));
  EXPECT_EQ(stats.failed, 1);
}

TEST(EventValidation, AbortedLogIsExemptFromTerminalRule) {
  LogBuilder b;
  b.req(0.0, "submitted", 0).set("tenant", "a");
  b.req(0.0, "admitted", 0);
  b.req(0.0, "batched", 0);  // still mid-flight when the service dies

  // Without the abort terminal the same log is rejected...
  expect_rejects(b.take(), "never reached a terminal state");

  // ...but ending in service.aborted makes the partial log schema-valid.
  b.add(0.3, "service.aborted").set("reason", "checkpoint dir unwritable");
  const EventLogStats stats = validate_events(b.take());
  EXPECT_TRUE(stats.aborted);
  EXPECT_FALSE(stats.ended);
  EXPECT_EQ(stats.terminals, 0);
}

TEST(EventValidation, SnapshotAndAlertRecordsPassThrough) {
  LogBuilder b;
  b.full_life(0, "a", 0.0);
  b.add(1.0, "monitor.snapshot").set("queued", 0);
  b.add(1.0, "slo.alert").set("burn_rate", 3.0);
  const EventLogStats stats = validate_events(b.end(2.0));
  EXPECT_EQ(stats.by_type.at("monitor.snapshot"), 1);
  EXPECT_EQ(stats.by_type.at("slo.alert"), 1);
}

TEST(EventValidation, CountsFastPathJobRecords) {
  LogBuilder b;
  b.full_life(0, "a", 0.0);
  b.add(0.5, "job.modeled").set("job", 0).set("k", 1).set("price_s", 0.25);
  b.add(0.9, "job.audited")
      .set("job", 1)
      .set("price_s", 0.25)
      .set("measured_s", 0.27)
      .set("forced", false);
  // A zero price is legal (an empty slice costs nothing), as is a forced
  // audit of a job that never got a job.modeled record.
  b.add(1.0, "job.audited")
      .set("job", 2)
      .set("price_s", 0.0)
      .set("measured_s", 0.0)
      .set("forced", true);
  const EventLogStats stats = validate_events(b.end(2.0));
  EXPECT_EQ(stats.jobs_modeled, 1);
  EXPECT_EQ(stats.jobs_audited, 2);
  EXPECT_EQ(stats.by_type.at("job.modeled"), 1);
  EXPECT_EQ(stats.by_type.at("job.audited"), 2);
}

TEST(EventValidation, RejectsMalformedFastPathJobRecords) {
  {
    LogBuilder b;
    b.full_life(0, "a", 0.0);
    b.add(0.5, "job.modeled").set("price_s", 0.25);  // no job id
    expect_rejects(b.end(2.0), "job");
  }
  {
    LogBuilder b;
    b.full_life(0, "a", 0.0);
    b.add(0.5, "job.modeled").set("job", -1).set("price_s", 0.25);
    expect_rejects(b.end(2.0), "non-negative 'job'");
  }
  {
    LogBuilder b;
    b.full_life(0, "a", 0.0);
    b.add(0.5, "job.modeled").set("job", 0);  // no price
    expect_rejects(b.end(2.0), "price_s");
  }
  {
    LogBuilder b;
    b.full_life(0, "a", 0.0);
    b.add(0.5, "job.modeled").set("job", 0).set("price_s", -1.0);
    expect_rejects(b.end(2.0), "price_s");
  }
  {
    // job.audited without the measured DES cost
    LogBuilder b;
    b.full_life(0, "a", 0.0);
    b.add(0.5, "job.audited").set("job", 0).set("price_s", 0.25);
    expect_rejects(b.end(2.0), "measured_s");
  }
}

TEST(EventValidation, StreamingValidatorMatchesBatchValidation) {
  // The streaming EventValidator is what the scale path runs inline; it
  // must accept exactly the logs validate_events accepts, with the same
  // census — including the fast-path job records.
  LogBuilder b;
  b.full_life(0, "a", 0.0);
  b.full_life(1, "b", 0.2);
  b.add(0.5, "job.modeled").set("job", 0).set("price_s", 0.25);
  b.add(0.9, "job.audited")
      .set("job", 1)
      .set("price_s", 0.3)
      .set("measured_s", 0.31)
      .set("forced", false);
  const auto recs = b.end(2.0);

  const EventLogStats batch = validate_events(recs);
  EventValidator streaming;
  for (const auto& rec : recs) streaming.consume(rec);
  const EventLogStats stream_stats = streaming.finish();

  EXPECT_EQ(stream_stats.records, batch.records);
  EXPECT_EQ(stream_stats.requests, batch.requests);
  EXPECT_EQ(stream_stats.terminals, batch.terminals);
  EXPECT_EQ(stream_stats.completed, batch.completed);
  EXPECT_EQ(stream_stats.jobs_modeled, batch.jobs_modeled);
  EXPECT_EQ(stream_stats.jobs_audited, batch.jobs_audited);
  EXPECT_EQ(stream_stats.ended, batch.ended);
  EXPECT_EQ(stream_stats.by_type, batch.by_type);

  // And it rejects mid-stream exactly where the batch form would.
  EventValidator rejects;
  rejects.consume(recs[0]);
  EXPECT_THROW(rejects.consume(recs[2]), InputError);  // seq gap
}

// ---------------------------------------------------------------------------
// Validator: rejections

TEST(EventValidation, RejectsDuplicateGapAndOutOfOrderSeq) {
  {
    LogBuilder b;
    b.full_life(0, "a", 0.0);
    auto recs = b.end(2.0);
    recs.push_back(recs[2]);  // duplicate record replayed at the tail
    expect_rejects(recs, "duplicate, gap, or out-of-order");
  }
  {
    LogBuilder b;
    b.full_life(0, "a", 0.0);
    auto recs = b.end(2.0);
    recs.erase(recs.begin() + 2);  // gap
    expect_rejects(recs, "duplicate, gap, or out-of-order");
  }
  {
    LogBuilder b;
    b.full_life(0, "a", 0.0);
    auto recs = b.end(2.0);
    std::swap(recs[2], recs[3]);  // out of order
    expect_rejects(recs, "duplicate, gap, or out-of-order");
  }
}

TEST(EventValidation, RejectsTimeRunningBackwards) {
  LogBuilder b;
  b.full_life(0, "a", 0.0);
  auto recs = b.end(2.0);
  recs[3].set("t", -0.5);
  expect_rejects(recs, "t");
}

TEST(EventValidation, RejectsMissingOrWrongHeader) {
  expect_rejects({}, "empty log");
  {
    LogBuilder b;
    auto recs = b.end(1.0);
    recs[0].set("type", "monitor.snapshot");
    expect_rejects(recs, "service.start");
  }
  {
    LogBuilder b;
    auto recs = b.end(1.0);
    recs[0].set("schema", "xgyro.metrics");
    expect_rejects(recs, "schema");
  }
  {
    LogBuilder b;
    auto recs = b.end(1.0);
    recs[0].set("schema_version", 99);
    expect_rejects(recs, "schema_version");
  }
}

TEST(EventValidation, RejectsIllegalTransitions) {
  {
    // placed without batching first
    LogBuilder b;
    b.req(0.0, "submitted", 0).set("tenant", "a");
    b.req(0.0, "admitted", 0);
    b.req(0.5, "placed", 0).set("wait_s", 0.5);
    expect_rejects(b.take(), "illegal transition");
  }
  {
    // second terminal
    LogBuilder b;
    b.full_life(0, "a", 0.0);
    b.req(3.0, "completed", 0);
    expect_rejects(b.take(), "illegal transition");
  }
  {
    // resumed without a preemption
    LogBuilder b;
    b.req(0.0, "submitted", 0).set("tenant", "a");
    b.req(0.0, "admitted", 0);
    b.req(0.0, "batched", 0);
    b.req(0.5, "placed", 0).set("wait_s", 0.5);
    b.req(1.0, "resumed", 0);
    expect_rejects(b.take(), "illegal transition");
  }
  {
    // lifecycle event before request.submitted
    LogBuilder b;
    b.req(0.0, "admitted", 7);
    expect_rejects(b.take(), "before request.submitted");
  }
  {
    // submitted twice
    LogBuilder b;
    b.req(0.0, "submitted", 0).set("tenant", "a");
    b.req(0.1, "submitted", 0).set("tenant", "a");
    expect_rejects(b.take(), "submitted twice");
  }
  {
    // records after the log's terminal service record
    LogBuilder b;
    b.full_life(0, "a", 0.0);
    auto recs = b.end(2.0);
    Json extra = make_event(static_cast<long>(recs.size()), 3.0,
                            "monitor.snapshot");
    recs.push_back(std::move(extra));
    expect_rejects(recs, "after the log's terminal");
  }
  {
    LogBuilder b;
    b.add(0.5, "request.vaporized").set("request", 0);
    expect_rejects(b.take(), "unknown request event");
  }
}

// ---------------------------------------------------------------------------
// EventLogWriter: flush-per-record JSONL + the abort terminal

struct TempFile {
  TempFile() : path((fs::temp_directory_path() / "xg_events_test.jsonl")
                        .string()) {
    std::remove(path.c_str());
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(EventLogWriter, RoundTripsAndAbortContinuesTheStream) {
  TempFile tmp;
  {
    EventLogWriter w(tmp.path);
    LogBuilder b;
    b.req(0.0, "submitted", 0).set("tenant", "a");
    b.req(0.0, "admitted", 0);
    for (const Json& rec : b.take()) w.write(rec);
    EXPECT_EQ(w.records_written(), 3);
    w.abort("disk on fire");
    EXPECT_EQ(w.records_written(), 4);
  }
  const EventLogStats stats = validate_event_log_file(tmp.path);
  EXPECT_TRUE(stats.aborted);
  EXPECT_EQ(stats.records, 4);
  const auto recs = load_event_log(tmp.path);
  EXPECT_EQ(recs.back().at("type").as_string(), "service.aborted");
  EXPECT_EQ(recs.back().at("reason").as_string(), "disk on fire");
  // The abort record continues seq and holds virtual time.
  EXPECT_EQ(recs.back().at("seq").as_int(), 3);
  EXPECT_EQ(recs.back().at("t").as_double(), 0.0);
}

TEST(EventLogWriter, AbortBeforeAnyRecordIsANoOp) {
  TempFile tmp;
  {
    EventLogWriter w(tmp.path);
    w.abort("nothing happened yet");
  }
  EXPECT_TRUE(load_event_log(tmp.path).empty());
}

TEST(EventLogWriter, UnwritablePathThrows) {
  EXPECT_THROW(EventLogWriter("/proc/xg-no-such-dir/events.jsonl"), Error);
}

// ---------------------------------------------------------------------------
// QuantileSketch

/// Exact reference quantile at the service's convention: the ceil(q·n)-th
/// order statistic (1-based) of the sorted sample.
double exact_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const size_t rank = static_cast<size_t>(
      std::max(1.0, std::ceil(q * static_cast<double>(v.size()))));
  return v[rank - 1];
}

/// Deterministic pseudo-uniform stream in [0, 1) (Weyl sequence).
std::vector<double> uniform_stream(int n) {
  std::vector<double> v;
  v.reserve(static_cast<size_t>(n));
  double x = 0.12345;
  for (int i = 0; i < n; ++i) {
    x += 0.6180339887498949;  // golden-ratio step: equidistributed mod 1
    x -= std::floor(x);
    v.push_back(x);
  }
  return v;
}

TEST(QuantileSketch, ExactWhileSmall) {
  QuantileSketch s(128);
  const auto vals = uniform_stream(30);  // 30 < 128/4: every sample kept
  for (const double v : vals) s.observe(v);
  for (const double q : {0.1, 0.5, 0.9, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(s.quantile(q), exact_quantile(vals, q)) << "q=" << q;
  }
  EXPECT_EQ(s.count(), 30u);
  EXPECT_EQ(s.centroids(), 30);
}

TEST(QuantileSketch, TailsStayTightAtScale) {
  const int n = 20000;
  QuantileSketch s(128);
  const auto vals = uniform_stream(n);
  for (const double v : vals) s.observe(v);
  // Rank error is ~n/δ at the median and far tighter at the tails; for a
  // uniform sample value error ≈ rank error / n.
  EXPECT_NEAR(s.quantile(0.50), exact_quantile(vals, 0.50), 0.05);
  EXPECT_NEAR(s.quantile(0.95), exact_quantile(vals, 0.95), 0.02);
  EXPECT_NEAR(s.quantile(0.99), exact_quantile(vals, 0.99), 0.01);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), s.min());
  EXPECT_DOUBLE_EQ(s.quantile(1.0), s.max());
  // The whole 20k-sample distribution lives in O(δ) centroids: the
  // single-pass merge keeps tail singletons plus partially-filled middle
  // centroids, so the constant is a small multiple of δ — what matters is
  // that it does not grow with n.
  EXPECT_LE(s.centroids(), 8 * 128);
}

TEST(QuantileSketch, MergeMatchesObservingTheUnion) {
  const auto vals = uniform_stream(5000);
  QuantileSketch left(64), right(64), all(64);
  for (size_t i = 0; i < vals.size(); ++i) {
    (i % 2 == 0 ? left : right).observe(vals[i]);
    all.observe(vals[i]);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.sum(), all.sum(), 1e-6);  // summation order differs
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
  for (const double q : {0.5, 0.95, 0.99}) {
    EXPECT_NEAR(left.quantile(q), all.quantile(q), 0.05) << "q=" << q;
  }
}

TEST(QuantileSketch, DeterministicAndJsonRoundTrips) {
  QuantileSketch a(96), b(96);
  for (const double v : uniform_stream(3000)) {
    a.observe(v);
    b.observe(v);
  }
  // No randomized compaction: identical streams give identical state.
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());

  const QuantileSketch back = QuantileSketch::from_json(a.to_json());
  EXPECT_EQ(back.count(), a.count());
  EXPECT_EQ(back.to_json().dump(), a.to_json().dump());
  for (const double q : {0.25, 0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(back.quantile(q), a.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, RejectsBadInput) {
  QuantileSketch s(32);
  EXPECT_THROW(s.observe(std::nan("")), Error);
  EXPECT_THROW((void)s.quantile(1.5), Error);
  EXPECT_THROW(QuantileSketch(4), Error);
  EXPECT_EQ(s.quantile(0.5), 0.0);  // empty sketch
}

// ---------------------------------------------------------------------------
// ServiceMonitor: replay identity, fairness, SLO alerts

TEST(ServiceMonitor, ReplayOfEmittedLogReproducesLiveState) {
  using campaign::ServiceMonitor;
  const campaign::SloSpec slo = campaign::SloSpec::parse(
      "wait=0.4;target=0.5;burn=1.5");

  LogBuilder b;
  b.full_life(0, "a", 0.0, 0.2);
  b.full_life(1, "b", 0.5, 0.6);
  b.full_life(2, "a", 1.0, 0.7);
  b.full_life(3, "b", 1.5, 0.8);
  b.full_life(4, "a", 2.0, 0.9);

  // Live pass: feed request records, interleave emitted snapshot/alert
  // records into the stream exactly as the engine does.
  ServiceMonitor live(0.0, slo);
  std::vector<Json> stream;
  long seq = 0;
  for (Json& rec : b.take()) {
    rec.set("seq", static_cast<std::int64_t>(seq++));
    const double t = rec.at("t").as_double();
    stream.push_back(rec);
    for (Json& alert : live.consume(rec)) {
      Json al = make_event(seq++, t, "slo.alert");
      for (const auto& [key, value] : alert.items()) al.set(key, value);
      stream.push_back(al);
      (void)live.consume(stream.back());
    }
  }
  EXPECT_GE(live.alerts(), 1);

  // Replay pass over the full stream, derived records included: the
  // monitor must ignore them and land in identical state.
  ServiceMonitor replay(0.0, slo);
  for (const Json& rec : stream) (void)replay.consume(rec);
  EXPECT_EQ(replay.report().dump(), live.report().dump());
  EXPECT_EQ(replay.alerts(), live.alerts());
  EXPECT_EQ(replay.placed(), live.placed());
}

TEST(ServiceMonitor, JainFairnessOverCompletedCounts) {
  campaign::ServiceMonitor mon;
  LogBuilder b;
  b.full_life(0, "a", 0.0);
  b.full_life(1, "a", 0.5);
  b.full_life(2, "a", 1.0);
  b.full_life(3, "b", 1.5);
  for (const Json& rec : b.take()) (void)mon.consume(rec);
  // J = (3+1)^2 / (2 * (9+1)) = 16/20
  EXPECT_DOUBLE_EQ(mon.jain_fairness(), 0.8);
  const Json report = mon.report();
  EXPECT_EQ(report.at("tenants").at("a").at("completed").as_int(), 3);
  EXPECT_EQ(report.at("tenants").at("b").at("completed").as_int(), 1);
}

TEST(ServiceMonitor, SloAlertsAreEdgeTriggeredWithWarmup) {
  const campaign::SloSpec slo = campaign::SloSpec::parse(
      "wait=0.4;target=0.5;burn=1.5");
  campaign::ServiceMonitor mon(0.0, slo);
  LogBuilder b;
  // Three straight misses: still inside the 4-placement warm-up, no alert.
  b.full_life(0, "a", 0.0, 0.9);
  b.full_life(1, "a", 0.5, 0.9);
  b.full_life(2, "a", 1.0, 0.9);
  for (const Json& rec : b.take()) {
    EXPECT_TRUE(mon.consume(rec).empty());
  }
  EXPECT_EQ(mon.alerts(), 0);

  // The 4th and 5th misses burn at 2x target: exactly one rising edge.
  LogBuilder more;
  more.full_life(3, "a", 1.5, 0.9);
  more.full_life(4, "a", 2.0, 0.9);
  int fired = 0;
  for (const Json& rec : more.take()) {
    if (rec.at("type").as_string() == "service.start") continue;
    fired += static_cast<int>(mon.consume(rec).size());
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(mon.alerts(), 1);
}

// ---------------------------------------------------------------------------
// Chrome trace view

TEST(ServiceChromeTrace, RendersTenantTracksAndLifecycleSlices) {
  LogBuilder b;
  b.full_life(0, "alpha", 0.0);
  b.req(0.2, "submitted", 1).set("tenant", "beta");
  b.req(0.2, "admitted", 1);
  b.req(0.2, "batched", 1);
  b.req(0.7, "placed", 1)
      .set("job", 9)
      .set("nodes", 2)
      .set("k", 1)
      .set("ready_s", 0.7)
      .set("wait_s", 0.5);
  b.req(1.0, "preempted", 1);
  b.req(1.4, "resumed", 1);
  b.req(1.9, "completed", 1);
  const Json doc = service_chrome_trace(b.end(2.0));

  EXPECT_EQ(doc.at("schema").as_string(), "xgyro.trace");
  int queue = 0, run = 0, preempted = 0, batch = 0, procs = 0, jobs = 0;
  for (const auto& e : doc.at("traceEvents").elems()) {
    const std::string& ph = e.at("ph").as_string();
    const std::string& name = e.at("name").as_string();
    if (ph == "M" && name == "process_name") ++procs;
    if (ph != "X") continue;
    EXPECT_GE(e.at("dur").as_double(), 0.0);
    if (name == "queue") ++queue;
    if (name == "run") ++run;
    if (name == "preempted") ++preempted;
    if (name == "batch") ++batch;
    if (name.rfind("job ", 0) == 0) ++jobs;
  }
  EXPECT_EQ(procs, 3);  // service + 2 tenants
  EXPECT_EQ(queue, 2);
  EXPECT_EQ(batch, 2);
  EXPECT_EQ(run, 3);       // req 0 whole run + req 1 split around preemption
  EXPECT_EQ(preempted, 1);
  EXPECT_EQ(jobs, 2);
}

}  // namespace
}  // namespace xg::telemetry
