#include "telemetry/events.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::telemetry {

// ---------------------------------------------------------------------------
// Writer

EventLogWriter::EventLogWriter(const std::string& path) : path_(path) {
  f_ = std::fopen(path.c_str(), "w");
  if (f_ == nullptr) {
    throw Error(strprintf("events: cannot open '%s' for writing",
                          path.c_str()));
  }
}

EventLogWriter::~EventLogWriter() {
  if (f_ != nullptr) std::fclose(f_);
}

void EventLogWriter::write(const Json& record) {
  XG_REQUIRE(f_ != nullptr, "events: writer is closed");
  const std::string line = record.dump();
  if (std::fwrite(line.data(), 1, line.size(), f_) != line.size() ||
      std::fputc('\n', f_) == EOF) {
    throw Error(strprintf("events: short write to '%s'", path_.c_str()));
  }
  // Flush per record: the on-disk log must be a valid prefix of the stream
  // at every instant, so a crash mid-run still leaves usable data.
  std::fflush(f_);
  ++n_;
  if (const Json* seq = record.find("seq"); seq != nullptr) {
    last_seq_ = static_cast<long>(seq->as_int());
  }
  if (const Json* t = record.find("t"); t != nullptr) {
    last_t_ = t->as_double();
  }
}

void EventLogWriter::abort(const std::string& reason) {
  if (f_ == nullptr || n_ == 0) return;
  Json rec = make_event(last_seq_ + 1, last_t_, "service.aborted");
  rec.set("reason", reason);
  write(rec);
  std::fclose(f_);
  f_ = nullptr;
}

Json make_event(long seq, double t, std::string_view type) {
  Json rec = Json::object();
  rec.set("seq", static_cast<std::int64_t>(seq))
      .set("t", t)
      .set("type", std::string(type));
  return rec;
}

// ---------------------------------------------------------------------------
// Validation

namespace {

/// Lifecycle states of one request. Rejected/Completed/Failed are terminal.
enum class ReqState {
  kSubmitted,
  kAdmitted,
  kBatched,
  kPlaced,
  kPreempted,
  kResumed,
  kRejected,
  kCompleted,
  kFailed,
};

const char* req_state_name(ReqState s) {
  switch (s) {
    case ReqState::kSubmitted: return "submitted";
    case ReqState::kAdmitted: return "admitted";
    case ReqState::kBatched: return "batched";
    case ReqState::kPlaced: return "placed";
    case ReqState::kPreempted: return "preempted";
    case ReqState::kResumed: return "resumed";
    case ReqState::kRejected: return "rejected";
    case ReqState::kCompleted: return "completed";
    case ReqState::kFailed: return "failed";
  }
  return "?";
}

bool is_terminal(ReqState s) {
  return s == ReqState::kRejected || s == ReqState::kCompleted ||
         s == ReqState::kFailed;
}

/// The legal state machine: which prior states each request.* event may
/// fire from. request.submitted is special-cased (no prior state allowed).
const std::map<std::string, std::vector<ReqState>>& transitions() {
  static const std::map<std::string, std::vector<ReqState>> t{
      {"request.admitted", {ReqState::kSubmitted}},
      {"request.rejected", {ReqState::kSubmitted}},
      {"request.batched", {ReqState::kAdmitted}},
      {"request.placed", {ReqState::kBatched}},
      {"request.preempted", {ReqState::kPlaced, ReqState::kResumed}},
      {"request.resumed", {ReqState::kPreempted}},
      {"request.completed", {ReqState::kPlaced, ReqState::kResumed}},
      {"request.failed",
       {ReqState::kBatched, ReqState::kPlaced, ReqState::kPreempted,
        ReqState::kResumed}},
  };
  return t;
}

ReqState state_after(const std::string& type) {
  if (type == "request.submitted") return ReqState::kSubmitted;
  if (type == "request.admitted") return ReqState::kAdmitted;
  if (type == "request.rejected") return ReqState::kRejected;
  if (type == "request.batched") return ReqState::kBatched;
  if (type == "request.placed") return ReqState::kPlaced;
  if (type == "request.preempted") return ReqState::kPreempted;
  if (type == "request.resumed") return ReqState::kResumed;
  if (type == "request.completed") return ReqState::kCompleted;
  if (type == "request.failed") return ReqState::kFailed;
  throw InputError(strprintf("events: unknown request event '%s'",
                             type.c_str()));
}

[[noreturn]] void bad(long seq, const std::string& what) {
  throw InputError(strprintf("events: record seq %ld: %s", seq,
                             what.c_str()));
}

}  // namespace

void EventValidator::consume(const Json& record) {
  XG_REQUIRE(!finished_, "events: consume after finish");
  const long i = next_seq_;
  if (!record.is_object()) {
    throw InputError(strprintf("events: record %ld is not an object", i));
  }
  const Json* seq_field = record.find("seq");
  if (seq_field == nullptr) {
    throw InputError(strprintf("events: record %ld has no 'seq'", i));
  }
  const long seq = static_cast<long>(seq_field->as_int());
  if (seq != i) {
    bad(seq, strprintf("expected seq %ld (duplicate, gap, or out-of-order "
                       "record)", i));
  }
  ++next_seq_;
  const Json* t_field = record.find("t");
  if (t_field == nullptr) bad(seq, "missing 't'");
  const double t = t_field->as_double();
  if (!std::isfinite(t) || t < 0.0) bad(seq, "non-finite or negative 't'");
  if (i > 0 && t < prev_t_) {
    bad(seq, strprintf("time runs backwards (%.9g after %.9g)", t, prev_t_));
  }
  prev_t_ = t;
  const Json* type_field = record.find("type");
  if (type_field == nullptr) bad(seq, "missing 'type'");
  const std::string& type = type_field->as_string();
  if (closed_) {
    bad(seq, "record after the log's terminal service.* record");
  }
  ++stats_.records;
  ++stats_.by_type[type];

  if (i == 0) {
    if (type != "service.start") {
      bad(seq, "first record must be service.start");
    }
    const Json* schema = record.find("schema");
    if (schema == nullptr || schema->as_string() != kEventSchema) {
      bad(seq, "service.start missing schema 'xgyro.events'");
    }
    if (record.at("schema_version").as_int() != kEventSchemaVersion) {
      bad(seq, "unsupported schema_version");
    }
    return;
  }
  if (type == "service.start") bad(seq, "second service.start");

  if (type == "service.end") {
    stats_.ended = true;
    closed_ = true;
    return;
  }
  if (type == "service.aborted") {
    stats_.aborted = true;
    closed_ = true;
    return;
  }
  if (type == "monitor.snapshot" || type == "slo.alert") return;

  if (type == "job.modeled" || type == "job.audited") {
    const Json* job_field = record.find("job");
    if (job_field == nullptr || job_field->as_int() < 0) {
      bad(seq, type + " without a non-negative 'job' id");
    }
    const Json* price = record.find("price_s");
    if (price == nullptr || !std::isfinite(price->as_double()) ||
        price->as_double() < 0.0) {
      bad(seq, type + " without a finite non-negative 'price_s'");
    }
    if (type == "job.audited") {
      const Json* measured = record.find("measured_s");
      if (measured == nullptr || !std::isfinite(measured->as_double()) ||
          measured->as_double() < 0.0) {
        bad(seq, "job.audited without a finite non-negative 'measured_s'");
      }
      ++stats_.jobs_audited;
    } else {
      ++stats_.jobs_modeled;
    }
    return;
  }

  if (type.rfind("request.", 0) != 0) {
    bad(seq, strprintf("unknown event type '%s'", type.c_str()));
  }
  const Json* req_field = record.find("request");
  if (req_field == nullptr) bad(seq, type + " has no 'request' id");
  const int id = static_cast<int>(req_field->as_int());

  const auto it = req_state_.find(id);
  if (type == "request.submitted") {
    if (it != req_state_.end()) {
      bad(seq, strprintf("request %d submitted twice", id));
    }
    req_state_[id] = static_cast<int>(ReqState::kSubmitted);
    ++stats_.requests;
    return;
  }
  const auto legal_it = transitions().find(type);
  if (legal_it == transitions().end()) {
    bad(seq, strprintf("unknown request event '%s'", type.c_str()));
  }
  if (it == req_state_.end()) {
    bad(seq, strprintf("%s for request %d before request.submitted",
                       type.c_str(), id));
  }
  const auto& legal = legal_it->second;
  const auto cur = static_cast<ReqState>(it->second);
  if (std::find(legal.begin(), legal.end(), cur) == legal.end()) {
    bad(seq, strprintf("illegal transition for request %d: %s while %s",
                       id, type.c_str(), req_state_name(cur)));
  }
  const ReqState next = state_after(type);
  it->second = static_cast<int>(next);
  if (is_terminal(next)) {
    ++stats_.terminals;
    if (next == ReqState::kCompleted) ++stats_.completed;
    if (next == ReqState::kFailed) ++stats_.failed;
    if (next == ReqState::kRejected) ++stats_.rejected;
  }
}

EventLogStats EventValidator::finish() {
  XG_REQUIRE(!finished_, "events: finish called twice");
  finished_ = true;
  if (stats_.records == 0) {
    throw InputError("events: empty log (no service.start record)");
  }
  if (!stats_.aborted) {
    for (const auto& [id, s] : req_state_) {
      if (!is_terminal(static_cast<ReqState>(s))) {
        throw InputError(strprintf(
            "events: request %d never reached a terminal state (last: %s) "
            "and the log did not abort", id,
            req_state_name(static_cast<ReqState>(s))));
      }
    }
  }
  return stats_;
}

EventLogStats validate_events(const std::vector<Json>& records) {
  EventValidator v;
  for (const Json& rec : records) v.consume(rec);
  return v.finish();
}

std::vector<Json> load_event_log(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    throw Error(strprintf("events: cannot open '%s'", path.c_str()));
  }
  std::string text;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    text.append(buf, got);
  }
  std::fclose(f);

  std::vector<Json> records;
  size_t start = 0;
  int line_no = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    ++line_no;
    const std::string_view line(text.data() + start, end - start);
    if (!line.empty()) {
      try {
        records.push_back(Json::parse(line));
      } catch (const InputError& e) {
        throw InputError(strprintf("events: %s line %d: %s", path.c_str(),
                                   line_no, e.what()));
      }
    }
    start = end + 1;
  }
  return records;
}

EventLogStats validate_event_log_file(const std::string& path) {
  return validate_events(load_event_log(path));
}

// ---------------------------------------------------------------------------
// Per-tenant Perfetto view

namespace {

constexpr double kSecToUs = 1e6;

Json slice(int pid, int tid, const std::string& name, double t0, double t1,
           Json args) {
  return Json::object()
      .set("ph", "X")
      .set("name", name)
      .set("cat", "service")
      .set("pid", pid)
      .set("tid", tid)
      .set("ts", t0 * kSecToUs)
      .set("dur", std::max(t1 - t0, 0.0) * kSecToUs)
      .set("args", std::move(args));
}

}  // namespace

Json service_chrome_trace(const std::vector<Json>& records) {
  // Per-request running view, filled as lifecycle events stream past.
  struct Req {
    int id = -1;
    std::string tenant;
    int pid = 0;
    double t_admitted = -1.0;
    double t_batched = -1.0;
    double t_ready = -1.0;    ///< batch close (from request.placed.ready_s)
    double t_placed = -1.0;
    double t_segment = -1.0;  ///< current run/preempted segment start
    bool in_preempt = false;
    int job = -1;
    int k = 0, nodes = 0;
  };
  std::map<int, Req> reqs;
  std::map<std::string, int> tenant_pid;  // tenant -> pid (1-based)
  struct JobTrack {
    double t_first = -1.0;
    double t_last = -1.0;
    int k = 0, nodes = 0;
  };
  std::map<int, JobTrack> job_tracks;  // job id -> coverage on pid 0

  Json events = Json::array();
  std::set<std::pair<int, int>> tracks;  // (pid, tid) with X rows

  auto emit = [&](int pid, int tid, const std::string& name, double t0,
                  double t1, Json args) {
    events.push(slice(pid, tid, name, t0, t1, std::move(args)));
    tracks.insert({pid, tid});
  };

  for (const Json& rec : records) {
    const Json* type_field = rec.find("type");
    if (type_field == nullptr) continue;
    const std::string& type = type_field->as_string();
    if (type.rfind("request.", 0) != 0) continue;
    const double t = rec.at("t").as_double();
    const int id = static_cast<int>(rec.at("request").as_int());

    if (type == "request.submitted") {
      Req r;
      r.id = id;
      r.tenant = rec.at("tenant").as_string();
      auto [it, fresh] =
          tenant_pid.insert({r.tenant, static_cast<int>(tenant_pid.size()) + 1});
      (void)fresh;
      r.pid = it->second;
      reqs[id] = std::move(r);
      continue;
    }
    auto rit = reqs.find(id);
    if (rit == reqs.end()) continue;
    Req& r = rit->second;

    if (type == "request.admitted") {
      r.t_admitted = t;
    } else if (type == "request.batched") {
      r.t_batched = t;
    } else if (type == "request.placed") {
      r.t_placed = r.t_segment = t;
      r.job = static_cast<int>(rec.at("job").as_int());
      r.k = static_cast<int>(rec.at("k").as_int());
      r.nodes = static_cast<int>(rec.at("nodes").as_int());
      if (const Json* ready = rec.find("ready_s"); ready != nullptr) {
        r.t_ready = ready->as_double();
      }
      const double batch_end = r.t_ready >= 0.0 ? std::min(r.t_ready, t) : t;
      if (r.t_batched >= 0.0) {
        emit(r.pid, id, "batch", r.t_batched, batch_end,
             Json::object().set("job", r.job));
      }
      emit(r.pid, id, "queue", batch_end, t,
           Json::object().set("job", r.job).set(
               "wait_s", rec.at("wait_s").as_double()));
      JobTrack& jt = job_tracks[r.job];
      if (jt.t_first < 0.0) {
        jt.t_first = t;
        jt.k = r.k;
        jt.nodes = r.nodes;
      }
    } else if (type == "request.preempted") {
      if (r.t_segment >= 0.0) {
        emit(r.pid, id, "run", r.t_segment, t,
             Json::object().set("job", r.job));
        r.t_segment = t;  // reused as the preempted-slice start
        r.in_preempt = true;
      }
    } else if (type == "request.resumed") {
      if (r.t_segment >= 0.0) {
        emit(r.pid, id, "preempted", r.t_segment, t,
             Json::object().set("job", r.job));
      }
      r.t_segment = t;
      r.in_preempt = false;
    } else if (type == "request.completed" || type == "request.failed") {
      if (r.t_placed >= 0.0 && r.t_segment >= 0.0) {
        emit(r.pid, id, r.in_preempt ? "preempted" : "run", r.t_segment, t,
             Json::object().set("job", r.job));
      } else if (r.t_batched >= 0.0) {
        // Failed before placement: the whole life was queueing.
        emit(r.pid, id, "queue", r.t_batched, t, Json::object());
      }
      if (r.job >= 0) {
        JobTrack& jt = job_tracks[r.job];
        jt.t_last = std::max(jt.t_last, t);
      }
    }
  }

  Json all = Json::array();
  // Process metadata: pid 0 is the service-wide job view, tenants follow.
  if (!job_tracks.empty()) {
    all.push(Json::object()
                 .set("ph", "M")
                 .set("name", "process_name")
                 .set("pid", 0)
                 .set("tid", 0)
                 .set("args", Json::object().set("name", "service")));
  }
  for (const auto& [tenant, pid] : tenant_pid) {
    all.push(Json::object()
                 .set("ph", "M")
                 .set("name", "process_name")
                 .set("pid", pid)
                 .set("tid", 0)
                 .set("args", Json::object().set(
                     "name", strprintf("tenant %s", tenant.c_str()))));
  }
  for (const auto& [job, jt] : job_tracks) {
    if (jt.t_first < 0.0 || jt.t_last < jt.t_first) continue;
    events.push(slice(0, job, strprintf("job %d", job), jt.t_first, jt.t_last,
                      Json::object().set("k", jt.k).set("nodes", jt.nodes)));
    tracks.insert({0, job});
  }
  for (const auto& [pid, tid] : tracks) {
    all.push(Json::object()
                 .set("ph", "M")
                 .set("name", "thread_name")
                 .set("pid", pid)
                 .set("tid", tid)
                 .set("args", Json::object().set(
                     "name", pid == 0 ? strprintf("job %d", tid)
                                      : strprintf("req %d", tid))));
  }
  for (auto& e : events.elems()) all.push(e);

  return Json::object()
      .set("schema", "xgyro.trace")
      .set("schema_version", 1)
      .set("displayTimeUnit", "ms")
      .set("traceEvents", std::move(all));
}

}  // namespace xg::telemetry
