#include "telemetry/events.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <set>

#include "telemetry/trace.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

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
  write(make_event(last_seq_ + 1, last_t_,
                   event_name(EventKind::kServiceAborted))
            .set("reason", reason));
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
// The record kinds

namespace {

template <class... Kinds>
constexpr std::uint32_t after(Kinds... prior) {
  return ((std::uint32_t{1} << static_cast<unsigned>(prior)) | ...);
}

// One row per EventKind, in enum order; the request rows are the grammar.
using K = EventKind;
constexpr EventKindRow kKinds[] = {
    {""},
    {"service.start"},
    {"service.end"},
    {"service.aborted"},
    {"monitor.snapshot"},
    {"slo.alert"},
    {"job.modeled"},
    {"job.audited"},
    {"request.submitted", after(K::kNone)},
    {"request.admitted", after(K::kRequestSubmitted)},
    {"request.rejected", after(K::kRequestSubmitted), true},
    {"request.batched", after(K::kRequestAdmitted)},
    {"request.placed", after(K::kRequestBatched)},
    {"request.preempted", after(K::kRequestPlaced, K::kRequestResumed)},
    {"request.resumed", after(K::kRequestPreempted)},
    {"request.completed", after(K::kRequestPlaced, K::kRequestResumed), true},
    {"request.failed",
     after(K::kRequestBatched, K::kRequestPlaced, K::kRequestPreempted,
           K::kRequestResumed),
     true},
};
static_assert(std::size(kKinds) == kEventKindCount);

/// "placed" for request.placed: how the messages name a request's state.
std::string state_name(EventKind k) {
  const std::string_view name = event_name(k);
  return std::string(name.substr(name.find('.') + 1));
}

/// The prefix every request kind's name shares, up to its dot.
std::string_view request_prefix() {
  const std::string_view name = event_name(EventKind::kRequestSubmitted);
  return name.substr(0, name.find('.') + 1);
}

}  // namespace

const EventKindRow& kind_row(EventKind k) {
  return kKinds[static_cast<size_t>(k)];
}

EventKind event_kind(std::string_view type) {
  // Request records are most of a log, so scan from the table's end.
  for (int k = kEventKindCount - 1; k > 0; --k) {
    if (kKinds[k].name == type) return static_cast<EventKind>(k);
  }
  return EventKind::kNone;
}

std::string transition_error(int request, EventKind prior, EventKind next) {
  const std::string name(event_name(next));
  if (next == EventKind::kRequestSubmitted) {
    return strprintf("request %d submitted twice", request);
  }
  if (prior == EventKind::kNone) {
    return strprintf("%s for request %d before request.submitted",
                     name.c_str(), request);
  }
  return strprintf("illegal transition for request %d: %s while %s", request,
                   name.c_str(), state_name(prior).c_str());
}

void advance_request(EventKind& state, int request, EventKind next) {
  if (!may_follow(state, next)) {
    throw Error("events: " + transition_error(request, state, next));
  }
  state = next;
}

// ---------------------------------------------------------------------------
// Validation

namespace {

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
  const EventKind kind = event_kind(type);

  if (i == 0) {
    if (kind != EventKind::kServiceStart) {
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

  switch (kind) {
    case EventKind::kNone:
      bad(seq, strprintf(starts_with(type, request_prefix())
                             ? "unknown request event '%s'"
                             : "unknown event type '%s'",
                         type.c_str()));
    case EventKind::kServiceStart:
      bad(seq, "second service.start");
    case EventKind::kServiceEnd:
    case EventKind::kServiceAborted:
      (kind == EventKind::kServiceEnd ? stats_.ended : stats_.aborted) = true;
      closed_ = true;
      return;
    case EventKind::kMonitorSnapshot:
    case EventKind::kSloAlert:
      return;
    case EventKind::kJobModeled:
    case EventKind::kJobAudited: {
      const Json* job_field = record.find("job");
      if (job_field == nullptr || job_field->as_int() < 0) {
        bad(seq, type + " without a non-negative 'job' id");
      }
      const auto require_cost = [&](const char* key) {
        const Json* f = record.find(key);
        if (f == nullptr || !std::isfinite(f->as_double()) ||
            f->as_double() < 0.0) {
          bad(seq, strprintf("%s without a finite non-negative '%s'",
                             type.c_str(), key));
        }
      };
      require_cost("price_s");
      if (kind == EventKind::kJobAudited) {
        require_cost("measured_s");
        ++stats_.jobs_audited;
      } else {
        ++stats_.jobs_modeled;
      }
      return;
    }
    default:
      break;  // a request kind
  }

  const Json* req_field = record.find("request");
  if (req_field == nullptr) bad(seq, type + " has no 'request' id");
  const int id = static_cast<int>(req_field->as_int());
  EventKind& state = req_state_[id];  // kNone for a request not yet seen
  if (!may_follow(state, kind)) bad(seq, transition_error(id, state, kind));
  state = kind;
  if (kind == EventKind::kRequestSubmitted) ++stats_.requests;
  if (kind_row(kind).terminal) {
    ++stats_.terminals;
    if (kind == EventKind::kRequestCompleted) ++stats_.completed;
    if (kind == EventKind::kRequestFailed) ++stats_.failed;
    if (kind == EventKind::kRequestRejected) ++stats_.rejected;
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
      if (!kind_row(s).terminal) {
        throw InputError(strprintf(
            "events: request %d never reached a terminal state (last: %s) "
            "and the log did not abort", id, state_name(s).c_str()));
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
  const auto file = read_text_file(path);
  if (!file) throw Error(strprintf("events: cannot open '%s'", path.c_str()));
  const std::string& text = *file;

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

Json service_chrome_trace(const std::vector<Json>& records) {
  // Per-request running view, filled as lifecycle events stream past.
  struct Req {
    int pid = 0;
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
    events.push(trace_slice_row(name, "service", pid, tid, t0,
                                std::max(t1 - t0, 0.0), std::move(args)));
    tracks.insert({pid, tid});
  };

  for (const Json& rec : records) {
    const Json* type_field = rec.find("type");
    if (type_field == nullptr) continue;
    const EventKind kind = event_kind(type_field->as_string());
    if (!is_request_kind(kind)) continue;
    const double t = rec.at("t").as_double();
    const int id = static_cast<int>(rec.at("request").as_int());

    if (kind == EventKind::kRequestSubmitted) {
      const auto pid = tenant_pid.insert(
          {rec.at("tenant").as_string(),
           static_cast<int>(tenant_pid.size()) + 1});
      reqs[id] = Req{pid.first->second};
      continue;
    }
    auto rit = reqs.find(id);
    if (rit == reqs.end()) continue;
    Req& r = rit->second;

    switch (kind) {
      case EventKind::kRequestBatched:
        r.t_batched = t;
        break;
      case EventKind::kRequestPlaced: {
        r.t_placed = r.t_segment = t;
        r.job = static_cast<int>(rec.at("job").as_int());
        r.k = static_cast<int>(rec.at("k").as_int());
        r.nodes = static_cast<int>(rec.at("nodes").as_int());
        if (const Json* ready = rec.find("ready_s"); ready != nullptr) {
          r.t_ready = ready->as_double();
        }
        const double batch_end =
            r.t_ready >= 0.0 ? std::min(r.t_ready, t) : t;
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
        break;
      }
      case EventKind::kRequestPreempted:
        if (r.t_segment >= 0.0) {
          emit(r.pid, id, "run", r.t_segment, t,
               Json::object().set("job", r.job));
          r.t_segment = t;  // reused as the preempted-slice start
          r.in_preempt = true;
        }
        break;
      case EventKind::kRequestResumed:
        if (r.t_segment >= 0.0) {
          emit(r.pid, id, "preempted", r.t_segment, t,
               Json::object().set("job", r.job));
        }
        r.t_segment = t;
        r.in_preempt = false;
        break;
      case EventKind::kRequestCompleted:
      case EventKind::kRequestFailed:
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
        break;
      default:
        break;  // admitted, rejected: no slice
    }
  }

  Json all = Json::array();
  // Process metadata: pid 0 is the service-wide job view, tenants follow.
  if (!job_tracks.empty()) {
    all.push(trace_meta_row("process_name", 0, 0, "service"));
  }
  for (const auto& [tenant, pid] : tenant_pid) {
    all.push(trace_meta_row("process_name", pid, 0,
                            strprintf("tenant %s", tenant.c_str())));
  }
  for (const auto& [job, jt] : job_tracks) {
    if (jt.t_first < 0.0 || jt.t_last < jt.t_first) continue;
    emit(0, job, strprintf("job %d", job), jt.t_first, jt.t_last,
         Json::object().set("k", jt.k).set("nodes", jt.nodes));
  }
  for (const auto& [pid, tid] : tracks) {
    all.push(trace_meta_row("thread_name", pid, tid,
                            strprintf(pid == 0 ? "job %d" : "req %d", tid)));
  }
  for (auto& e : events.elems()) all.push(e);
  return trace_document(std::move(all));
}

}  // namespace xg::telemetry
