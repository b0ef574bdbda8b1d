#include "telemetry/trace.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::telemetry {

namespace {

constexpr double kSecToUs = 1e6;

/// pid for a member id: members are 0-based; rows with no member attribution
/// (plain CGYRO runs) land in pid 0, members shift up by one.
int pid_of(int member) { return member + 1; }

}  // namespace

Json trace_meta_row(const char* what, int pid, int tid,
                    const std::string& name) {
  return Json::object()
      .set("ph", "M")
      .set("name", what)
      .set("pid", pid)
      .set("tid", tid)
      .set("args", Json::object().set("name", name));
}

Json trace_slice_row(const std::string& name, const char* cat, int pid,
                     int tid, double ts_s, double dur_s, Json args) {
  return Json::object()
      .set("ph", "X")
      .set("name", name)
      .set("cat", cat)
      .set("pid", pid)
      .set("tid", tid)
      .set("ts", ts_s * kSecToUs)
      .set("dur", dur_s * kSecToUs)
      .set("args", std::move(args));
}

Json trace_document(Json trace_events) {
  return Json::object()
      .set("schema", "xgyro.trace")
      .set("schema_version", 1)
      .set("displayTimeUnit", "ms")
      .set("traceEvents", std::move(trace_events));
}

std::vector<CollectiveSkew> collective_skew(const mpi::RunResult& result) {
  struct Agg {
    CollectiveSkew skew;
    double min_start = 0.0, max_start = 0.0;
    double min_end = 0.0, max_end = 0.0;
    bool seen = false;
  };
  std::map<std::pair<std::uint64_t, std::uint64_t>, Agg> groups;
  for (const auto& e : result.trace) {
    Agg& a = groups[{e.comm_context, e.seq}];
    if (!a.seen) {
      a.seen = true;
      a.skew.comm_context = e.comm_context;
      a.skew.seq = e.seq;
      a.skew.comm_label = e.comm_label;
      a.skew.kind = e.kind;
      a.skew.participants = e.participants;
      a.min_start = a.max_start = e.t_start;
      a.min_end = a.max_end = e.t_end;
    } else {
      a.min_start = std::min(a.min_start, e.t_start);
      a.max_start = std::max(a.max_start, e.t_start);
      a.min_end = std::min(a.min_end, e.t_end);
      a.max_end = std::max(a.max_end, e.t_end);
    }
    ++a.skew.rows;
  }
  std::vector<CollectiveSkew> out;
  out.reserve(groups.size());
  for (auto& [key, a] : groups) {
    a.skew.start_skew_s = a.max_start - a.min_start;
    a.skew.end_skew_s = a.max_end - a.min_end;
    out.push_back(std::move(a.skew));
  }
  std::sort(out.begin(), out.end(), [&groups](const CollectiveSkew& x,
                                              const CollectiveSkew& y) {
    const auto& ax = groups.at({x.comm_context, x.seq});
    const auto& ay = groups.at({y.comm_context, y.seq});
    if (ax.min_start != ay.min_start) return ax.min_start < ay.min_start;
    if (x.comm_context != y.comm_context) return x.comm_context < y.comm_context;
    return x.seq < y.seq;
  });
  return out;
}

double max_collective_skew_s(const mpi::RunResult& result) {
  double m = 0.0;
  for (const auto& s : collective_skew(result)) {
    m = std::max(m, s.start_skew_s);
  }
  return m;
}

Json chrome_trace_json(const mpi::RunResult& result) {
  Json events = Json::array();

  // Track metadata: which (member, rank) pairs appear anywhere.
  std::set<std::pair<int, int>> tracks;  // (pid, tid)
  for (const auto& s : result.spans) {
    tracks.insert({pid_of(s.member), s.world_rank});
  }
  for (const auto& e : result.trace) {
    tracks.insert({pid_of(e.member), e.world_rank});
  }

  std::set<int> pids;
  for (const auto& [pid, tid] : tracks) pids.insert(pid);
  for (const int pid : pids) {
    events.push(trace_meta_row(
        "process_name", pid, 0,
        pid == 0 ? std::string("run") : strprintf("member %d", pid - 1)));
  }
  for (const auto& [pid, tid] : tracks) {
    events.push(
        trace_meta_row("thread_name", pid, tid, strprintf("rank %d", tid)));
  }

  for (const auto& s : result.spans) {
    events.push(trace_slice_row(s.name, "span", pid_of(s.member),
                                s.world_rank, s.t_start, s.t_end - s.t_start,
                                Json::object().set("phase", Json(s.phase))));
  }
  for (const auto& e : result.trace) {
    // comm_context is a 64-bit hash; Json stores integers as int64 and falls
    // back to double above INT64_MAX, so serialize it as a hex string to
    // keep (ctx, seq) grouping exact for the validator.
    events.push(trace_slice_row(
        strprintf("mpi.%s", mpi::trace_kind_name(e.kind)), "collective",
        pid_of(e.member), e.world_rank, e.t_start, e.t_end - e.t_start,
        Json::object()
            .set("comm", Json(e.comm_label))
            .set("alg", Json(mpi::coll_alg_name(e.alg)))
            .set("ctx", Json(hex64(e.comm_context)))
            .set("seq", Json(e.seq))
            .set("local_rank", Json(e.local_rank))
            .set("participants", Json(e.participants))
            .set("payload_bytes", Json(e.payload_bytes))
            .set("phase", Json(e.phase))
            .set("arrival_skew_us", Json(e.arrival_skew_s * kSecToUs))
            .set("last_arriver", Json(e.last_arriver))));
  }
  return trace_document(std::move(events));
}

void write_chrome_trace(const std::string& path, const mpi::RunResult& result) {
  write_json_file(path, chrome_trace_json(result));
}

TraceCheck check_chrome_trace(const Json& doc) {
  const Json* schema = doc.find("schema");
  if (schema == nullptr || schema->as_string() != "xgyro.trace") {
    throw InputError("trace: missing or wrong 'schema' field");
  }
  if (doc.at("schema_version").as_int() != 1) {
    throw InputError("trace: unsupported schema_version");
  }
  const Json& events = doc.at("traceEvents");
  if (!events.is_array()) throw InputError("trace: traceEvents must be an array");

  TraceCheck check;
  std::set<std::pair<int, int>> named_tracks;   // (pid, tid) with thread_name
  std::set<std::pair<int, int>> event_tracks;   // (pid, tid) with an X row
  // Per-collective-instance consistency: all rows sharing a (ctx, seq) key
  // must agree on `participants` and on the algorithm that ran, and no
  // instance may have more rows than participants. Keyed by the hex ctx
  // string so 64-bit contexts stay exact.
  struct InstanceAgg {
    std::int64_t participants = -1;
    std::string alg;
    bool has_alg = false;
    int rows = 0;
  };
  std::map<std::pair<std::string, std::int64_t>, InstanceAgg> instances;
  for (const auto& e : events.elems()) {
    const std::string& ph = e.at("ph").as_string();
    const int pid = static_cast<int>(e.at("pid").as_int());
    const int tid = static_cast<int>(e.at("tid").as_int());
    if (ph == "M") {
      if (e.at("name").as_string() == "thread_name") {
        named_tracks.insert({pid, tid});
      }
      continue;
    }
    if (ph != "X") {
      throw InputError(strprintf("trace: unexpected event phase '%s'", ph.c_str()));
    }
    const double ts = e.at("ts").as_double();
    const double dur = e.at("dur").as_double();
    if (!std::isfinite(ts) || !std::isfinite(dur) || ts < 0.0 || dur < 0.0) {
      throw InputError("trace: complete event with non-finite or negative ts/dur");
    }
    (void)e.at("name").as_string();
    event_tracks.insert({pid, tid});
    ++check.n_complete_events;

    // Collective rows carry ctx/seq/participants args; older traces without
    // them (pre-analysis schema additions) skip the group check.
    if (const Json* args = e.find("args"); args != nullptr) {
      const Json* ctx = args->find("ctx");
      const Json* seq = args->find("seq");
      const Json* participants = args->find("participants");
      if (ctx != nullptr && seq != nullptr && participants != nullptr) {
        InstanceAgg& agg =
            instances[{ctx->as_string(), seq->as_int()}];
        const std::int64_t p = participants->as_int();
        if (agg.participants < 0) {
          agg.participants = p;
        } else if (agg.participants != p) {
          throw InputError(strprintf(
              "trace: collective ctx %s seq %lld has mismatched participant "
              "counts across members (%lld vs %lld)",
              ctx->as_string().c_str(),
              static_cast<long long>(seq->as_int()),
              static_cast<long long>(agg.participants),
              static_cast<long long>(p)));
        }
        // `alg` joined the schema with the collective selector; traces from
        // before it are still valid, but where present all members of an
        // instance must have run the same algorithm.
        if (const Json* alg = args->find("alg"); alg != nullptr) {
          if (!agg.has_alg) {
            agg.alg = alg->as_string();
            agg.has_alg = true;
          } else if (agg.alg != alg->as_string()) {
            throw InputError(strprintf(
                "trace: collective ctx %s seq %lld has mismatched algorithms "
                "across members ('%s' vs '%s')",
                ctx->as_string().c_str(),
                static_cast<long long>(seq->as_int()), agg.alg.c_str(),
                alg->as_string().c_str()));
          }
        }
        ++agg.rows;
        if (agg.rows > agg.participants) {
          throw InputError(strprintf(
              "trace: collective ctx %s seq %lld has %d rows but only %lld "
              "participants",
              ctx->as_string().c_str(),
              static_cast<long long>(seq->as_int()), agg.rows,
              static_cast<long long>(agg.participants)));
        }
      }
    }
  }
  check.n_collective_instances = static_cast<int>(instances.size());

  check.n_tracks = static_cast<int>(named_tracks.size());
  std::set<int> ranks;
  for (const auto& [pid, tid] : event_tracks) {
    if (named_tracks.count({pid, tid}) == 0) {
      throw InputError(strprintf(
          "trace: events on pid %d tid %d without a thread_name row", pid, tid));
    }
    ranks.insert(tid);
  }
  check.ranks_with_tracks.assign(ranks.begin(), ranks.end());
  return check;
}

}  // namespace xg::telemetry
