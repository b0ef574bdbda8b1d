#include "campaign/service.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <utility>

#include "campaign/monitor.hpp"
#include "perfmodel/perfmodel.hpp"
#include "telemetry/events.hpp"
#include "telemetry/report.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "xgyro/driver.hpp"

namespace xg::campaign {

const char* admission_name(Admission a) {
  switch (a) {
    case Admission::kAccepted: return "accepted";
    case Admission::kRejectedQueueFull: return "rejected_queue_full";
    case Admission::kRejectedTenantQuota: return "rejected_tenant_quota";
    case Admission::kRejectedInfeasible: return "rejected_infeasible";
  }
  return "unknown";
}

const char* placement_name(PlacementPolicy p) {
  switch (p) {
    case PlacementPolicy::kFirstFit: return "first-fit";
    case PlacementPolicy::kFifo: return "fifo";
    case PlacementPolicy::kBackfill: return "backfill";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Synthetic streams

StreamSpec StreamSpec::parse(const std::string& spec) {
  StreamSpec out;
  for (const auto& [key, value] : spec_items(spec, "stream")) {
    if (key == "seed") {
      out.seed = static_cast<std::uint64_t>(parse_long(value, "stream:seed"));
    } else if (key == "n") {
      out.n = parse_int(value, "stream:n");
      if (out.n < 0) throw InputError("stream: n must be >= 0");
    } else if (key == "rate") {
      out.rate_hz = parse_double(value, "stream:rate");
      if (out.rate_hz <= 0.0) throw InputError("stream: rate must be > 0");
    } else if (key == "tenants") {
      out.tenants = parse_int(value, "stream:tenants");
      if (out.tenants < 1) throw InputError("stream: tenants must be >= 1");
    } else if (key == "sigs") {
      out.signatures = parse_int(value, "stream:sigs");
      if (out.signatures < 1) throw InputError("stream: sigs must be >= 1");
    } else if (key == "prios") {
      out.priorities = parse_int(value, "stream:prios");
      if (out.priorities < 1) throw InputError("stream: prios must be >= 1");
    } else if (key == "species") {
      out.species = parse_int(value, "stream:species");
      if (out.species < 1) throw InputError("stream: species must be >= 1");
    } else if (key == "skew") {
      const long v = parse_long(value, "stream:skew");
      if (v != 0 && v != 1) throw InputError("stream: skew must be 0 or 1");
      out.skew = v == 1;
    } else if (key == "kills") {
      out.kill_frac = parse_double(value, "stream:kills");
      if (out.kill_frac < 0.0 || out.kill_frac > 1.0) {
        throw InputError("stream: kills must be in [0,1]");
      }
    } else {
      throw InputError(strprintf("stream: unknown component '%s'",
                                 key.c_str()));
    }
  }
  return out;
}

std::vector<Request> StreamSpec::generate() const {
  Rng rng(seed);
  const gyro::Input base = gyro::Input::small_test(species);
  std::vector<Request> out;
  out.reserve(static_cast<size_t>(n));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.next_double()) / rate_hz;
    Request r;
    r.arrival_s = t;
    r.tenant = strprintf("t%d", static_cast<int>(rng.next_below(
                                    static_cast<std::uint64_t>(tenants))));
    r.priority = static_cast<int>(
        rng.next_below(static_cast<std::uint64_t>(priorities)));
    int sig = 0;
    if (signatures > 1) {
      if (skew) {
        while (sig + 1 < signatures && rng.next_double() < 0.5) ++sig;
      } else {
        sig = static_cast<int>(
            rng.next_below(static_cast<std::uint64_t>(signatures)));
      }
    }
    r.input = base;
    // nu_ee is cmat-relevant: each signature builds a distinct cmat. The
    // gradient drive and seed are sweep-safe: members within a signature
    // differ physically but still share one cmat.
    r.input.collision.nu_ee = base.collision.nu_ee * (1.0 + 0.5 * sig);
    r.input.species[0].a_ln_t = 2.0 + 0.125 * (i % 16);
    r.input.seed = seed + 17 * static_cast<std::uint64_t>(i) + 1;
    r.input.tag = strprintf("req%d", i);
    const double kill_draw = rng.next_double();
    if (kill_frac > 0.0 && kill_draw < kill_frac) {
      r.faults.seed = seed + static_cast<std::uint64_t>(i);
      r.faults.add_kill(1, 1e-6 * (1.0 + double(rng.next_below(100))));
    }
    out.push_back(std::move(r));
  }
  return out;
}

// ---------------------------------------------------------------------------
// The engine

namespace {

using telemetry::EventKind;
using telemetry::Json;

const std::vector<double>& wait_bounds() {
  static const std::vector<double> b{1e-3, 1e-2, 0.1, 1.0, 10.0,
                                     100.0, 1e3,  1e4, 1e5};
  return b;
}

Json queue_wait_json(const QueueWaitStats& st) {
  return Json::object()
      .set("p50", st.p50)
      .set("p95", st.p95)
      .set("p99", st.p99)
      .set("mean", st.mean)
      .set("max", st.max)
      .set("n", st.n);
}

Json queue_wait_by_tenant_json(const ServiceResult& r) {
  Json by_tenant = Json::object();
  for (const auto& [tenant, st] : r.tenant_queue_wait) {
    by_tenant.set(tenant, queue_wait_json(st));
  }
  return by_tenant;
}

/// The run's request and job counts (service.end record and report).
Json totals_json(const ServiceResult& r) {
  return Json::object()
      .set("admitted", r.admitted)
      .set("rejected", r.rejected)
      .set("completed", r.completed)
      .set("failed", r.failed)
      .set("jobs", static_cast<std::int64_t>(r.jobs.size()));
}

/// Exact quantile of an already-sorted sample: the ceil(q·n)-th value.
double exact_quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto idx = static_cast<size_t>(std::ceil(q * n));
  if (idx > 0) --idx;
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

enum class EvKind {
  kArrival = 0,
  kWindowClose = 1,
  kSliceDone = 2,
  // Observability tick: reads monitor state and emits a monitor.snapshot
  // record. Never mutates scheduling state, so enabling it leaves the
  // service's virtual-time results bit-identical.
  kMetricsTick = 3,
};

struct Event {
  double t = 0.0;
  long seq = 0;  ///< creation order; ties on t resolve deterministically
  EvKind kind = EvKind::kArrival;
  int idx = -1;  ///< request id / batch id / job id, per kind
};

struct EventAfter {
  bool operator()(const Event& a, const Event& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

struct OpenBatch {
  std::uint64_t fp = 0;
  std::vector<int> request_ids;
  bool closed = false;
  double close_s = 0.0;  ///< scheduled window close (event-log annotation)
};

/// One job's scheduling state. Its allocation is rec.nodes nodes of the
/// configured cluster, its members are rec.request_ids, and it is done once
/// rec.finish_s is set.
struct JobState {
  ServiceJobRecord rec;
  mpi::FaultPlan faults;
  int intervals_done = 0;
  int recoveries_left = 0;
  double queue_since = 0.0;  ///< last time the job (re)entered the ready set
  double backlog_contrib = 0.0;  ///< this job's share of the backlog total
  double slice_end_s = 0.0;      ///< when the slice in flight ends
  /// Snapshot counters summed over the job's finished slices.
  std::uint64_t snapshots_committed = 0;
  std::uint64_t snapshots_rejected = 0;

  // Result of the slice in flight, applied when its kSliceDone event fires.
  int slice_target = 0;
  xgyro::JobResult slice;
  std::optional<xgyro::JobAborted> abort;  ///< set when the slice gave up
};

struct Engine {
  const ServiceConfig& cfg;
  const std::vector<Request>& reqs;

  std::vector<RequestOutcome> outcomes;
  std::vector<EventKind> req_state;  ///< kind of each request's last record
  std::vector<OpenBatch> batches;
  std::vector<JobState> jobs;
  std::vector<int> ready;  ///< job ids waiting for nodes
  std::priority_queue<Event, std::vector<Event>, EventAfter> events;
  long seq = 0;
  int free_nodes = 0;
  int cluster_nodes = 0;  ///< live capacity (failed nodes are gone for good)
  telemetry::MetricsRegistry metrics;
  double now = 0.0;
  double makespan = 0.0;
  int pending_requests = 0;  ///< admitted but job not yet started
  std::map<std::string, int> tenant_inflight;  ///< admitted, not finished
  double busy_node_seconds = 0.0;

  // Production-stream bookkeeping. A 10⁵-request stream makes any
  // per-arrival O(#jobs) work quadratic, so the backlog is maintained
  // incrementally, open batches are indexed by fingerprint, and planner
  // results are memoized per (fingerprint, k) — every request of a
  // signature shares one plan evaluation.
  double backlog_ns = 0.0;  ///< Σ per-job remaining predicted node-seconds
  std::map<std::uint64_t, int> open_by_fp;  ///< fp → open batch index
  std::map<std::uint64_t, bool> feasible;   ///< fp → fits cfg.cluster at k=1
  std::set<int> running_jobs;  ///< jobs with a slice in flight
  /// Per-signature inter-arrival EMA driving the adaptive window.
  struct SigRate {
    double last_s = -1.0;
    double gap_ema_s = 0.0;
  };
  std::map<std::uint64_t, SigRate> sig_rate;
  // Sampled-audit (price, measured) pairs; forced audits are excluded.
  std::vector<double> audit_price, audit_measured;

  // Observability plane. All of it is inert when cfg.events is null: no
  // extra DES events, no per-transition work — the virtual-time results
  // are bit-identical either way (the bench's identity gate pins this).
  telemetry::EventSink* sink = nullptr;
  std::unique_ptr<ServiceMonitor> monitor;
  long ev_seq = 0;
  /// Predicted and realized queue wait of each placed request, in placement
  /// order (the calibration sums them in that order).
  std::vector<double> pred_waits, real_waits;

  Engine(const ServiceConfig& c, const std::vector<Request>& r)
      : cfg(c), reqs(r) {}

  [[nodiscard]] bool observing() const { return sink != nullptr; }

  [[nodiscard]] Json new_event(EventKind kind) {
    return telemetry::make_event(ev_seq++, now, telemetry::event_name(kind));
  }

  /// A record of `kind` carrying the fields of a monitor payload.
  [[nodiscard]] Json new_event(EventKind kind, const Json& payload) {
    Json rec = new_event(kind);
    for (const auto& [key, value] : payload.items()) rec.set(key, value);
    return rec;
  }

  /// Move request `id` along the edge to `next` (an illegal edge throws,
  /// sink or not) and emit its record with the fields `fill` sets.
  template <class Fill>
  void advance(int id, EventKind next, Fill&& fill) {
    telemetry::advance_request(req_state[static_cast<size_t>(id)], id, next);
    if (!observing()) return;
    Json rec = new_event(next);
    fill(rec.set("request", id));
    emit(std::move(rec));
  }

  /// Write one record and run it through the monitor; any SLO alerts the
  /// record triggers are appended to the log (and fed back through the
  /// monitor, which ignores them — no recursion).
  void emit(telemetry::Json rec) {
    sink->write(rec);
    for (const Json& alert : monitor->consume(rec)) {
      const Json al = new_event(EventKind::kSloAlert, alert);
      sink->write(al);
      monitor->consume(al);
    }
  }

  [[nodiscard]] net::MachineSpec machine_with(int n_nodes) const {
    net::MachineSpec m = cfg.cluster;
    m.n_nodes = n_nodes;
    return m;
  }

  void schedule(double t, EvKind kind, int idx) {
    events.push(Event{t, seq++, kind, idx});
  }

  [[nodiscard]] bool sliced() const { return !cfg.checkpoint_root.empty(); }

  /// Predicted seconds of report intervals [from, to) of `js`.
  [[nodiscard]] static double predicted_s(const JobState& js, int from,
                                          int to) {
    return js.rec.predicted_seconds * (to - from);
  }

  /// Move `js`'s share of the backlog to the predicted node-seconds it has
  /// left (none once done). Each live job carries its contribution, so an
  /// arrival reads the backlog in O(1) instead of scanning every job.
  void update_backlog(JobState& js) {
    const double contrib =
        js.rec.finish_s >= 0.0
            ? 0.0
            : predicted_s(js, js.intervals_done, cfg.n_report_intervals) *
                  js.rec.nodes;
    backlog_ns += contrib - js.backlog_contrib;
    js.backlog_contrib = contrib;
    if (backlog_ns < 0.0) backlog_ns = 0.0;  // floating-point drift guard
  }

  Admission admit(const Request& rq, std::uint64_t fp) {
    // Feasibility depends only on the signature's cmat-relevant shape and
    // the configured (pristine) cluster, so it is memoized per
    // fingerprint — one planner sweep per signature, not per request.
    auto [it, fresh] = feasible.try_emplace(fp, false);
    if (fresh) {
      it->second = plan_group(rq.input, 1, cfg.cluster).has_value();
    }
    if (!it->second) return Admission::kRejectedInfeasible;
    const auto ti = tenant_inflight.find(rq.tenant);
    if (ti != tenant_inflight.end() && ti->second >= cfg.tenant_quota) {
      return Admission::kRejectedTenantQuota;
    }
    if (pending_requests >= cfg.max_queue_depth) {
      return Admission::kRejectedQueueFull;
    }
    return Admission::kAccepted;
  }

  void emit_batched(int id, int bi) {
    const OpenBatch& ob = batches[static_cast<size_t>(bi)];
    advance(id, EventKind::kRequestBatched, [&](Json& rec) {
      rec.set("batch", bi)
          .set("signature", hex64(ob.fp))
          .set("window_close_s", ob.close_s)
          .set("peers", static_cast<std::int64_t>(ob.request_ids.size()));
    });
  }

  void on_arrival(int id) {
    const Request& rq = reqs[id];
    RequestOutcome& oc = outcomes[static_cast<size_t>(id)];
    // Per-signature inter-arrival EMA feeding the adaptive window. Every
    // arrival updates it, admitted or not — a rejected request still
    // carries rate information about its signature.
    if (cfg.window_auto) {
      SigRate& sr = sig_rate[oc.cmat_fingerprint];
      if (sr.last_s >= 0.0) {
        const double gap = std::max(now - sr.last_s, 1e-9);
        sr.gap_ema_s =
            sr.gap_ema_s > 0.0 ? 0.7 * sr.gap_ema_s + 0.3 * gap : gap;
      }
      sr.last_s = now;
    }
    advance(id, EventKind::kRequestSubmitted, [&](Json& rec) {
      rec.set("tenant", rq.tenant)
          .set("priority", rq.priority)
          .set("signature", hex64(oc.cmat_fingerprint));
    });
    const Admission a = admit(rq, oc.cmat_fingerprint);
    oc.admission = a;
    metrics.add_counter(std::string("service.requests.") + admission_name(a));
    if (a != Admission::kAccepted) {
      metrics.add_counter("tenant." + rq.tenant + ".rejected");
      advance(id, EventKind::kRequestRejected,
              [&](Json& rec) { rec.set("reason", admission_name(a)); });
      return;
    }
    metrics.add_counter("tenant." + rq.tenant + ".admitted");
    ++pending_requests;
    ++tenant_inflight[rq.tenant];
    oc.predicted_wait_s =
        perfmodel::estimate_queue_wait(backlog_ns, cfg.cluster.n_nodes);
    advance(id, EventKind::kRequestAdmitted, [&](Json& rec) {
      rec.set("queue_depth", pending_requests)
          .set("predicted_wait_s", oc.predicted_wait_s);
    });

    const bool windowed =
        cfg.batching && cfg.batching_window_s > 0.0 && cfg.max_batch > 1;
    if (windowed) {
      // At most one batch per signature is open at any time, so the open
      // set is an fp-keyed index — the old linear scan over every batch
      // ever created was O(#batches) per arrival.
      const auto it = open_by_fp.find(oc.cmat_fingerprint);
      if (it != open_by_fp.end()) {
        const int b = it->second;
        auto& ob = batches[static_cast<size_t>(b)];
        ob.request_ids.push_back(id);
        emit_batched(id, b);
        if (static_cast<int>(ob.request_ids.size()) >= cfg.max_batch) {
          close_batch(b);
        }
        return;
      }
    }
    const std::uint64_t fp = oc.cmat_fingerprint;
    OpenBatch ob;
    ob.fp = fp;
    ob.request_ids.push_back(id);
    const double window =
        !windowed ? 0.0
                  : (cfg.window_auto ? pick_window(fp, rq.input)
                                     : cfg.batching_window_s);
    ob.close_s = now + window;
    batches.push_back(std::move(ob));
    const int bi = static_cast<int>(batches.size()) - 1;
    emit_batched(id, bi);
    if (window > 0.0) {
      open_by_fp[fp] = bi;
      schedule(now + window, EvKind::kWindowClose, bi);
    } else {
      close_batch(bi);
    }
  }

  /// Adaptive window for a batch just opened on signature `fp`: choose the
  /// w maximizing expected shared-cmat savings net of the wait it imposes,
  ///   score(w) = min(λ·w, max_batch − 1) · per_peer_saving(fp) − w,
  /// where λ is the signature's arrival-rate EMA and per_peer_saving the
  /// predicted node-second gain of running a member inside a k=2
  /// shared-cmat pair instead of alone. Candidates are {0, ⅛, ¼, ½, 1}·W
  /// around the configured window W. A signature with no observed
  /// inter-arrival gap yet keeps the full W (nothing to tune from).
  [[nodiscard]] double pick_window(std::uint64_t fp,
                                   const gyro::Input& input) {
    const auto it = sig_rate.find(fp);
    if (it == sig_rate.end() || it->second.gap_ema_s <= 0.0) {
      return cfg.batching_window_s;
    }
    const double rate = 1.0 / it->second.gap_ema_s;
    const double saving = per_peer_saving(fp, input);
    static constexpr double kFractions[] = {0.0, 0.125, 0.25, 0.5, 1.0};
    double best_w = 0.0;
    double best_score = 0.0;
    bool first = true;
    for (const double f : kFractions) {
      const double w = f * cfg.batching_window_s;
      const double peers = std::min(rate * w, double(cfg.max_batch - 1));
      const double score = peers * saving - w;
      if (first || score > best_score + 1e-12) {
        best_w = w;
        best_score = score;
        first = false;
      }
    }
    return best_w;
  }

  /// One job-to-be: gb.k members on `nodes` nodes with `gb`'s layout.
  struct Chunk {
    int nodes = 0;
    GroupBatch gb;
  };

  // Planner memoization. Plans depend only on the member's cmat-relevant
  // shape (the fingerprint) and the live node count, so every request of a
  // signature shares one planner sweep; the caches are flushed whenever a
  // node failure shrinks the cluster. The feasibility cache above is
  // separate: it is keyed on the pristine configured cluster and never
  // invalidated.
  std::map<std::pair<std::uint64_t, int>, std::optional<Chunk>> exact_cache;
  std::map<std::pair<std::uint64_t, int>, std::vector<Chunk>> split_cache;
  int cache_cluster_nodes = -1;

  void refresh_plan_caches() {
    if (cache_cluster_nodes == cluster_nodes) return;
    exact_cache.clear();
    split_cache.clear();
    cache_cluster_nodes = cluster_nodes;
  }

  /// The placement sweep over node counts for `size` members, each count
  /// planned by `plan(machine)` into jobs of gb.k members: the first
  /// feasible count at or above the nodes_per_job pin, or else the count
  /// with the fewest predicted node-seconds for all `size` members (the
  /// lowest such count on ties). Nothing if no count fits.
  template <class Plan>
  [[nodiscard]] std::optional<Chunk> sweep_nodes(int size,
                                                 const Plan& plan) const {
    const int lo = cfg.nodes_per_job > 0
                       ? std::min(cfg.nodes_per_job, cluster_nodes)
                       : 1;
    std::optional<Chunk> best;
    double best_cost = 0.0;
    for (int n = lo; n <= cluster_nodes; ++n) {
      const std::optional<GroupBatch> gb = plan(machine_with(n));
      if (!gb.has_value()) continue;
      if (cfg.nodes_per_job > 0) return Chunk{n, *gb};
      const double cost = double(n) * (size / gb->k) * gb->predicted_seconds;
      if (!best.has_value() || cost < best_cost) {
        best = Chunk{n, *gb};
        best_cost = cost;
      }
    }
    return best;
  }

  /// Best single-job allocation for EXACTLY k members, memoized per
  /// (fingerprint, k). Nothing if no allocation fits.
  std::optional<Chunk> place_exact(std::uint64_t fp, const gyro::Input& input,
                                   int k) {
    refresh_plan_caches();
    const auto key = std::make_pair(fp, k);
    const auto it = exact_cache.find(key);
    if (it != exact_cache.end()) return it->second;
    return exact_cache
        .emplace(key, sweep_nodes(k,
                                  [&](const net::MachineSpec& m) {
                                    return plan_batch_exact(input, k, m);
                                  }))
        .first->second;
  }

  /// Predicted node-seconds one member saves by running as half of a k=2
  /// shared-cmat pair instead of alone (0 when pairing is infeasible or
  /// not cheaper). This is the per-peer value the adaptive window weighs
  /// against queueing delay.
  double per_peer_saving(std::uint64_t fp, const gyro::Input& input) {
    const auto solo = place_exact(fp, input, 1);
    const auto pair = place_exact(fp, input, 2);
    if (!solo.has_value() || !pair.has_value()) return 0.0;
    const double solo_ns = double(solo->nodes) * solo->gb.predicted_seconds;
    const double pair_ns =
        double(pair->nodes) * pair->gb.predicted_seconds / 2.0;
    return std::max(solo_ns - pair_ns, 0.0);
  }

  /// Split a closed batch of `size` same-fingerprint members into jobs.
  /// Two candidates are priced in predicted node-seconds:
  ///   uniform — plan_group's divisor-constrained optimum, exactly what
  ///             the offline planner realizes for this group;
  ///   greedy  — chunks of the per-member-cheapest exact-k job, which can
  ///             batch sizes plan_group cannot (a group of 3 on a
  ///             2^n-rank machine becomes k=2 + k=1 instead of 3 × k=1).
  /// The cheaper candidate wins, so the realized grouping is never worse
  /// than the offline plan for the same group. Empty if even a single
  /// member no longer fits (the cluster may have shrunk since admission).
  /// Memoized per (fingerprint, size) through split_batch below.
  [[nodiscard]] std::vector<Chunk> split_batch_impl(std::uint64_t fp,
                                                    const gyro::Input& input,
                                                    int size) {
    std::vector<Chunk> uniform;
    double uniform_cost = 0.0;
    const auto u = sweep_nodes(size, [&](const net::MachineSpec& m) {
      return plan_group(input, size, m);
    });
    if (u.has_value()) {
      uniform.assign(static_cast<size_t>(size / u->gb.k), *u);
      uniform_cost =
          double(u->nodes) * (size / u->gb.k) * u->gb.predicted_seconds;
    }

    std::vector<Chunk> greedy;
    double greedy_cost = 0.0;
    for (int rem = size; rem > 0;) {
      std::optional<Chunk> pick;
      double pick_per_member = 0.0;
      for (int k = 1; k <= rem; ++k) {
        const auto c = place_exact(fp, input, k);
        if (!c.has_value()) continue;
        const double pm = double(c->nodes) * c->gb.predicted_seconds / k;
        // <= so ties go to the larger k: fewer jobs means fewer cmat
        // builds, which the per-interval model does not price.
        if (!pick.has_value() || pm <= pick_per_member) {
          pick = c;
          pick_per_member = pm;
        }
      }
      if (!pick.has_value()) {
        greedy.clear();
        break;
      }
      greedy_cost += double(pick->nodes) * pick->gb.predicted_seconds;
      rem -= pick->gb.k;
      greedy.push_back(*std::move(pick));
    }

    if (uniform.empty()) return greedy;
    if (greedy.empty()) return uniform;
    return greedy_cost < uniform_cost ? greedy : uniform;
  }

  const std::vector<Chunk>& split_batch(std::uint64_t fp,
                                        const gyro::Input& input, int size) {
    refresh_plan_caches();
    const auto key = std::make_pair(fp, size);
    const auto it = split_cache.find(key);
    if (it != split_cache.end()) return it->second;
    return split_cache.emplace(key, split_batch_impl(fp, input, size))
        .first->second;
  }

  /// Fold the member requests' fault plans into one per-job plan. Only the
  /// earliest kill survives — recovery drops one node at a time, and a job
  /// outliving several injected kills is a max_recoveries story the stress
  /// harness drives through run_job's own multi-kill path.
  [[nodiscard]] mpi::FaultPlan merge_faults(const std::vector<int>& ids,
                                            int nranks) const {
    mpi::FaultPlan plan;
    std::optional<mpi::FaultPlan::Kill> first_kill;
    for (const int id : ids) {
      const auto& f = reqs[static_cast<size_t>(id)].faults;
      if (!f.active()) continue;
      if (plan.seed == 0) plan.seed = f.seed;
      for (const auto& s : f.stragglers) plan.stragglers.push_back(s);
      for (const auto& s : f.jitters) plan.jitters.push_back(s);
      if (f.delay_probability > plan.delay_probability) {
        plan.delay_probability = f.delay_probability;
        plan.delay_s = f.delay_s;
      }
      for (const auto& k : f.kills) {
        if (!first_kill.has_value() || k.time_s < first_kill->time_s) {
          first_kill = k;
        }
      }
    }
    if (first_kill.has_value()) plan.kills.push_back(*first_kill);
    return plan.pruned_to(nranks);
  }

  void close_batch(int bi) {
    OpenBatch& ob = batches[static_cast<size_t>(bi)];
    if (ob.closed) return;
    ob.closed = true;
    const auto open_it = open_by_fp.find(ob.fp);
    if (open_it != open_by_fp.end() && open_it->second == bi) {
      open_by_fp.erase(open_it);
    }
    const int size = static_cast<int>(ob.request_ids.size());
    const auto& chunks = split_batch(
        ob.fp, reqs[static_cast<size_t>(ob.request_ids.front())].input, size);
    if (chunks.empty()) {
      // The cluster shrank below feasibility after these requests were
      // admitted. Fail them structurally; the service keeps running.
      for (const int id : ob.request_ids) {
        RequestOutcome& oc = outcomes[static_cast<size_t>(id)];
        oc.finish_s = now;
        oc.completed = false;
        --pending_requests;
        --tenant_inflight[oc.tenant];
        metrics.add_counter("tenant." + oc.tenant + ".failed");
        advance(id, EventKind::kRequestFailed, [](Json& rec) {
          rec.set("reason", "batch unplaceable on surviving nodes");
        });
      }
      metrics.add_counter("service.batches_unplaceable");
      return;
    }
    int offset = 0;
    for (const auto& chunk : chunks) {
      const GroupBatch& gb = chunk.gb;
      JobState js;
      js.rec.id = static_cast<int>(jobs.size());
      js.rec.request_ids.assign(ob.request_ids.begin() + offset,
                                ob.request_ids.begin() + offset + gb.k);
      offset += gb.k;
      js.rec.cmat_fingerprint = ob.fp;
      js.rec.k = gb.k;
      js.rec.nodes = chunk.nodes;
      js.rec.ranks_per_sim = gb.ranks_per_sim;
      js.rec.decomp = gb.decomp;
      js.rec.ready_s = now;
      js.rec.predicted_seconds = gb.predicted_seconds;
      for (const int id : js.rec.request_ids) {
        js.rec.priority =
            std::max(js.rec.priority, reqs[static_cast<size_t>(id)].priority);
        outcomes[static_cast<size_t>(id)].job = js.rec.id;
      }
      js.faults = merge_faults(js.rec.request_ids, gb.k * gb.ranks_per_sim);
      js.recoveries_left = cfg.max_recoveries;
      js.queue_since = now;
      if (cfg.fast_path) {
        // Fast-path mode decision, fixed at job creation. Fault-carrying
        // jobs are always DES-executed ("forced" audits — the price never
        // models kills and recoveries, so they would poison the gate and
        // are excluded from it); fault-free jobs DES-execute only when the
        // seeded per-job draw samples them for audit.
        const bool forced = js.faults.active();
        bool sampled = false;
        if (!forced && cfg.audit_frac > 0.0) {
          Rng draw(cfg.audit_seed +
                   0x9e3779b97f4a7c15ull *
                       (static_cast<std::uint64_t>(js.rec.id) + 1));
          sampled = draw.next_double() < cfg.audit_frac;
        }
        js.rec.modeled = !forced && !sampled;
        js.rec.audited = forced || sampled;
        js.rec.audit_forced = forced;
      }
      metrics.add_counter("service.jobs");
      ready.push_back(js.rec.id);
      jobs.push_back(std::move(js));
      update_backlog(jobs.back());
    }
    try_schedule();
  }

  /// The cluster shrank below this job's allocation: replan the same k
  /// onto the survivors (snapshots carry logical state, so a checkpointed
  /// job keeps its progress across the smaller decomposition), or report
  /// that nothing fits anymore.
  bool replan_job(JobState& js) {
    const auto c = place_exact(
        js.rec.cmat_fingerprint,
        reqs[static_cast<size_t>(js.rec.request_ids.front())].input, js.rec.k);
    if (!c.has_value()) return false;
    js.rec.nodes = c->nodes;
    js.rec.ranks_per_sim = c->gb.ranks_per_sim;
    js.rec.decomp = c->gb.decomp;
    js.rec.predicted_seconds = c->gb.predicted_seconds;
    js.faults = js.faults.pruned_to(js.rec.k * js.rec.ranks_per_sim);
    update_backlog(js);
    metrics.add_counter("service.jobs_replanned");
    return true;
  }

  /// Terminal failure for a queued job the surviving cluster can never
  /// host: its member requests fail structurally and the service moves on.
  void fail_stranded(JobState& js) {
    js.rec.failure = "no feasible allocation on the surviving nodes";
    js.rec.finish_s = now;
    update_backlog(js);
    if (js.rec.start_s < 0.0) {
      pending_requests -= static_cast<int>(js.rec.request_ids.size());
    }
    metrics.add_counter("service.jobs_failed");
    finish_requests(js, /*completed=*/false);
  }

  /// EASY-backfill shadow for a blocked head-of-queue job: walk the
  /// running jobs' predicted release times until enough nodes accumulate,
  /// giving the head's predicted start (shadow_s) and the nodes left
  /// spare at that instant (shadow_extra). False only if even a fully
  /// drained cluster cannot host the head (the caller has already
  /// replanned it onto the survivors, so in practice this cannot fire).
  bool compute_shadow(const JobState& head, double& shadow_s,
                      int& shadow_extra) const {
    std::vector<std::pair<double, int>> releases;
    releases.reserve(running_jobs.size());
    // A running job releases its nodes at the end of the slice in flight
    // plus the predicted cost of the intervals after it.
    for (const int r : running_jobs) {
      const JobState& rj = jobs[static_cast<size_t>(r)];
      releases.emplace_back(
          rj.slice_end_s +
              predicted_s(rj, rj.slice_target, cfg.n_report_intervals),
          rj.rec.nodes);
    }
    std::sort(releases.begin(), releases.end());
    int avail = free_nodes;
    shadow_s = now;
    for (const auto& [t, n] : releases) {
      if (avail >= head.rec.nodes) break;
      avail += n;
      shadow_s = std::max(shadow_s, t);
    }
    if (avail < head.rec.nodes) return false;
    shadow_extra = avail - head.rec.nodes;
    return true;
  }

  /// Bin packing in (priority desc, queue age asc, id asc) order, under
  /// the configured policy:
  ///   first-fit — greedy: any ready job that fits the free nodes starts
  ///               (jobs behind a blocked head may leapfrog it freely);
  ///   fifo      — strict: placement stops at the first job that does not
  ///               fit (no leapfrogging, maximal head protection);
  ///   backfill  — EASY: a job behind the blocked head starts only if its
  ///               predicted finish lands before the head's shadow start,
  ///               or it fits inside the nodes the shadow leaves spare —
  ///               i.e. backfilling provably cannot delay the head's
  ///               predicted start.
  void try_schedule() {
    std::sort(ready.begin(), ready.end(), [this](int a, int b) {
      const JobState& ja = jobs[static_cast<size_t>(a)];
      const JobState& jb = jobs[static_cast<size_t>(b)];
      if (ja.rec.priority != jb.rec.priority) {
        return ja.rec.priority > jb.rec.priority;
      }
      if (ja.queue_since != jb.queue_since) {
        return ja.queue_since < jb.queue_since;
      }
      return a < b;
    });
    std::vector<int> still_waiting;
    bool blocked = false;     ///< a higher-ordered job is waiting for nodes
    bool have_shadow = false;
    double shadow_s = 0.0;
    int shadow_extra = 0;
    for (const int j : ready) {
      JobState& js = jobs[static_cast<size_t>(j)];
      if (js.rec.nodes > cluster_nodes && !replan_job(js)) {
        fail_stranded(js);
        continue;
      }
      if (blocked && cfg.placement == PlacementPolicy::kFifo) {
        still_waiting.push_back(j);
        continue;
      }
      bool can_place = js.rec.nodes <= free_nodes;
      bool uses_shadow_extra = false;
      if (can_place && blocked &&
          cfg.placement == PlacementPolicy::kBackfill) {
        const bool before_shadow =
            have_shadow &&
            now + predicted_s(js, js.intervals_done, cfg.n_report_intervals) <=
                shadow_s + 1e-9;
        uses_shadow_extra =
            !before_shadow && have_shadow && js.rec.nodes <= shadow_extra;
        can_place = before_shadow || uses_shadow_extra;
      }
      if (can_place) {
        if (uses_shadow_extra) shadow_extra -= js.rec.nodes;
        free_nodes -= js.rec.nodes;
        start_slice(j);
        continue;
      }
      still_waiting.push_back(j);
      if (!blocked) {
        blocked = true;
        if (cfg.placement == PlacementPolicy::kBackfill) {
          have_shadow = compute_shadow(js, shadow_s, shadow_extra);
        }
      }
    }
    ready = std::move(still_waiting);
  }

  void start_slice(int j) {
    JobState& js = jobs[static_cast<size_t>(j)];
    if (js.rec.start_s < 0.0) {
      js.rec.start_s = now;
      for (const int id : js.rec.request_ids) {
        RequestOutcome& oc = outcomes[static_cast<size_t>(id)];
        oc.start_s = now;
        --pending_requests;
        const double wait = now - oc.arrival_s;
        metrics.histogram("service.queue_wait_s", wait_bounds())
            .observe(wait);
        pred_waits.push_back(oc.predicted_wait_s);
        real_waits.push_back(wait);
        advance(id, EventKind::kRequestPlaced, [&](Json& rec) {
          rec.set("job", js.rec.id)
              .set("nodes", js.rec.nodes)
              .set("k", js.rec.k)
              .set("ranks_per_sim", js.rec.ranks_per_sim)
              .set("ready_s", js.rec.ready_s)
              .set("wait_s", wait)
              .set("predicted_wait_s", oc.predicted_wait_s);
        });
      }
    } else if (req_state[static_cast<size_t>(js.rec.request_ids.front())] ==
               EventKind::kRequestPreempted) {
      for (const int id : js.rec.request_ids) {
        advance(id, EventKind::kRequestResumed,
                [&](Json& rec) { rec.set("job", js.rec.id); });
      }
    }
    js.slice_target = sliced()
                          ? std::min(js.intervals_done + cfg.preempt_quantum,
                                     cfg.n_report_intervals)
                          : cfg.n_report_intervals;
    // The slice's price: for a modeled job this IS its duration; for an
    // audited job it accumulates the counterfactual price the divergence
    // gate compares against the DES cost.
    const double price = predicted_s(js, js.intervals_done, js.slice_target);
    if (cfg.fast_path) js.rec.price_s += price;
    if (observing() && js.rec.modeled && js.rec.slices == 0) {
      emit(new_event(EventKind::kJobModeled)
               .set("job", js.rec.id)
               .set("k", js.rec.k)
               .set("nodes", js.rec.nodes)
               .set("price_s", predicted_s(js, 0, cfg.n_report_intervals)));
    }

    double duration;
    if (js.rec.modeled) {
      // Modeled fast path: price the slice straight from the perfmodel
      // plan instead of spinning up simnet ranks — the plan's
      // per-interval prediction is what a fault-free DES execution
      // integrates, and the sampled audits keep that claim honest.
      duration = price;
      js.slice = {};
      js.slice.machine = machine_with(js.rec.nodes);
      js.slice.ranks_per_sim = js.rec.ranks_per_sim;
      js.slice.run.makespan_s = duration;
    } else {
      xgyro::EnsembleInput batch;
      for (const int id : js.rec.request_ids) {
        batch.members.push_back(reqs[static_cast<size_t>(id)].input);
      }
      xgyro::JobOptions o;
      o.n_report_intervals = js.slice_target;
      o.mode = cfg.mode;
      if (sliced()) {
        o.checkpoint_dir =
            cfg.checkpoint_root + strprintf("/job-%d", js.rec.id);
        o.resume = js.intervals_done > 0;
      }
      o.max_recoveries = js.recoveries_left;
      o.faults = js.faults;
      o.enable_traffic = !cfg.report_dir.empty();
      try {
        js.slice = xgyro::run_job(batch, machine_with(js.rec.nodes),
                                  js.rec.ranks_per_sim, o);
        duration = js.slice.run.makespan_s;
      } catch (const JobAborted& e) {
        js.abort = e;
        duration = std::max(e.virtual_time_s(), 0.0);
      }
    }
    ++js.rec.slices;
    busy_node_seconds += double(js.rec.nodes) * duration;
    js.slice_end_s = now + duration;
    running_jobs.insert(j);
    schedule(now + duration, EvKind::kSliceDone, j);
  }

  void finish_requests(JobState& js, bool completed) {
    for (size_t i = 0; i < js.rec.request_ids.size(); ++i) {
      const int id = js.rec.request_ids[i];
      RequestOutcome& oc = outcomes[static_cast<size_t>(id)];
      oc.finish_s = now;
      oc.completed = completed;
      --tenant_inflight[oc.tenant];
      if (completed) {
        if (js.rec.modeled) {
          oc.modeled = true;  // fast-path priced: no per-member diagnostics
        } else {
          oc.diagnostics = js.slice.diagnostics[i];
        }
        metrics.add_counter("tenant." + oc.tenant + ".completed");
        advance(id, EventKind::kRequestCompleted, [&](Json& rec) {
          rec.set("job", js.rec.id).set("turnaround_s", now - oc.arrival_s);
        });
      } else {
        metrics.add_counter("tenant." + oc.tenant + ".failed");
        advance(id, EventKind::kRequestFailed, [&](Json& rec) {
          rec.set("job", js.rec.id).set("reason", js.rec.failure);
        });
      }
    }
  }

  void write_job_report(const JobState& js) {
    // Modeled jobs have no DES run to report on — only audited (and
    // classic) jobs produce the per-job traffic/phase breakdown.
    if (cfg.report_dir.empty() || js.rec.modeled) return;
    const net::Placement placement(machine_with(js.rec.nodes));
    telemetry::RunReport report = telemetry::build_run_report(
        js.slice.run, placement, xgyro::solver_phases(),
        strprintf("service-job-%d", js.rec.id), js.rec.k,
        /*with_metrics=*/true);
    report.have_recovery = true;
    report.recoveries = js.rec.recoveries;
    report.snapshots_committed = js.snapshots_committed;
    report.snapshots_rejected = js.snapshots_rejected;
    telemetry::write_run_report(
        cfg.report_dir + strprintf("/job-%d.report.json", js.rec.id), report);
  }

  void on_slice_done(int j) {
    JobState& js = jobs[static_cast<size_t>(j)];
    running_jobs.erase(j);
    if (js.abort.has_value()) {
      // The job runner gave up: surviving nodes come back, the dead
      // ones are gone, the member requests fail.
      int surviving = js.rec.nodes;
      for (const auto& ev : js.abort->recoveries()) {
        js.rec.recoveries.push_back(ev);
        js.rec.recoveries.back().job = js.rec.id;
        surviving -= ev.nodes_before - ev.nodes_after;
      }
      surviving -= 1;  // the final, unrecovered failure takes its node too
      if (surviving < 0) surviving = 0;
      cluster_nodes -= js.rec.nodes - surviving;
      free_nodes += surviving;
      js.rec.failure = js.abort->what();
      js.rec.finish_s = now;
      update_backlog(js);
      metrics.add_counter("service.jobs_failed");
      metrics.add_counter("service.recoveries", js.abort->recoveries().size());
      finish_requests(js, /*completed=*/false);
      try_schedule();
      return;
    }

    xgyro::JobResult& r = js.slice;
    cluster_nodes -= js.rec.nodes - r.machine.n_nodes;
    js.rec.nodes = r.machine.n_nodes;
    js.rec.ranks_per_sim = r.ranks_per_sim;
    js.rec.busy_s += r.run.makespan_s;
    js.snapshots_committed += r.snapshots_committed;
    js.snapshots_rejected += r.snapshots_rejected;
    js.recoveries_left -= static_cast<int>(r.recoveries.size());
    metrics.add_counter("service.recoveries", r.recoveries.size());
    for (const auto& ev : r.recoveries) {
      js.rec.recoveries.push_back(ev);
      js.rec.recoveries.back().job = js.rec.id;
      if (ev.kind == "rank_failure") {
        js.faults = js.faults.without_kill(ev.world_rank);
      }
    }
    js.faults = js.faults.pruned_to(js.rec.k * js.rec.ranks_per_sim);
    js.intervals_done = js.slice_target;
    update_backlog(js);

    if (js.intervals_done >= cfg.n_report_intervals) {
      js.rec.finish_s = now;
      free_nodes += js.rec.nodes;
      metrics.add_counter("service.jobs_completed");
      metrics.histogram("service.job_span_s", wait_bounds())
          .observe(now - js.rec.ready_s);
      if (cfg.fast_path && js.rec.audited) {
        // Feed the divergence gate with the (price, DES cost) pair; the
        // gate excludes forced audits, whose DES cost includes recovery
        // work the price never models.
        if (!js.rec.audit_forced) {
          audit_price.push_back(js.rec.price_s);
          audit_measured.push_back(js.rec.busy_s);
        }
        if (observing()) {
          emit(new_event(EventKind::kJobAudited)
                   .set("job", js.rec.id)
                   .set("price_s", js.rec.price_s)
                   .set("measured_s", js.rec.busy_s)
                   .set("forced", js.rec.audit_forced));
        }
      }
      finish_requests(js, /*completed=*/true);
      write_job_report(js);
      try_schedule();
      return;
    }

    // Mid-job slice boundary: the one place a higher-priority job can take
    // the nodes (the boundary snapshot makes the handoff lossless).
    bool preempt = false;
    if (sliced()) {
      for (const int w : ready) {
        const JobState& waiting = jobs[static_cast<size_t>(w)];
        if (waiting.rec.priority > js.rec.priority &&
            waiting.rec.nodes > free_nodes &&
            waiting.rec.nodes <= free_nodes + js.rec.nodes) {
          preempt = true;
          break;
        }
      }
    }
    if (preempt) {
      ++js.rec.preemptions;
      metrics.add_counter("service.preemptions");
      free_nodes += js.rec.nodes;
      js.queue_since = now;
      for (const int id : js.rec.request_ids) {
        advance(id, EventKind::kRequestPreempted, [&](Json& rec) {
          rec.set("job", js.rec.id).set("intervals_done", js.intervals_done);
        });
      }
      ready.push_back(j);
      try_schedule();
    } else {
      start_slice(j);  // keep the nodes, continue immediately
    }
  }

  ServiceResult run() {
    XG_REQUIRE(cfg.cluster.n_nodes >= 1, "service: empty cluster");
    XG_REQUIRE(cfg.max_queue_depth >= 1, "service: max_queue_depth >= 1");
    XG_REQUIRE(cfg.tenant_quota >= 1, "service: tenant_quota >= 1");
    XG_REQUIRE(cfg.max_batch >= 1, "service: max_batch >= 1");
    XG_REQUIRE(cfg.batching_window_s >= 0.0, "service: window >= 0");
    XG_REQUIRE(cfg.n_report_intervals >= 1, "service: intervals >= 1");
    XG_REQUIRE(cfg.preempt_quantum >= 1, "service: preempt_quantum >= 1");
    XG_REQUIRE(cfg.nodes_per_job <= cfg.cluster.n_nodes,
               "service: nodes_per_job exceeds the cluster");
    XG_REQUIRE(cfg.audit_frac >= 0.0 && cfg.audit_frac <= 1.0,
               "service: audit_frac must be in [0,1]");
    if (cfg.window_auto) {
      XG_REQUIRE(
          cfg.batching && cfg.batching_window_s > 0.0 && cfg.max_batch > 1,
          "service: window_auto requires windowed batching "
          "(batching on, window > 0, max_batch > 1)");
    }
    if (!cfg.checkpoint_root.empty()) {
      XG_REQUIRE(cfg.mode == gyro::Mode::kReal,
                 "service: checkpointing (preemption) requires real mode");
    }
    if (!cfg.report_dir.empty()) {
      std::filesystem::create_directories(cfg.report_dir);
    }
    sink = cfg.events;
    if (observing()) {
      SloSpec slo;
      if (!cfg.slo.empty()) slo = SloSpec::parse(cfg.slo);
      monitor = std::make_unique<ServiceMonitor>(0.0, slo);
    } else {
      XG_REQUIRE(cfg.slo.empty(),
                 "service: slo monitoring requires an event sink");
      XG_REQUIRE(cfg.metrics_every_s <= 0.0,
                 "service: metrics_every_s requires an event sink");
    }

    free_nodes = cluster_nodes = cfg.cluster.n_nodes;
    outcomes.resize(reqs.size());
    req_state.assign(reqs.size(), EventKind::kNone);
    for (size_t i = 0; i < reqs.size(); ++i) {
      const Request& rq = reqs[i];
      XG_REQUIRE(rq.arrival_s >= 0.0, "service: arrival times must be >= 0");
      RequestOutcome& oc = outcomes[i];
      oc.id = static_cast<int>(i);
      oc.tenant = rq.tenant;
      oc.priority = rq.priority;
      oc.arrival_s = rq.arrival_s;
      oc.cmat_fingerprint = rq.input.cmat_fingerprint();
    }
    // Arrivals enter the event queue in submission order; ties on the
    // virtual clock resolve by sequence number, so the stream vector's
    // order is the arbiter for simultaneous arrivals.
    std::vector<int> order(reqs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    std::stable_sort(order.begin(), order.end(), [this](int a, int b) {
      return reqs[static_cast<size_t>(a)].arrival_s <
             reqs[static_cast<size_t>(b)].arrival_s;
    });
    for (const int id : order) {
      schedule(reqs[static_cast<size_t>(id)].arrival_s, EvKind::kArrival, id);
    }
    if (observing()) {
      emit(new_event(EventKind::kServiceStart)
               .set("schema", telemetry::kEventSchema)
               .set("schema_version", telemetry::kEventSchemaVersion)
               .set("cluster", Json::object()
                                   .set("nodes", cfg.cluster.n_nodes)
                                   .set("ranks_per_node",
                                        cfg.cluster.ranks_per_node))
               .set("config",
                    Json::object()
                        .set("max_queue_depth", cfg.max_queue_depth)
                        .set("tenant_quota", cfg.tenant_quota)
                        .set("batching_window_s", cfg.batching_window_s)
                        .set("max_batch", cfg.max_batch)
                        .set("batching", cfg.batching)
                        .set("window_auto", cfg.window_auto)
                        .set("placement", placement_name(cfg.placement))
                        .set("fast_path", cfg.fast_path)
                        .set("audit_frac", cfg.audit_frac)
                        .set("nodes_per_job", cfg.nodes_per_job)
                        .set("n_report_intervals", cfg.n_report_intervals)
                        .set("preempt_quantum", cfg.preempt_quantum)
                        .set("metrics_every_s", cfg.metrics_every_s)
                        // The live monitor's windows cover the whole run;
                        // the field stays so the record keeps its shape.
                        .set("monitor_window_s", 0.0)
                        .set("slo", cfg.slo))
               .set("n_requests", static_cast<std::int64_t>(reqs.size())));
      if (cfg.metrics_every_s > 0.0) {
        schedule(cfg.metrics_every_s, EvKind::kMetricsTick, -1);
      }
    }

    while (!events.empty()) {
      const Event ev = events.top();
      events.pop();
      if (ev.kind == EvKind::kMetricsTick) {
        // Pure observer: snapshot + reschedule while the service still has
        // real events in flight. A tick that outlives the last real event
        // is dropped without touching the clock, so makespan (and every
        // virtual-time result) is bit-identical with observability on or
        // off.
        if (!events.empty()) {
          now = ev.t;
          emit(new_event(EventKind::kMonitorSnapshot, monitor->snapshot()));
          schedule(now + cfg.metrics_every_s, EvKind::kMetricsTick, -1);
        }
        continue;
      }
      now = ev.t;
      makespan = std::max(makespan, now);
      switch (ev.kind) {
        case EvKind::kArrival: on_arrival(ev.idx); break;
        case EvKind::kWindowClose: close_batch(ev.idx); break;
        case EvKind::kSliceDone: on_slice_done(ev.idx); break;
        case EvKind::kMetricsTick: break;  // handled above
      }
    }
    XG_REQUIRE(ready.empty() && pending_requests == 0,
               "service: drained with work still queued (scheduler bug)");

    return finalize();
  }

  static QueueWaitStats stats_of_sorted(const std::vector<double>& sorted) {
    QueueWaitStats st;
    st.n = static_cast<int>(sorted.size());
    if (!sorted.empty()) {
      st.p50 = exact_quantile(sorted, 0.50);
      st.p95 = exact_quantile(sorted, 0.95);
      st.p99 = exact_quantile(sorted, 0.99);
      st.max = sorted.back();
      double sum = 0.0;
      for (const double w : sorted) sum += w;
      st.mean = sum / double(sorted.size());
    }
    return st;
  }

  ServiceResult finalize() {
    ServiceResult res;
    for (const EventKind state : req_state) {  // every request is terminal
      res.rejected += state == EventKind::kRequestRejected;
      res.completed += state == EventKind::kRequestCompleted;
      res.failed += state == EventKind::kRequestFailed;
    }
    res.admitted = res.completed + res.failed;
    // Each placed request's wait, grouped by tenant and sorted once at the
    // end of the run; the global view is then a merge of sorted runs.
    std::map<std::string, std::vector<double>> tenant_waits;
    for (const auto& oc : outcomes) {
      if (oc.start_s >= 0.0) tenant_waits[oc.tenant].push_back(oc.wait_s());
    }
    std::vector<double> waits;
    for (auto& [tenant, tw] : tenant_waits) {
      std::sort(tw.begin(), tw.end());
      std::vector<double> merged;
      merged.reserve(waits.size() + tw.size());
      std::merge(waits.begin(), waits.end(), tw.begin(), tw.end(),
                 std::back_inserter(merged));
      waits = std::move(merged);
      res.tenant_queue_wait[tenant] = stats_of_sorted(tw);
    }
    res.queue_wait = stats_of_sorted(waits);
    res.makespan_s = makespan;
    int jobs_completed = 0;
    for (const auto& js : jobs) {
      if (js.rec.failure.empty() && js.rec.finish_s >= 0.0) ++jobs_completed;
    }
    if (makespan > 0.0) {
      res.jobs_per_hour = jobs_completed * 3600.0 / makespan;
      res.requests_per_hour = res.completed * 3600.0 / makespan;
      res.node_busy_frac =
          busy_node_seconds / (double(cfg.cluster.n_nodes) * makespan);
    }
    metrics.set_gauge("service.makespan_s", res.makespan_s);
    metrics.set_gauge("service.jobs_per_hour", res.jobs_per_hour);
    metrics.set_gauge("service.requests_per_hour", res.requests_per_hour);
    metrics.set_gauge("service.node_busy_frac", res.node_busy_frac);
    const perfmodel::WaitCalibration calibration =
        perfmodel::calibrate_queue_wait(pred_waits, real_waits);
    metrics.set_gauge("service.queue_wait_mae_s", calibration.mae_s);
    std::map<std::string, int> completed_by_tenant;
    for (const auto& oc : outcomes) {
      completed_by_tenant[oc.tenant] += oc.completed ? 1 : 0;
    }
    res.fairness_jain = jain_index(completed_by_tenant);
    res.wait_calibration = wait_calibration_json(calibration);
    if (cfg.fast_path) {
      for (const auto& js : jobs) {
        res.jobs_modeled += js.rec.modeled ? 1 : 0;
        res.jobs_audited += js.rec.audited ? 1 : 0;
        res.audits_forced += js.rec.audit_forced ? 1 : 0;
      }
      const perfmodel::AuditGate gate =
          perfmodel::audit_fast_path(audit_price, audit_measured);
      res.fast_path =
          fast_path_json(res.jobs_modeled, res.jobs_audited, res.audits_forced)
              .set("audit", audit_gate_json(gate));
      metrics.set_gauge("service.jobs_modeled", res.jobs_modeled);
      metrics.set_gauge("service.jobs_audited", res.jobs_audited);
    }
    res.metrics = metrics.snapshot();
    res.outcomes = std::move(outcomes);
    res.jobs.reserve(jobs.size());
    for (auto& js : jobs) res.jobs.push_back(std::move(js.rec));

    if (observing()) {
      emit(new_event(EventKind::kServiceEnd)
               .set("totals", totals_json(res))
               .set("makespan_s", res.makespan_s)
               .set("queue_wait_s", queue_wait_json(res.queue_wait))
               .set("queue_wait_by_tenant", queue_wait_by_tenant_json(res))
               .set("fairness_jain", res.fairness_jain)
               .set("calibration", res.wait_calibration));
      res.observability = monitor->report();
    }
    return res;
  }
};

}  // namespace

CampaignService::CampaignService(ServiceConfig cfg) : cfg_(std::move(cfg)) {}

ServiceResult CampaignService::run(const std::vector<Request>& stream) {
  Engine engine(cfg_, stream);
  return engine.run();
}

// ---------------------------------------------------------------------------
// Rendering

std::string ServiceResult::describe() const {
  std::string out = strprintf(
      "service: %d admitted / %d rejected, %d completed, %d failed, "
      "%zu job(s), makespan %.6f s\n",
      admitted, rejected, completed, failed, jobs.size(), makespan_s);
  out += strprintf(
      "  throughput: %.1f jobs/h, %.1f requests/h, node busy %.1f%%\n",
      jobs_per_hour, requests_per_hour, 100.0 * node_busy_frac);
  out += strprintf(
      "  queue wait: p50 %.6f s, p95 %.6f s, p99 %.6f s (n=%d)\n",
      queue_wait.p50, queue_wait.p95, queue_wait.p99, queue_wait.n);
  if (tenant_queue_wait.size() > 1) {
    out += strprintf("  fairness (Jain): %.4f over %zu tenant(s)\n",
                     fairness_jain, tenant_queue_wait.size());
  }
  if (jobs_modeled > 0 || jobs_audited > 0) {
    const telemetry::Json* audit =
        fast_path.is_object() ? fast_path.find("audit") : nullptr;
    const bool gate_pass = audit == nullptr || audit->at("pass").as_bool();
    out += strprintf(
        "  fast path: %d modeled, %d audited (%d forced), audit gate %s\n",
        jobs_modeled, jobs_audited, audits_forced,
        gate_pass ? "PASS" : "FAIL");
  }
  for (const auto& j : jobs) {
    out += strprintf(
        "  job %d: k=%d fp=%016llx %d node(s) rps=%d prio=%d slices=%d "
        "preempt=%d%s%s\n",
        j.id, j.k, static_cast<unsigned long long>(j.cmat_fingerprint),
        j.nodes, j.ranks_per_sim, j.priority, j.slices, j.preemptions,
        j.modeled ? " modeled" : (j.audited ? " audited" : ""),
        j.failure.empty() ? "" : " FAILED");
  }
  return out;
}

telemetry::Json ServiceResult::to_json() const {
  Json doc = Json::object();
  doc.set("schema", "xgyro.service").set("schema_version", 3);
  doc.set("totals", totals_json(*this));
  Json throughput = Json::object();
  throughput.set("makespan_s", makespan_s)
      .set("jobs_per_hour", jobs_per_hour)
      .set("requests_per_hour", requests_per_hour)
      .set("node_busy_frac", node_busy_frac);
  doc.set("throughput", std::move(throughput));
  doc.set("queue_wait_s", queue_wait_json(queue_wait));
  doc.set("queue_wait_by_tenant", queue_wait_by_tenant_json(*this));
  doc.set("fairness_jain", fairness_jain);
  if (wait_calibration.is_object()) {
    doc.set("wait_calibration", wait_calibration);
  }
  if (fast_path.is_object()) doc.set("fast_path", fast_path);
  if (observability.is_object()) doc.set("observability", observability);
  Json jarr = Json::array();
  for (const auto& j : jobs) {
    Json jj = Json::object();
    jj.set("id", j.id)
        .set("k", j.k)
        .set("cmat_fingerprint", hex64(j.cmat_fingerprint))
        .set("nodes", j.nodes)
        .set("ranks_per_sim", j.ranks_per_sim)
        .set("priority", j.priority)
        .set("ready_s", j.ready_s)
        .set("start_s", j.start_s)
        .set("finish_s", j.finish_s)
        .set("predicted_seconds", j.predicted_seconds)
        .set("busy_s", j.busy_s)
        .set("slices", j.slices)
        .set("preemptions", j.preemptions)
        .set("recoveries", static_cast<std::int64_t>(j.recoveries.size()))
        .set("modeled", j.modeled)
        .set("audited", j.audited)
        .set("price_s", j.price_s)
        .set("failure", j.failure);
    Json members = Json::array();
    for (const int id : j.request_ids) members.push(id);
    jj.set("requests", std::move(members));
    jarr.push(std::move(jj));
  }
  doc.set("jobs", std::move(jarr));
  Json oarr = Json::array();
  for (const auto& oc : outcomes) {
    Json oj = Json::object();
    oj.set("id", oc.id)
        .set("tenant", oc.tenant)
        .set("priority", oc.priority)
        .set("admission", admission_name(oc.admission))
        .set("arrival_s", oc.arrival_s)
        .set("start_s", oc.start_s)
        .set("finish_s", oc.finish_s)
        .set("predicted_wait_s", oc.predicted_wait_s)
        .set("wait_s", oc.wait_s())
        .set("job", oc.job)
        .set("completed", oc.completed);
    oarr.push(std::move(oj));
  }
  doc.set("outcomes", std::move(oarr));
  doc.set("metrics", metrics);
  return doc;
}

}  // namespace xg::campaign
