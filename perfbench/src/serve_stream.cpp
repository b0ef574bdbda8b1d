// Workload serve_stream: one op is one CampaignService::run over a seeded
// production-shaped request stream on testbox(8, 4) — the campaign_service
// scale-study mix (90% small 1-node requests across several collision
// signatures, 8% medium, 2% wide 2-node) through the modeled fast path
// with a 1% DES audit, EASY backfilling and adaptive batching windows. A
// benchmark-owned sink serializes every event record to JSONL in memory;
// the op then replays that log through Json::parse, EventValidator and
// ServiceMonitor, as xgyro_servemon does. Emission and replay share the op,
// so a gain on one side cannot hide a cost on the other.
//
// Check: the replayed log validates, the fast-path audit gate passes, every
// admitted request reaches a terminal state, and ServiceResult::to_json()
// is bit-identical to the set-up reference op's.
#include <cmath>
#include <string_view>

#include "campaign/campaign.hpp"
#include "campaign/monitor.hpp"
#include "campaign/service.hpp"
#include "harness.hpp"
#include "spans.hpp"
#include "telemetry/events.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace pb {
namespace {

using namespace xg;
using telemetry::Json;

constexpr int kRequests = 1500;
constexpr double kRateHz = 6.0;
constexpr int kSignatures = 4;
constexpr double kAuditFrac = 0.01;
constexpr int kNodes = 8;
constexpr int kRanksPerNode = 4;

/// Seeded production-shaped Poisson mix (the campaign_service scale study).
/// The seed draws arrivals, signatures and drives. The job classes follow a
/// fixed pattern (every block of 50 requests holds 1 wide and 4 medium at
/// fixed positions) rather than a draw: the fast path audits a fixed set
/// of job ids, and a drawn class mix would make the few audited jobs — which
/// dominate the service's wall time — differ in size from seed to seed.
std::vector<campaign::Request> make_stream(std::uint64_t seed) {
  Rng rng(seed);
  const gyro::Input small = gyro::Input::small_test(1);
  gyro::Input medium = gyro::Input::small_test(2);
  medium.n_radial = 4096;
  gyro::Input wide = gyro::Input::small_test(2);
  wide.n_radial = 131072;
  std::vector<campaign::Request> stream;
  stream.reserve(kRequests);
  double t = 0.0;
  for (int i = 0; i < kRequests; ++i) {
    t += -std::log(1.0 - rng.next_double()) / kRateHz;
    campaign::Request r;
    r.arrival_s = t;
    r.tenant = strprintf("t%d", i % 3);
    const int slot = i % 50;
    if (slot == 17) {
      r.input = wide;
    } else if (slot == 3 || slot == 11 || slot == 29 || slot == 41) {
      r.input = medium;
    } else {
      r.input = small;
      int sig = 0;
      while (sig + 1 < kSignatures && rng.next_double() < 0.5) ++sig;
      r.input.collision.nu_ee = small.collision.nu_ee * (1.0 + 0.5 * sig);
    }
    r.input.species[0].a_ln_t = 2.0 + 0.125 * (i % 64);
    r.input.seed = 1000 + static_cast<std::uint64_t>(i);
    stream.push_back(std::move(r));
  }
  return stream;
}

campaign::ServiceResult serve(const std::vector<campaign::Request>& stream,
                              telemetry::EventSink* sink, double audit_frac) {
  campaign::ServiceConfig cfg;
  cfg.cluster = net::testbox(kNodes, kRanksPerNode);
  cfg.max_queue_depth = static_cast<int>(stream.size());
  cfg.tenant_quota = static_cast<int>(stream.size());
  cfg.batching_window_s = 0.5;
  cfg.max_batch = 8;
  cfg.mode = gyro::Mode::kModel;
  cfg.fast_path = true;
  cfg.audit_frac = audit_frac;
  cfg.audit_seed = 42;
  cfg.placement = campaign::PlacementPolicy::kBackfill;
  cfg.window_auto = true;
  cfg.events = sink;
  return campaign::CampaignService(cfg).run(stream);
}

/// Serializes each record to one JSONL line in memory; optionally times
/// the Json::dump calls.
class JsonlSink : public telemetry::EventSink {
 public:
  explicit JsonlSink(bool timed) : timed_(timed) {}
  void write(const Json& record) override {
    const double t0 = timed_ ? now_ms() : 0.0;
    const std::string line = record.dump();
    if (timed_) dump_ms += now_ms() - t0;
    text += line;
    text += '\n';
    ++records;
  }
  std::string text;
  long records = 0;
  double dump_ms = 0.0;

 private:
  bool timed_;
};

struct ReplayTimes {
  double parse_ms = 0, validate_ms = 0, monitor_ms = 0;
};

/// Parse, validate and monitor a JSONL log; `times` (optional) gets the
/// wall of each stage.
telemetry::EventLogStats replay(const std::string& text, ReplayTimes* times) {
  telemetry::EventValidator validator;
  campaign::ServiceMonitor monitor;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t nl = text.find('\n', pos);
    const std::string_view line(text.data() + pos, nl - pos);
    pos = nl + 1;
    if (times == nullptr) {
      const Json rec = Json::parse(line);
      validator.consume(rec);
      (void)monitor.consume(rec);
      continue;
    }
    const double t0 = now_ms();
    const Json rec = Json::parse(line);
    const double t1 = now_ms();
    validator.consume(rec);
    const double t2 = now_ms();
    (void)monitor.consume(rec);
    const double t3 = now_ms();
    times->parse_ms += t1 - t0;
    times->validate_ms += t2 - t1;
    times->monitor_ms += t3 - t2;
  }
  const auto stats = validator.finish();
  (void)monitor.report();
  return stats;
}

std::string check(const campaign::ServiceResult& res, const telemetry::EventLogStats& stats,
                  const std::string& reference) {
  if (!stats.ended) return "event log has no service.end record";
  if (!res.fast_path.at("audit").at("pass").as_bool()) return "fast-path audit gate failed";
  if (res.completed + res.failed != res.admitted || stats.terminals != stats.requests) {
    return strprintf("admitted requests left non-terminal (%d admitted, %d completed, %d failed)",
                     res.admitted, res.completed, res.failed);
  }
  if (res.to_json().dump() != reference) return "ServiceResult JSON differs from the reference op";
  return "";
}

/// Simulated rank-steps of the jobs the service completed.
double rank_steps(const std::vector<campaign::Request>& stream, const campaign::ServiceResult& res) {
  double steps = 0;
  for (const auto& job : res.jobs) {
    if (!job.failure.empty() || job.request_ids.empty()) continue;
    const auto& input = stream[static_cast<size_t>(job.request_ids.front())].input;
    steps += static_cast<double>(job.k) * job.ranks_per_sim * input.n_steps_per_report;
  }
  return steps;
}

/// campaign::plan_batch_exact replayed over every job record's (input, k)
/// on the job's node count; microseconds per job.
double plan_us_per_job(const std::vector<campaign::Request>& stream,
                       const campaign::ServiceResult& res) {
  const double t0 = now_ms();
  long planned = 0;
  for (const auto& job : res.jobs) {
    if (job.request_ids.empty()) continue;
    net::MachineSpec m = net::testbox(kNodes, kRanksPerNode);
    m.n_nodes = job.nodes;
    (void)campaign::plan_batch_exact(
        stream[static_cast<size_t>(job.request_ids.front())].input, job.k, m);
    ++planned;
  }
  return planned > 0 ? 1e3 * (now_ms() - t0) / static_cast<double>(planned) : 0.0;
}

double service_ms(const std::vector<campaign::Request>& stream, double audit_frac,
                  Tracer& tracer, const char* name) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    const SpanScope span(&tracer, name, -1, -1);
    const double t0 = now_ms();
    (void)serve(stream, nullptr, audit_frac);
    ms.push_back(now_ms() - t0);
  }
  return median(ms);
}

}  // namespace

Result run_serve_stream(const Options& opt) {
  Result r;
  std::vector<campaign::Request> stream;
  campaign::ServiceResult ref;
  std::string reference;
  const auto setup_s = repeat_setup([&] {
    stream = make_stream(opt.seed);
    JsonlSink sink(false);
    ref = serve(stream, &sink, kAuditFrac);  // the untimed reference op
    (void)replay(sink.text, nullptr);
    reference = ref.to_json().dump();
    if (opt.perturb) reference[reference.size() / 2] ^= 1;
  });
  const double steps = rank_steps(stream, ref);
  r.note(strprintf("serve_stream: %d requests on testbox(%d, %d), fast path, %.0f%% audit, "
                   "EASY backfill, adaptive windows; %zu jobs (%d audited)",
                   kRequests, kNodes, kRanksPerNode, 100 * kAuditFrac, ref.jobs.size(),
                   ref.jobs_audited));

  auto op = [&](JsonlSink& sink, ReplayTimes* times) {
    const auto res = serve(stream, &sink, kAuditFrac);
    const auto stats = replay(sink.text, times);
    return check(res, stats, reference);
  };

  if (!opt.trace) {
    OpLoop loop(opt.seconds, 100);
    drive(loop, [&] {
      JsonlSink sink(false);
      return op(sink, nullptr);
    });
    add_end_to_end(r, loop, setup_s, steps, kRequests);
    return r;
  }

  OpLoop plain(opt.seconds / 2, 10);
  drive(plain, [&] {
    JsonlSink sink(false);
    return op(sink, nullptr);
  });
  Tracer tracer;
  OpLoop traced(opt.seconds / 2, 10);
  std::vector<double> with_sink_ms;
  double dump_ms = 0, bytes = 0;
  long records = 0;
  ReplayTimes rt;
  drive(traced, [&] {
    const long id = traced.attempted();
    const SpanScope op_span(&tracer, "bench.op", -1, id);
    JsonlSink sink(true);
    const double t0 = now_ms();
    campaign::ServiceResult res;
    {
      const SpanScope run(&tracer, "campaign.run", op_span.id(), id);
      res = serve(stream, &sink, kAuditFrac);
      tracer.aggregate(run.id(), "telemetry.dump", sink.dump_ms, sink.records);
    }
    with_sink_ms.push_back(now_ms() - t0);
    ReplayTimes times;
    telemetry::EventLogStats stats;
    {
      const SpanScope rep(&tracer, "bench.replay", op_span.id(), id);
      stats = replay(sink.text, &times);
      tracer.aggregate(rep.id(), "telemetry.parse", times.parse_ms, sink.records);
      tracer.aggregate(rep.id(), "telemetry.validate", times.validate_ms, sink.records);
      tracer.aggregate(rep.id(), "campaign.monitor_consume", times.monitor_ms, sink.records);
    }
    dump_ms += sink.dump_ms;
    records += sink.records;
    bytes += static_cast<double>(sink.text.size());
    rt.parse_ms += times.parse_ms;
    rt.validate_ms += times.validate_ms;
    rt.monitor_ms += times.monitor_ms;
    return check(res, stats, reference);
  });

  LayerValues v;
  const double plain_ms = service_ms(stream, kAuditFrac, tracer, "campaign.run_no_sink");
  const double no_audit_ms = service_ms(stream, 0.0, tracer, "campaign.run_no_sink_no_audit");
  const double per_record = records > 0 ? 1e3 / static_cast<double>(records) : 0.0;
  v["campaign.service_ms"] = plain_ms;
  v["campaign.us_per_request"] = 1e3 * plain_ms / kRequests;
  v["campaign.jobs"] = static_cast<double>(ref.jobs.size());
  v["campaign.audits"] = ref.jobs_audited;
  v["campaign.audit_ms"] = plain_ms - no_audit_ms;
  v["campaign.monitor_us_per_record"] = rt.monitor_ms * per_record;
  v["perfmodel.plan_us_per_job"] = plan_us_per_job(stream, ref);
  v["telemetry.events"] = traced.attempted() > 0 ? static_cast<double>(records) / traced.attempted() : 0.0;
  v["telemetry.bytes_per_event"] = records > 0 ? bytes / static_cast<double>(records) : 0.0;
  v["telemetry.emit_ms"] = median(with_sink_ms) - plain_ms;
  v["telemetry.dump_us_per_event"] = dump_ms * per_record;
  v["telemetry.parse_us_per_event"] = rt.parse_ms * per_record;
  v["telemetry.validate_us_per_event"] = rt.validate_ms * per_record;
  finish_traced(r, plain, traced, tracer, std::move(v));
  return r;
}

}  // namespace pb
