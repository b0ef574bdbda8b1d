// Online-service ablation: cmat-signature batching vs one-job-per-request.
//
// The same signature-skewed burst of nl03c-scale requests is pushed through
// the campaign service twice on the paper's 32-node machine — once with
// online batching (identical collision fingerprints coalesce into one
// shared-cmat XGYRO job inside the batching window) and once with batching
// disabled (the ablation: every request becomes its own k=1 job). On the
// nl03c-calibrated capacity a single simulation only fits on the full
// 32-node allocation, so the ablation serializes the whole burst; batching
// runs up to max_batch same-signature members concurrently on those same
// nodes for the paper's §2.1 sublinear ensemble cost.
//
//   ./bench/campaign_service [--json FILE] [--smoke]
//                            [--scale-only | --classic-only]
//
// Gate (exit 0/1): batching must strictly beat the ablation on completed
// requests per virtual hour, must not lose on makespan, and both runs must
// complete every admitted request. Queue-wait percentiles for both arms are
// recorded for the baseline harness.
//
// A third arm reruns the batched configuration with the full observability
// plane on (event sink + periodic monitor snapshots + an SLO monitor) and
// gates two claims: the virtual-time results are bit-identical to the
// unobserved run (observability must never perturb the simulation), and
// the overhead of emitting/consuming the event stream stays under 2% of
// process CPU time (median over interleaved pairs, with a small absolute
// slack so timer noise on a fast run cannot fail the gate; CPU time, not
// wall time, so other processes contending for the cores cannot fail it
// either). The best-of-N wall times are printed and written to the JSON,
// where the baseline harness --ignore's them; the record count is gated.
//
// The scale study pushes a 10⁵-request production-shaped stream (a long
// Poisson mix of short, medium, and wide 2-node jobs) through the modeled
// fast path — slices priced by the perfmodel, a 1% seeded DES audit — and
// gates the production configuration (EASY backfilling + adaptive
// windows) against two ablations on the same stream:
//
//   no-backfill   — strict FIFO placement: wide heads idle the cluster,
//                   so the full config must strictly win queue wait at the
//                   median and the p95 while never losing completed
//                   requests per virtual hour or makespan (the stream is
//                   sub-saturated, so throughput is arrival-bound and
//                   backfilling's win is latency);
//   fixed-window  — every batch holds the full batching window: the full
//                   config must strictly win queue-wait p95 without
//                   giving up throughput.
//
// The production arm streams its ~10⁶-record event log through the
// streaming EventValidator and the ServiceMonitor as it runs (nothing is
// buffered); the replayed monitor must agree with the service's exact
// accounting, the fast-path audit gate must pass at the default
// tolerance, and the starvation peak must stay bounded by the widest
// job's span (the EASY head-protection bound, PR-8's starvation monitor).
// --smoke shrinks the stream to 2·10³ requests with the same shape;
// --scale-only / --classic-only select one half of the bench.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "campaign/monitor.hpp"
#include "campaign/service.hpp"
#include "perfmodel/perfmodel.hpp"
#include "telemetry/events.hpp"
#include "telemetry/json.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace {

/// Signature-skewed burst: arrivals exponential at `rate_hz`, signature s
/// drawn with P(s) ∝ 2^-s (the head signature dominates — the regime where
/// batching pays), each request carrying a sweep-safe gradient of its own.
std::vector<xg::campaign::Request> make_stream(int n, int signatures,
                                               double rate_hz, int steps) {
  xg::Rng rng(2024);
  xg::gyro::Input base = xg::gyro::Input::nl03c_like();
  base.n_steps_per_report = steps;
  std::vector<xg::campaign::Request> stream;
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.next_double()) / rate_hz;
    xg::campaign::Request r;
    r.arrival_s = t;
    r.tenant = i % 2 == 0 ? "fusion" : "astro";
    int sig = 0;
    while (sig + 1 < signatures && rng.next_double() < 0.5) ++sig;
    r.input = base;
    r.input.collision.nu_ee = base.collision.nu_ee * (1.0 + 0.5 * sig);
    r.input.species[0].a_ln_t = 2.0 + 0.125 * i;
    r.input.seed = 100 + static_cast<std::uint64_t>(i);
    r.input.tag = xg::strprintf("req%d", i);
    stream.push_back(std::move(r));
  }
  return stream;
}

xg::campaign::ServiceResult run_arm(
    const std::vector<xg::campaign::Request>& stream, bool batching,
    int intervals, double window_s, int max_batch,
    xg::telemetry::EventSink* sink = nullptr) {
  xg::campaign::ServiceConfig cfg;
  cfg.cluster = xg::perfmodel::nl03c_machine(32);
  cfg.batching = batching;
  cfg.batching_window_s = window_s;
  cfg.max_batch = max_batch;
  cfg.n_report_intervals = intervals;
  cfg.mode = xg::gyro::Mode::kModel;
  if (sink != nullptr) {
    // The whole plane: event stream, periodic snapshots, SLO monitor.
    cfg.events = sink;
    cfg.metrics_every_s = 0.5;
    cfg.slo = "wait=1e6;target=0.9;burn=2";
  }
  xg::campaign::CampaignService service(cfg);
  return service.run(stream);
}

// --------------------------------------------------------------------------
// Scale study: production-shaped streams through the modeled fast path.

/// Production-shaped Poisson mix on testbox(8, 4): mostly sub-second
/// 1-node requests across `signatures` collision signatures, ~8% medium
/// 1-node jobs (~1.5 virtual s) and 2% wide jobs whose cmat does not fit
/// one node (radial = 131072 plans onto 2 nodes) — the heterogeneity that
/// makes head-blocking, and therefore placement policy, matter.
std::vector<xg::campaign::Request> make_scale_stream(int n, double rate_hz,
                                                     int signatures) {
  xg::Rng rng(777);
  const xg::gyro::Input small = xg::gyro::Input::small_test(1);
  xg::gyro::Input medium = xg::gyro::Input::small_test(2);
  medium.n_radial = 4096;
  xg::gyro::Input wide = xg::gyro::Input::small_test(2);
  wide.n_radial = 131072;
  std::vector<xg::campaign::Request> stream;
  stream.reserve(static_cast<size_t>(n));
  double t = 0.0;
  for (int i = 0; i < n; ++i) {
    t += -std::log(1.0 - rng.next_double()) / rate_hz;
    xg::campaign::Request r;
    r.arrival_s = t;
    r.tenant = xg::strprintf("t%d", i % 3);
    const double cls = rng.next_double();
    if (cls < 0.02) {
      r.input = wide;
    } else if (cls < 0.10) {
      r.input = medium;
    } else {
      r.input = small;
      int sig = 0;
      while (sig + 1 < signatures && rng.next_double() < 0.5) ++sig;
      r.input.collision.nu_ee = small.collision.nu_ee * (1.0 + 0.5 * sig);
    }
    r.input.species[0].a_ln_t = 2.0 + 0.125 * (i % 64);
    r.input.seed = 1000 + static_cast<std::uint64_t>(i);
    stream.push_back(std::move(r));
  }
  return stream;
}

/// One fan-out sink: validates the stream inline (O(requests) memory, not
/// O(records)) and feeds the live monitor replay — the servemon pipeline,
/// run at emission time instead of from a buffered log.
struct StreamingPlane : xg::telemetry::EventSink {
  xg::telemetry::EventValidator validator;
  xg::campaign::ServiceMonitor monitor;
  void write(const xg::telemetry::Json& record) override {
    validator.consume(record);
    (void)monitor.consume(record);
  }
};

xg::campaign::ServiceResult run_scale_arm(
    const std::vector<xg::campaign::Request>& stream,
    xg::campaign::PlacementPolicy placement, bool window_auto,
    xg::telemetry::EventSink* sink = nullptr) {
  xg::campaign::ServiceConfig cfg;
  cfg.cluster = xg::net::testbox(8, 4);
  cfg.max_queue_depth = static_cast<int>(stream.size());
  cfg.tenant_quota = static_cast<int>(stream.size());
  cfg.batching_window_s = 0.5;
  cfg.max_batch = 8;
  cfg.mode = xg::gyro::Mode::kModel;
  cfg.fast_path = true;
  cfg.audit_frac = 0.01;
  cfg.audit_seed = 42;
  cfg.placement = placement;
  cfg.window_auto = window_auto;
  cfg.events = sink;
  xg::campaign::CampaignService service(cfg);
  return service.run(stream);
}

/// CPU time of the whole process so far (user + sys, summed over every
/// thread, so the DES's worker threads count too), in ms.
double process_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) * 1e-3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// Wall and process CPU milliseconds one call of `fn` takes.
struct Cost {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

template <typename F>
Cost measure(F&& fn) {
  const double c0 = process_cpu_ms();
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return {std::chrono::duration<double, std::milli>(t1 - t0).count(),
          process_cpu_ms() - c0};
}

xg::telemetry::Json arm_json(const xg::campaign::ServiceResult& r) {
  xg::telemetry::Json j = xg::telemetry::Json::object();
  j.set("requests_per_hour", r.requests_per_hour)
      .set("jobs_per_hour", r.jobs_per_hour)
      .set("jobs", static_cast<std::int64_t>(r.jobs.size()))
      .set("makespan_s", r.makespan_s)
      .set("node_busy_frac", r.node_busy_frac);
  xg::telemetry::Json qw = xg::telemetry::Json::object();
  qw.set("p50", r.queue_wait.p50)
      .set("p95", r.queue_wait.p95)
      .set("p99", r.queue_wait.p99);
  j.set("queue_wait_s", std::move(qw));
  return j;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace xg;
  std::string json_out;
  bool smoke = false;
  bool verbose = false;
  bool scale_only = false;
  bool classic_only = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--verbose") == 0) {
      verbose = true;
    } else if (std::strcmp(argv[i], "--scale-only") == 0) {
      scale_only = true;
    } else if (std::strcmp(argv[i], "--classic-only") == 0) {
      classic_only = true;
    }
  }

  bool pass = true;
  telemetry::Json doc = telemetry::Json::object();
  doc.set("schema", "xgyro.bench.campaign_service").set("schema_version", 2);

  if (!scale_only) {
    // A burst (rate ≫ 1/job-seconds) so throughput measures scheduling,
    // not arrival spacing; the smoke cell keeps the same shape at half the
    // size.
    const int n = smoke ? 6 : 12;
    const int intervals = smoke ? 4 : 10;
    const int steps = 1;
    const auto stream =
        make_stream(n, /*signatures=*/3, /*rate_hz=*/50.0, steps);

    const auto batched = run_arm(stream, true, intervals, /*window_s=*/0.5,
                                 /*max_batch=*/8);
    const auto ablation = run_arm(stream, false, intervals, 0.5, 8);

    // Observability arm: the batched configuration with the event plane
    // on, run in interleaved plain/observed pairs so slow drift in the host
    // load cancels within a pair. The gate reads process CPU time, not
    // wall time: the two arms do identical virtual work, so their wall-time
    // gap under CPU contention from other processes is host noise, not
    // emission cost. It takes the median over the pairs, because a single
    // pair's CPU times still differ by up to ~90 ms on a loaded 4-vCPU host.
    const int reps = 9;
    double plain_best_ms = 1e300, observed_best_ms = 1e300;
    // Per pair: observed CPU ms minus the allowance of 2% over plain + 50 ms.
    std::vector<double> cpu_excess_ms;
    telemetry::EventBuffer events;
    campaign::ServiceResult observed;
    for (int rep = 0; rep < reps; ++rep) {
      const Cost plain = measure([&] {
        (void)run_arm(stream, true, intervals, 0.5, 8);
      });
      const Cost obs = measure([&] {
        events.records.clear();
        observed = run_arm(stream, true, intervals, 0.5, 8, &events);
      });
      plain_best_ms = std::min(plain_best_ms, plain.wall_ms);
      observed_best_ms = std::min(observed_best_ms, obs.wall_ms);
      cpu_excess_ms.push_back(obs.cpu_ms - (plain.cpu_ms * 1.02 + 50.0));
    }
    std::nth_element(cpu_excess_ms.begin(),
                     cpu_excess_ms.begin() + reps / 2, cpu_excess_ms.end());
    const double median_cpu_excess_ms = cpu_excess_ms[reps / 2];
    const double overhead_pct =
        plain_best_ms > 0.0
            ? 100.0 * (observed_best_ms - plain_best_ms) / plain_best_ms
            : 0.0;
    const telemetry::EventLogStats ev =
        telemetry::validate_events(events.records);
    const bool bit_identical = observed.describe() == batched.describe() &&
                               observed.makespan_s == batched.makespan_s;

    std::printf("=== Online service: cmat-signature batching vs no batching "
                "(%d requests, 32 nodes) ===\n\n", n);
    std::printf("%-12s %8s %14s %12s %10s %10s %10s\n", "arm", "jobs",
                "req_per_hour", "makespan_s", "wait_p50", "wait_p95",
                "wait_p99");
    for (const auto* arm : {&batched, &ablation}) {
      std::printf("%-12s %8zu %14.1f %12.3f %10.3f %10.3f %10.3f\n",
                  arm == &batched ? "batched" : "no-batching",
                  arm->jobs.size(), arm->requests_per_hour, arm->makespan_s,
                  arm->queue_wait.p50, arm->queue_wait.p95,
                  arm->queue_wait.p99);
    }

    if (verbose) {
      std::printf("\n--- batched ---\n%s--- no-batching ---\n%s",
                  batched.describe().c_str(), ablation.describe().c_str());
    }

    std::printf("\nobservability: %d event record(s), overhead %.2f%% "
                "(best-of-%d: %.1f ms observed vs %.1f ms plain), virtual "
                "results %s\n",
                ev.records, overhead_pct, reps, observed_best_ms,
                plain_best_ms, bit_identical ? "bit-identical" : "DIVERGED");
    std::printf("observability CPU time (gated): observed minus allowance "
                "%+.1f ms (median over %d pairs; allowance 2%% of plain + "
                "50 ms)\n",
                median_cpu_excess_ms, reps);

    if (batched.completed != n || ablation.completed != n) {
      std::printf("\nFAIL: not every request completed (batched %d, ablation "
                  "%d of %d)\n", batched.completed, ablation.completed, n);
      pass = false;
    }
    // The gate: strict throughput win, and never a makespan loss.
    if (batched.requests_per_hour <= ablation.requests_per_hour) pass = false;
    if (batched.makespan_s > ablation.makespan_s) pass = false;
    // Observability gates: the event plane must not perturb the
    // virtual-time results, the emitted log must be schema-valid and
    // complete, and its CPU cost must stay under 2% (plus 50 ms of
    // absolute slack: this arm emits only ~40 records, so any smaller
    // margin gates scheduler jitter, not event-plane cost — a real
    // per-record regression shows up orders of magnitude earlier in the
    // 6·10⁵-record scale arm's wall time).
    if (!bit_identical) {
      std::printf("FAIL: observability perturbed the virtual-time results\n");
      pass = false;
    }
    if (!ev.ended || ev.completed != n) {
      std::printf("FAIL: event log incomplete (%d completed of %d, "
                  "ended=%d)\n", ev.completed, n, ev.ended ? 1 : 0);
      pass = false;
    }
    if (median_cpu_excess_ms > 0.0) {
      std::printf("FAIL: observability CPU overhead exceeds the 2%% gate by "
                  "%.1f ms\n", median_cpu_excess_ms);
      pass = false;
    }

    const double speedup = ablation.requests_per_hour > 0.0
                               ? batched.requests_per_hour /
                                     ablation.requests_per_hour
                               : 0.0;
    std::printf("\nbatching %s (%.2fx the ablation's completed requests per "
                "virtual hour)\n", pass ? "PASSES" : "FAILS", speedup);

    doc.set("requests", n)
        .set("intervals", intervals)
        .set("batched", arm_json(batched))
        .set("ablation", arm_json(ablation))
        .set("speedup", speedup)
        .set("observability",
             telemetry::Json::object()
                 .set("records", ev.records)
                 .set("snapshots", ev.by_type.count("monitor.snapshot")
                                       ? ev.by_type.at("monitor.snapshot")
                                       : 0)
                 .set("bit_identical", bit_identical)
                 .set("overhead_pct", overhead_pct)
                 .set("wall_plain_ms", plain_best_ms)
                 .set("wall_observed_ms", observed_best_ms));
  }

  if (!classic_only) {
    const int sn = smoke ? 2000 : 100000;
    const auto sstream = make_scale_stream(sn, /*rate_hz=*/6.0,
                                           /*signatures=*/4);

    StreamingPlane plane;
    const auto t0 = std::chrono::steady_clock::now();
    const auto prod = run_scale_arm(
        sstream, campaign::PlacementPolicy::kBackfill, /*window_auto=*/true,
        &plane);
    const double prod_wall_ms = std::chrono::duration<double, std::milli>(
        std::chrono::steady_clock::now() - t0).count();
    const auto nofill = run_scale_arm(
        sstream, campaign::PlacementPolicy::kFifo, /*window_auto=*/true);
    const auto fixedw = run_scale_arm(
        sstream, campaign::PlacementPolicy::kBackfill,
        /*window_auto=*/false);

    std::printf("\n=== Scale study: %d-request fast-path stream "
                "(8 nodes, 1%% DES audit) ===\n\n", sn);
    std::printf("%-14s %9s %14s %12s %10s %10s %10s\n", "arm", "jobs",
                "req_per_hour", "makespan_s", "wait_p50", "wait_p95",
                "wait_p99");
    const struct { const char* name; const campaign::ServiceResult* r; }
        arms[] = {{"production", &prod},
                  {"no-backfill", &nofill},
                  {"fixed-window", &fixedw}};
    for (const auto& [name, r] : arms) {
      std::printf("%-14s %9zu %14.1f %12.1f %10.3f %10.3f %10.3f\n", name,
                  r->jobs.size(), r->requests_per_hour, r->makespan_s,
                  r->queue_wait.p50, r->queue_wait.p95, r->queue_wait.p99);
    }

    // Inline streaming plane: validator + monitor consumed every record as
    // it was emitted; finish() runs the end-of-log checks.
    const telemetry::EventLogStats sev = plane.validator.finish();
    const telemetry::Json replay = plane.monitor.report();
    const telemetry::Json& audit = prod.fast_path.at("audit");
    const double starvation_peak_s =
        replay.at("starvation").at("peak_age_s").as_double();
    // The EASY head-protection bound: the widest job of the mix spans
    // ~25 virtual s (radial = 131072 on 2 nodes), and a queued request can
    // sit behind a short chain of such heads under a burst — but never
    // starve unboundedly the way first-fit leapfrogging allows. The
    // 10⁵-request stream peaks at ~3.4 spans; four is the gate.
    const double widest_span_s = 26.0;
    const double starvation_bound_s = 4.0 * widest_span_s;

    std::printf("\nfast path: %d modeled, %d audited (%d forced); audit "
                "gate n=%lld worst ratio %.3f (tolerance %.1f) -> %s\n",
                prod.jobs_modeled, prod.jobs_audited, prod.audits_forced,
                static_cast<long long>(audit.at("n").as_int()),
                audit.at("worst_ratio").as_double(),
                audit.at("tolerance").as_double(),
                audit.at("pass").as_bool() ? "PASS" : "FAIL");
    std::printf("streaming plane: %d record(s) validated inline; replayed "
                "starvation peak %.1f s (bound %.0f s); wall %.0f ms for "
                "the production arm\n",
                sev.records, starvation_peak_s, starvation_bound_s,
                prod_wall_ms);

    if (verbose) {
      std::printf("\n--- production ---\n%s", prod.describe().c_str());
    }

    // Completion: nothing shed, nothing failed, in any arm.
    for (const auto& [name, r] : arms) {
      if (r->completed != sn) {
        std::printf("FAIL: scale arm %s completed %d of %d\n", name,
                    r->completed, sn);
        pass = false;
      }
    }
    // Strict win vs the no-backfill ablation: FIFO idles the cluster
    // behind wide heads, so backfilling must strictly cut queue wait at
    // the median and the tail while never losing throughput or makespan
    // (the stream is sub-saturated — both arms drain by the last arrival,
    // so throughput is arrival-bound and the win is latency).
    if (prod.queue_wait.p50 >= nofill.queue_wait.p50 ||
        prod.queue_wait.p95 >= nofill.queue_wait.p95) {
      std::printf("FAIL: backfilling did not beat FIFO queue wait "
                  "(p50 %.3f vs %.3f, p95 %.3f vs %.3f s)\n",
                  prod.queue_wait.p50, nofill.queue_wait.p50,
                  prod.queue_wait.p95, nofill.queue_wait.p95);
      pass = false;
    }
    if (prod.requests_per_hour + 1e-9 < nofill.requests_per_hour) {
      std::printf("FAIL: backfilling lost throughput to FIFO "
                  "(%.1f vs %.1f req/h)\n", prod.requests_per_hour,
                  nofill.requests_per_hour);
      pass = false;
    }
    if (prod.makespan_s > nofill.makespan_s + 1e-9) {
      std::printf("FAIL: backfilling lost makespan to FIFO\n");
      pass = false;
    }
    // Strict wait win vs the fixed-window ablation, at no throughput cost.
    if (prod.queue_wait.p95 >= fixedw.queue_wait.p95) {
      std::printf("FAIL: adaptive windows did not beat the fixed window on "
                  "wait p95 (%.3f vs %.3f s)\n", prod.queue_wait.p95,
                  fixedw.queue_wait.p95);
      pass = false;
    }
    if (prod.requests_per_hour + 1e-9 < fixedw.requests_per_hour) {
      std::printf("FAIL: adaptive windows gave up throughput vs the fixed "
                  "window\n");
      pass = false;
    }
    // The sampled-audit divergence gate at the default tolerance.
    if (!audit.at("pass").as_bool()) {
      std::printf("FAIL: fast-path audit gate tripped\n");
      pass = false;
    }
    if (prod.jobs_audited == 0 || prod.jobs_modeled == 0) {
      std::printf("FAIL: expected both modeled and audited jobs "
                  "(%d modeled, %d audited)\n", prod.jobs_modeled,
                  prod.jobs_audited);
      pass = false;
    }
    // Streaming validation and replay agreement: the inline monitor must
    // reproduce the service's exact accounting at scale.
    if (!sev.ended || sev.completed != sn ||
        sev.jobs_modeled != prod.jobs_modeled ||
        sev.jobs_audited != prod.jobs_audited) {
      std::printf("FAIL: streamed event log disagrees with the service "
                  "(%d completed, %d modeled, %d audited)\n", sev.completed,
                  sev.jobs_modeled, sev.jobs_audited);
      pass = false;
    }
    if (starvation_peak_s > starvation_bound_s) {
      std::printf("FAIL: starvation peak %.1f s exceeds the EASY bound "
                  "%.0f s\n", starvation_peak_s, starvation_bound_s);
      pass = false;
    }

    std::printf("\nscale study %s\n", pass ? "PASSES" : "FAILS");

    auto scale_arm_json = [](const campaign::ServiceResult& r) {
      telemetry::Json j = arm_json(r);
      j.set("modeled", r.jobs_modeled).set("audited", r.jobs_audited);
      return j;
    };
    doc.set("scale",
            telemetry::Json::object()
                .set("requests", sn)
                .set("production", scale_arm_json(prod))
                .set("no_backfill", scale_arm_json(nofill))
                .set("fixed_window", scale_arm_json(fixedw))
                .set("audit",
                     telemetry::Json::object()
                         .set("n", audit.at("n").as_int())
                         .set("worst_ratio",
                              audit.at("worst_ratio").as_double())
                         .set("pass", audit.at("pass").as_bool()))
                .set("events", sev.records)
                .set("starvation_peak_s", starvation_peak_s)
                .set("wall_production_ms", prod_wall_ms));
  }

  doc.set("pass", pass);
  if (!json_out.empty()) {
    telemetry::write_json_file(json_out, doc);
    std::printf("series written to %s\n", json_out.c_str());
  }
  return pass ? 0 : 1;
}
