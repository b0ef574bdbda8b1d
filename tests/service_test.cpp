// Online campaign service: admission, cmat-signature batching, bin-packing
// placement with preemption, and a seeded randomized scheduler stress
// harness. The randomized cases drive mixed signatures, tenants,
// priorities, and fault plans through the full DES execution path and
// check the service's core invariants on every outcome:
//
//   exactly-once  — every accepted request reaches exactly one terminal
//                   state and appears in at most one job, exactly once;
//   purity        — a job never mixes members with different cmat
//                   fingerprints (the precondition for sharing a tensor);
//   physics       — a member's diagnostics are bit-identical to a
//                   standalone k=1 run on the same decomposition,
//                   including across a preemption/restore cycle;
//   feasibility   — every placed job's per-rank memory inventory fits its
//                   allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "campaign/monitor.hpp"
#include "campaign/service.hpp"
#include "telemetry/events.hpp"
#include "telemetry/report.hpp"
#include "cluster/memory.hpp"
#include "gyro/simulation.hpp"
#include "perfmodel/perfmodel.hpp"
#include "simnet/machine.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"
#include "xgyro/ensemble.hpp"

namespace xg::campaign {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& name)
      : path((fs::temp_directory_path() / ("xg_svc_" + name)).string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

Request make_request(double arrival_s, const gyro::Input& input,
                     const std::string& tenant = "default",
                     int priority = 0) {
  Request r;
  r.arrival_s = arrival_s;
  r.input = input;
  r.tenant = tenant;
  r.priority = priority;
  return r;
}

/// Uninterrupted standalone (k=1) reference run of one member at the same
/// ranks-per-sim the service job used — the bit-identity baseline.
gyro::Diagnostics standalone_diagnostics(const gyro::Input& input,
                                         int ranks_per_sim, int intervals) {
  xgyro::EnsembleInput single;
  single.members.push_back(input);
  xgyro::JobOptions opts;
  opts.n_report_intervals = intervals;
  opts.mode = gyro::Mode::kReal;
  opts.max_recoveries = 3;
  const auto res = xgyro::run_job(single, net::testbox(1, ranks_per_sim),
                                  ranks_per_sim, opts);
  return res.diagnostics.at(0);
}

void expect_bit_identical(const gyro::Diagnostics& got,
                          const gyro::Diagnostics& want,
                          const std::string& label) {
  EXPECT_EQ(got.steps, want.steps) << label;
  EXPECT_EQ(got.phi_rms, want.phi_rms) << label;
  EXPECT_EQ(got.flux_proxy, want.flux_proxy) << label;
  EXPECT_EQ(got.free_energy, want.free_energy) << label;
}

// ---------------------------------------------------------------------------
// Admission control

TEST(ServiceAdmission, RejectsRequestThatCanNeverFit) {
  ServiceConfig cfg;
  cfg.cluster = net::testbox(1, 2);  // nl03c's cmat alone is ~350 GB/rank
  CampaignService service(cfg);
  const auto res = service.run(
      {make_request(0.0, gyro::Input::nl03c_like()),
       make_request(0.1, gyro::Input::small_test(1))});
  EXPECT_EQ(res.outcomes[0].admission, Admission::kRejectedInfeasible);
  EXPECT_EQ(res.outcomes[0].job, -1);
  EXPECT_FALSE(res.outcomes[0].completed);
  EXPECT_EQ(res.outcomes[1].admission, Admission::kAccepted);
  EXPECT_TRUE(res.outcomes[1].completed);
  EXPECT_EQ(res.admitted, 1);
  EXPECT_EQ(res.rejected, 1);
}

TEST(ServiceAdmission, BoundedQueueDepthShedsLoad) {
  ServiceConfig cfg;
  cfg.cluster = net::testbox(1, 2);
  cfg.max_queue_depth = 2;
  cfg.batching = false;
  const gyro::Input in = gyro::Input::small_test(1);
  // All five arrive at t=0 (vector order breaks the tie): the first starts
  // immediately, two wait, the rest are shed.
  std::vector<Request> stream;
  for (int i = 0; i < 5; ++i) stream.push_back(make_request(0.0, in));
  const auto res = CampaignService(cfg).run(stream);
  EXPECT_EQ(res.outcomes[0].admission, Admission::kAccepted);
  EXPECT_EQ(res.outcomes[1].admission, Admission::kAccepted);
  EXPECT_EQ(res.outcomes[2].admission, Admission::kAccepted);
  EXPECT_EQ(res.outcomes[3].admission, Admission::kRejectedQueueFull);
  EXPECT_EQ(res.outcomes[4].admission, Admission::kRejectedQueueFull);
  EXPECT_EQ(res.completed, 3);
  EXPECT_EQ(res.rejected, 2);
}

TEST(ServiceAdmission, TenantQuotaIsPerTenant) {
  ServiceConfig cfg;
  cfg.cluster = net::testbox(1, 2);
  cfg.tenant_quota = 1;
  cfg.batching = false;
  const gyro::Input in = gyro::Input::small_test(1);
  const auto res = CampaignService(cfg).run(
      {make_request(0.0, in, "alice"), make_request(0.0, in, "alice"),
       make_request(0.0, in, "bob")});
  EXPECT_EQ(res.outcomes[0].admission, Admission::kAccepted);
  EXPECT_EQ(res.outcomes[1].admission, Admission::kRejectedTenantQuota);
  EXPECT_EQ(res.outcomes[2].admission, Admission::kAccepted);
  // The quota frees up once the first request finishes: a later arrival
  // from the same tenant is admitted again.
  const auto late = CampaignService(cfg).run(
      {make_request(0.0, in, "alice"), make_request(100.0, in, "alice")});
  EXPECT_EQ(late.outcomes[1].admission, Admission::kAccepted);
  EXPECT_EQ(late.completed, 2);
}

// ---------------------------------------------------------------------------
// Batching window

TEST(ServiceBatching, WindowHoldsAndMaxBatchClosesEarly) {
  const gyro::Input in = gyro::Input::small_test(1);
  std::vector<Request> stream;
  for (int i = 0; i < 4; ++i) stream.push_back(make_request(0.01 * i, in));

  ServiceConfig cfg;
  cfg.cluster = net::testbox(1, 4);
  cfg.batching_window_s = 5.0;
  cfg.max_batch = 8;
  {
    // One open batch collects all four; nothing starts before the window
    // closes at first-arrival + 5 s.
    const auto res = CampaignService(cfg).run(stream);
    EXPECT_EQ(res.completed, 4);
    for (const auto& oc : res.outcomes) {
      // Nothing starts before the window closes; the batch may split into
      // several jobs that serialize right after it.
      EXPECT_GE(oc.start_s, 5.0);
      EXPECT_LT(oc.start_s, 5.5);
    }
  }
  {
    // max_batch = 2 closes pairs early: nobody waits for the window.
    cfg.max_batch = 2;
    const auto res = CampaignService(cfg).run(stream);
    EXPECT_EQ(res.completed, 4);
    for (const auto& oc : res.outcomes) {
      EXPECT_LT(oc.wait_s(), 1.0);
    }
  }
  {
    // Ablation: batching off, one singleton job per request, immediate.
    cfg.batching = false;
    const auto res = CampaignService(cfg).run(stream);
    EXPECT_EQ(res.jobs.size(), 4u);
    for (const auto& j : res.jobs) EXPECT_EQ(j.k, 1);
    for (const auto& oc : res.outcomes) EXPECT_LT(oc.wait_s(), 1.0);
  }
}

TEST(ServiceBatching, DifferentFingerprintsNeverMerge) {
  gyro::Input a = gyro::Input::small_test(1);
  gyro::Input b = a;
  b.collision.nu_ee *= 2.0;  // cmat-relevant: different signature
  ASSERT_NE(a.cmat_fingerprint(), b.cmat_fingerprint());
  std::vector<Request> stream = {make_request(0.0, a), make_request(0.0, b),
                                 make_request(0.0, a), make_request(0.0, b)};
  ServiceConfig cfg;
  cfg.cluster = net::testbox(1, 4);
  cfg.batching_window_s = 2.0;
  const auto res = CampaignService(cfg).run(stream);
  EXPECT_EQ(res.completed, 4);
  for (const auto& job : res.jobs) {
    for (const int id : job.request_ids) {
      EXPECT_EQ(stream[static_cast<size_t>(id)].input.cmat_fingerprint(),
                job.cmat_fingerprint)
          << "job " << job.id;
    }
  }
}

// ---------------------------------------------------------------------------
// Preemption

TEST(ServicePreemption, HigherPriorityPreemptsAtSliceBoundaryBitIdentically) {
  const gyro::Input low_in = gyro::Input::small_test(1);
  gyro::Input high_in = low_in;
  high_in.collision.nu_ee *= 1.5;

  const TempDir ckpt("preempt");
  ServiceConfig cfg;
  cfg.cluster = net::testbox(1, 2);
  cfg.batching = false;
  cfg.checkpoint_root = ckpt.path;
  cfg.preempt_quantum = 1;
  cfg.n_report_intervals = 3;

  // The low-priority job starts at t=0; the high-priority request lands
  // mid-first-slice and must take the node at the next slice boundary.
  const auto res = CampaignService(cfg).run(
      {make_request(0.0, low_in, "batch", 0),
       make_request(1e-4, high_in, "urgent", 5)});
  ASSERT_EQ(res.completed, 2);
  ASSERT_EQ(res.jobs.size(), 2u);
  const auto& low = res.jobs[res.outcomes[0].job];
  const auto& high = res.jobs[res.outcomes[1].job];
  EXPECT_EQ(low.preemptions, 1);
  EXPECT_LT(high.finish_s, low.finish_s);
  // Preemption lands exactly on a snapshotted slice boundary, so the low
  // job still runs its three intervals in three slices — just interleaved
  // with the high job's.
  EXPECT_EQ(low.slices, cfg.n_report_intervals / cfg.preempt_quantum);
  EXPECT_GT(low.finish_s, high.start_s);

  // The preempted member resumed from its snapshot: physics must still be
  // bit-identical to an uninterrupted standalone run.
  expect_bit_identical(
      res.outcomes[0].diagnostics,
      standalone_diagnostics(low_in, low.ranks_per_sim, 3), "preempted low");
  expect_bit_identical(
      res.outcomes[1].diagnostics,
      standalone_diagnostics(high_in, high.ranks_per_sim, 3), "high");
}

// A sliced job's report counts the snapshots of every slice, not only the
// last one's.
TEST(ServiceReports, SlicedJobReportCountsEverySlicesSnapshots) {
  const TempDir ckpt("report_snapshots");
  const TempDir reports("report_snapshots_reports");
  ServiceConfig cfg;
  cfg.cluster = net::testbox(1, 2);
  cfg.checkpoint_root = ckpt.path;
  cfg.report_dir = reports.path;
  cfg.n_report_intervals = 2;
  const auto res =
      CampaignService(cfg).run({make_request(0.0, gyro::Input::small_test(1))});
  ASSERT_EQ(res.completed, 1);
  ASSERT_EQ(res.jobs.size(), 1u);
  EXPECT_EQ(res.jobs[0].slices, 2);
  const auto report = telemetry::load_run_report(
      reports.path + strprintf("/job-%d.report.json", res.jobs[0].id));
  EXPECT_TRUE(report.have_recovery);
  EXPECT_EQ(report.snapshots_committed, 2u);
  EXPECT_EQ(report.snapshots_rejected, 0u);
}

// ---------------------------------------------------------------------------
// Differential property: online grouping vs the offline planner

TEST(ServiceDifferential, AllAtOnceArrivalIsNeverWorseThanOfflinePlan) {
  for (int g = 1; g <= 8; ++g) {
    const gyro::Input base = gyro::Input::small_test(1);
    auto members = xgyro::EnsembleInput::sweep(
        base, g, [](gyro::Input& in, int i) {
          in.species[0].a_ln_t = 2.0 + 0.25 * i;
          in.seed = 40 + static_cast<std::uint64_t>(i);
        });

    CampaignSpec spec;
    spec.members = members;
    spec.machine = net::testbox(2, 2);
    const auto offline = plan_campaign(spec);

    ServiceConfig cfg;
    cfg.cluster = spec.machine;
    cfg.nodes_per_job = spec.machine.n_nodes;  // offline plans full-machine
    cfg.batching_window_s = 1.0;
    cfg.max_batch = g;
    std::vector<Request> stream;
    for (const auto& m : members.members) stream.push_back(make_request(0.0, m));
    const auto online = CampaignService(cfg).run(stream);
    ASSERT_EQ(online.completed, g) << "g=" << g;

    double online_predicted = 0.0;
    for (const auto& job : online.jobs) {
      online_predicted += job.predicted_seconds;
      // Both sides respect the memory-feasibility invariant.
      net::MachineSpec alloc = cfg.cluster;
      alloc.n_nodes = job.nodes;
      const auto fit = cluster::check_fit(
          gyro::Simulation::memory_inventory(
              stream[static_cast<size_t>(job.request_ids[0])].input,
              job.decomp, job.k),
          alloc);
      EXPECT_TRUE(fit.fits) << "online g=" << g << " job " << job.id;
    }
    for (const auto& jp : offline.jobs) {
      const auto fit = cluster::check_fit(
          gyro::Simulation::memory_inventory(members.members[0], jp.decomp,
                                             jp.k()),
          spec.machine);
      EXPECT_TRUE(fit.fits) << "offline g=" << g;
    }
    EXPECT_LE(online_predicted, offline.predicted_total_seconds + 1e-12)
        << "g=" << g;
  }
}

// ---------------------------------------------------------------------------
// Seeded randomized scheduler stress

/// Every fourth stress seed injects kills.
bool stress_kills(int seed) { return seed % 4 == 0; }

/// The randomized arrival stream of stress seed `seed`.
std::vector<Request> stress_stream(int seed) {
  StreamSpec spec;
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.n = 5 + seed % 5;
  spec.rate_hz = 2.0 + seed % 7;
  spec.tenants = 1 + seed % 3;
  spec.signatures = 1 + seed % 3;
  spec.priorities = 1 + seed % 3;
  spec.skew = seed % 2 == 1;
  spec.kill_frac = stress_kills(seed) ? 0.25 : 0.0;
  return spec.generate();
}

/// The service configuration of stress seed `seed`, checkpointing under
/// `ckpt_root` when it runs sliced. The caller sets the event sink, which
/// every stress seed runs with; some seeds also exercise periodic
/// snapshots and the SLO monitor under load.
ServiceConfig stress_config(int seed, const std::string& ckpt_root) {
  const bool kills = stress_kills(seed);
  ServiceConfig cfg;
  cfg.cluster = net::testbox(2, 2);
  cfg.max_queue_depth = 4 + seed % 4;
  cfg.tenant_quota = 2 + seed % 3;
  cfg.batching_window_s = 0.25 * (seed % 3);  // 0 disables for seed%3==0
  cfg.max_batch = 2 + seed % 3;
  cfg.n_report_intervals = kills ? 2 : 1;
  // Sliced execution (checkpointing + preemption) for odd seeds and for
  // every fault-injecting case; single-slice jobs otherwise.
  if (seed % 2 == 1 || kills) cfg.checkpoint_root = ckpt_root;
  if (kills) cfg.nodes_per_job = 2;  // recovery needs a node to drop
  if (seed % 3 == 1) cfg.metrics_every_s = 0.5;
  if (seed % 4 == 2) cfg.slo = "wait=0.25;target=0.9;burn=2";
  return cfg;
}

class ServiceStress : public ::testing::TestWithParam<int> {};

TEST_P(ServiceStress, InvariantsHoldUnderRandomizedLoad) {
  const int seed = GetParam();
  const auto stream = stress_stream(seed);
  const TempDir ckpt("stress_" + std::to_string(seed));
  ServiceConfig cfg = stress_config(seed, ckpt.path);
  telemetry::EventBuffer events;
  cfg.events = &events;
  CampaignService service(cfg);
  const auto res = service.run(stream);

  // --- event log: the emitted stream must satisfy the full grammar
  // (contiguous seq, legal state machines, exactly-once terminals) and its
  // census must agree with the service result.
  const telemetry::EventLogStats ev = telemetry::validate_events(events.records);
  EXPECT_TRUE(ev.ended);
  EXPECT_FALSE(ev.aborted);
  EXPECT_EQ(ev.requests, static_cast<int>(stream.size()));
  EXPECT_EQ(ev.rejected, res.rejected);
  EXPECT_EQ(ev.completed, res.completed);
  EXPECT_EQ(ev.failed, res.failed);
  EXPECT_EQ(ev.terminals, ev.rejected + ev.completed + ev.failed);

  // --- exactly-once: every accepted request reaches one terminal state and
  // appears in exactly one job's member list, exactly once.
  std::map<int, int> appearances;
  for (const auto& job : res.jobs) {
    for (const int id : job.request_ids) ++appearances[id];
  }
  int admitted = 0, terminal = 0;
  for (const auto& oc : res.outcomes) {
    if (oc.admission != Admission::kAccepted) {
      EXPECT_EQ(oc.job, -1) << "rejected request " << oc.id;
      EXPECT_EQ(appearances.count(oc.id), 0u);
      continue;
    }
    ++admitted;
    EXPECT_GE(oc.finish_s, 0.0) << "request " << oc.id << " never finished";
    ++terminal;
    if (oc.job >= 0) {
      EXPECT_EQ(appearances[oc.id], 1) << "request " << oc.id;
      EXPECT_GE(oc.start_s, oc.arrival_s);
    } else {
      // Unplaceable after cluster shrinkage: terminal failure, never ran.
      EXPECT_FALSE(oc.completed);
    }
  }
  EXPECT_EQ(res.admitted, admitted);
  EXPECT_EQ(res.completed + res.failed, admitted);
  EXPECT_EQ(res.queue_wait.n, res.admitted - [&] {
    int never_started = 0;
    for (const auto& oc : res.outcomes) {
      if (oc.admission == Admission::kAccepted && oc.start_s < 0.0) {
        ++never_started;
      }
    }
    return never_started;
  }());

  // --- purity: no job mixes cmat fingerprints; feasibility: every placed
  // job fits its allocation.
  for (const auto& job : res.jobs) {
    ASSERT_FALSE(job.request_ids.empty());
    for (const int id : job.request_ids) {
      EXPECT_EQ(stream[static_cast<size_t>(id)].input.cmat_fingerprint(),
                job.cmat_fingerprint)
          << "job " << job.id;
    }
    net::MachineSpec alloc = cfg.cluster;
    alloc.n_nodes = job.nodes;
    const auto fit = cluster::check_fit(
        gyro::Simulation::memory_inventory(
            stream[static_cast<size_t>(job.request_ids[0])].input, job.decomp,
            job.k),
        alloc);
    EXPECT_TRUE(fit.fits) << "job " << job.id;
  }

  // --- physics: members of fault-free jobs are bit-identical to standalone
  // k=1 runs at the same decomposition (recovered jobs replan theirs, so
  // they agree only to rounding — covered by the elastic-recovery suite).
  for (const auto& oc : res.outcomes) {
    if (!oc.completed || oc.job < 0) continue;
    const auto& job = res.jobs[static_cast<size_t>(oc.job)];
    if (!job.recoveries.empty()) continue;
    expect_bit_identical(
        oc.diagnostics,
        standalone_diagnostics(stream[static_cast<size_t>(oc.id)].input,
                               job.ranks_per_sim, cfg.n_report_intervals),
        "seed " + std::to_string(seed) + " request " +
            std::to_string(oc.id));
  }

  // --- determinism: the whole service run is a pure function of
  // (stream, config), including its event stream — and turning the
  // observability plane off must not perturb the virtual-time results.
  if (seed % 5 == 0) {
    telemetry::EventBuffer events2;
    ServiceConfig cfg2 = cfg;
    cfg2.events = &events2;
    const auto again = CampaignService(cfg2).run(stream);
    EXPECT_EQ(again.describe(), res.describe());
    ASSERT_EQ(events2.records.size(), events.records.size());
    for (size_t i = 0; i < events.records.size(); ++i) {
      EXPECT_EQ(events2.records[i].dump(), events.records[i].dump())
          << "record " << i;
    }

    ServiceConfig blind = cfg;
    blind.events = nullptr;
    blind.metrics_every_s = 0.0;
    blind.slo.clear();
    const auto unobserved = CampaignService(blind).run(stream);
    EXPECT_EQ(unobserved.describe(), res.describe());
    EXPECT_EQ(unobserved.makespan_s, res.makespan_s);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServiceStress, ::testing::Range(1, 16));

// ---------------------------------------------------------------------------
// Fast path: modeled pricing vs full DES execution

ServiceConfig fast_path_config(int seed) {
  ServiceConfig cfg;
  cfg.cluster = net::testbox(2, 2);
  cfg.batching_window_s = 0.5 * (seed % 2);  // 0 disables for even seeds
  cfg.max_batch = 2 + seed % 2;
  return cfg;
}

std::vector<Request> fast_path_stream(int seed) {
  StreamSpec spec;
  spec.seed = static_cast<std::uint64_t>(seed);
  spec.n = 6 + seed % 5;
  spec.rate_hz = 2.0 + seed % 5;
  spec.tenants = 1 + seed % 2;
  spec.signatures = 1 + seed % 3;
  spec.priorities = 1 + seed % 2;
  spec.skew = seed % 2 == 1;
  return spec.generate();
}

class FastPathDifferential : public ::testing::TestWithParam<int> {};

// audit_frac = 1.0 sends every job down the DES path: the fast-path run
// must reproduce the plain DES run's virtual-time story bit-for-bit, and
// the divergence gate (every job is a sampled audit) must pass at the
// default tolerance.
TEST_P(FastPathDifferential, FullAuditReproducesDesExactly) {
  const int seed = GetParam();
  const auto stream = fast_path_stream(seed);

  const auto des = CampaignService(fast_path_config(seed)).run(stream);

  ServiceConfig cfg = fast_path_config(seed);
  cfg.fast_path = true;
  cfg.audit_frac = 1.0;
  cfg.audit_seed = static_cast<std::uint64_t>(seed);
  const auto audited = CampaignService(cfg).run(stream);

  EXPECT_EQ(audited.makespan_s, des.makespan_s) << "seed " << seed;
  EXPECT_EQ(audited.completed, des.completed);
  EXPECT_EQ(audited.queue_wait.p50, des.queue_wait.p50);
  EXPECT_EQ(audited.queue_wait.max, des.queue_wait.max);
  ASSERT_EQ(audited.outcomes.size(), des.outcomes.size());
  for (size_t i = 0; i < des.outcomes.size(); ++i) {
    EXPECT_EQ(audited.outcomes[i].start_s, des.outcomes[i].start_s)
        << "seed " << seed << " request " << i;
    EXPECT_EQ(audited.outcomes[i].finish_s, des.outcomes[i].finish_s)
        << "seed " << seed << " request " << i;
    EXPECT_EQ(audited.outcomes[i].job, des.outcomes[i].job);
    EXPECT_FALSE(audited.outcomes[i].modeled);
  }

  EXPECT_EQ(audited.jobs_modeled, 0);
  EXPECT_EQ(audited.jobs_audited, static_cast<int>(audited.jobs.size()));
  EXPECT_EQ(audited.audits_forced, 0);
  ASSERT_TRUE(audited.fast_path.is_object());
  const telemetry::Json& gate = audited.fast_path.at("audit");
  EXPECT_EQ(gate.at("n").as_int(),
            static_cast<std::int64_t>(audited.jobs.size()));
  EXPECT_TRUE(gate.at("pass").as_bool())
      << "seed " << seed << ": worst ratio "
      << gate.at("worst_ratio").as_double();
}

// audit_frac = 0.0 prices every job from the perfmodel. Batch membership
// is arrival-driven, so the modeled run builds the same jobs as the DES
// run — and each job's fast-path price must track its realized DES cost
// within the audit-gate tolerance (the property the sampled audits check
// online).
TEST_P(FastPathDifferential, ModeledPricesTrackDesWithinAuditTolerance) {
  const int seed = GetParam();
  const auto stream = fast_path_stream(seed);

  const auto des = CampaignService(fast_path_config(seed)).run(stream);

  ServiceConfig cfg = fast_path_config(seed);
  cfg.fast_path = true;
  cfg.audit_frac = 0.0;
  const auto modeled = CampaignService(cfg).run(stream);

  EXPECT_EQ(modeled.jobs_modeled, static_cast<int>(modeled.jobs.size()));
  EXPECT_EQ(modeled.jobs_audited, 0);
  ASSERT_TRUE(modeled.fast_path.is_object());
  // No sampled audits: the gate reports n = 0 and cannot trip.
  EXPECT_TRUE(modeled.fast_path.at("audit").at("pass").as_bool());

  ASSERT_EQ(modeled.jobs.size(), des.jobs.size()) << "seed " << seed;
  for (size_t j = 0; j < des.jobs.size(); ++j) {
    const auto& mj = modeled.jobs[j];
    const auto& dj = des.jobs[j];
    ASSERT_EQ(mj.request_ids, dj.request_ids) << "seed " << seed << " job " << j;
    EXPECT_TRUE(mj.modeled);
    ASSERT_GT(mj.price_s, 0.0);
    ASSERT_GT(dj.busy_s, 0.0);
    const double ratio = std::max(mj.price_s, dj.busy_s) /
                         std::min(mj.price_s, dj.busy_s);
    EXPECT_LE(ratio, perfmodel::kDefaultAuditTolerance)
        << "seed " << seed << " job " << j << ": price " << mj.price_s
        << " vs DES " << dj.busy_s;
  }
  for (const auto& oc : modeled.outcomes) {
    if (oc.completed) {
      EXPECT_TRUE(oc.modeled) << "request " << oc.id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathDifferential, ::testing::Range(1, 12));

// Jobs carrying fault plans cannot be priced (the model knows nothing of
// kills and recoveries), so the fast path force-audits them — and keeps
// them out of the divergence gate.
TEST(FastPathAudit, FaultCarryingJobsAreForcedAuditsOutsideTheGate) {
  StreamSpec spec;
  spec.seed = 4;
  spec.n = 8;
  spec.rate_hz = 2.0;
  spec.kill_frac = 0.5;
  const auto stream = spec.generate();

  const TempDir ckpt("forced_audit");
  ServiceConfig cfg;
  cfg.cluster = net::testbox(2, 2);
  cfg.nodes_per_job = 2;  // recovery needs a node to drop
  cfg.checkpoint_root = ckpt.path;
  cfg.n_report_intervals = 2;
  cfg.batching = false;
  cfg.fast_path = true;
  cfg.audit_frac = 0.0;  // only the forced audits DES-execute
  const auto res = CampaignService(cfg).run(stream);

  EXPECT_GT(res.audits_forced, 0);
  EXPECT_EQ(res.jobs_audited, res.audits_forced);
  int forced = 0;
  for (const auto& job : res.jobs) {
    EXPECT_NE(job.modeled, job.audited) << "job " << job.id;
    if (job.audit_forced) {
      ++forced;
      EXPECT_TRUE(job.audited);
    }
  }
  EXPECT_EQ(forced, res.audits_forced);
  // Forced audits are excluded from the gate: with no sampled audits the
  // gate sees zero pairs and passes vacuously.
  ASSERT_TRUE(res.fast_path.is_object());
  EXPECT_EQ(res.fast_path.at("audit").at("n").as_int(), 0);
  EXPECT_TRUE(res.fast_path.at("audit").at("pass").as_bool());
}

// ---------------------------------------------------------------------------
// Backfilling placement

/// small_test(2) with the radial grid scaled: on testbox(·, 4) nodes,
/// radial = 131072 is infeasible on one node and plans onto two, while
/// smaller grids stay cost-optimal on a single node — which is what lets
/// these scenarios pin down exact head/backfill geometry.
gyro::Input scaled_input(int n_radial) {
  gyro::Input in = gyro::Input::small_test(2);
  in.n_radial = n_radial;
  return in;
}

/// Shared scenario: a long 1-node job A holds half the cluster when the
/// 2-node head H arrives and blocks; a third 1-node request lands behind
/// the blocked head. Fully modeled (fast path, no sampled audits) so job
/// durations equal their perfmodel predictions and the schedule is exact.
ServiceConfig backfill_config(PlacementPolicy policy) {
  ServiceConfig cfg;
  cfg.cluster = net::testbox(2, 4);
  cfg.batching = false;
  cfg.fast_path = true;
  cfg.audit_frac = 0.0;
  cfg.placement = policy;
  return cfg;
}

std::vector<Request> backfill_stream(int tail_radial) {
  return {make_request(0.0, scaled_input(65536)),    // A: 1 node, ~24 s
          make_request(0.5, scaled_input(131072)),   // H: 2 nodes (head)
          make_request(1.0, scaled_input(tail_radial))};
}

TEST(ServiceBackfill, ShortJobBackfillsWithoutDelayingTheHead) {
  const auto stream = backfill_stream(8);  // tail: 1 node, milliseconds
  const auto fifo =
      CampaignService(backfill_config(PlacementPolicy::kFifo)).run(stream);
  const auto easy =
      CampaignService(backfill_config(PlacementPolicy::kBackfill)).run(stream);
  ASSERT_EQ(fifo.completed, 3);
  ASSERT_EQ(easy.completed, 3);
  ASSERT_EQ(easy.jobs[easy.outcomes[1].job].nodes, 2) << "head is not wide";

  // The head's start is untouched by the backfill…
  EXPECT_EQ(easy.outcomes[1].start_s, fifo.outcomes[1].start_s);
  // …while the short tail runs immediately instead of queueing behind it.
  EXPECT_LT(easy.outcomes[2].wait_s(), 0.1);
  EXPECT_LT(easy.outcomes[2].finish_s, easy.outcomes[1].start_s);
  EXPECT_GE(fifo.outcomes[2].start_s, fifo.outcomes[1].start_s);
  EXPECT_LT(easy.makespan_s, fifo.makespan_s);
}

TEST(ServiceBackfill, BackfillThatWouldDelayTheHeadIsDenied) {
  // The tail now runs as long as A itself: starting it at t = 1 would push
  // the head's start from ~24 s to ~25 s, so EASY must hold it back.
  const auto stream = backfill_stream(65536);
  const auto fifo =
      CampaignService(backfill_config(PlacementPolicy::kFifo)).run(stream);
  const auto easy =
      CampaignService(backfill_config(PlacementPolicy::kBackfill)).run(stream);
  const auto greedy =
      CampaignService(backfill_config(PlacementPolicy::kFirstFit)).run(stream);
  ASSERT_EQ(fifo.completed, 3);
  ASSERT_EQ(easy.completed, 3);
  ASSERT_EQ(greedy.completed, 3);

  // EASY denies the backfill: the head starts exactly when FIFO would
  // have started it, and the tail waits for the head.
  EXPECT_EQ(easy.outcomes[1].start_s, fifo.outcomes[1].start_s);
  EXPECT_GE(easy.outcomes[2].start_s, easy.outcomes[1].start_s);
  // First-fit leapfrogs the blocked head and delays it — the failure mode
  // the shadow test exists to rule out.
  EXPECT_GT(greedy.outcomes[1].start_s, easy.outcomes[1].start_s);
  EXPECT_LT(greedy.outcomes[2].start_s, greedy.outcomes[1].start_s);
}

TEST(ServiceBackfill, HeadProtectionBoundsStarvationUnderBackfill) {
  // Same denied-backfill scenario, seen through the monitor. EASY trades
  // the tail's wait for the head's: the head (the request the starvation
  // bound shields) waits strictly less than under first-fit, and the
  // denied tail — the longest-queued request of the run, which is what
  // the monitor's starvation peak tracks — starts the moment the head
  // releases the cluster, so even the sacrificed job's wait is bounded by
  // the head's completion rather than unbounded leapfrogging.
  const auto stream = backfill_stream(65536);
  auto run_with_monitor = [&](PlacementPolicy policy) {
    telemetry::EventBuffer events;
    ServiceConfig cfg = backfill_config(policy);
    cfg.events = &events;
    const auto res = CampaignService(cfg).run(stream);
    ServiceMonitor monitor;
    for (const auto& rec : events.records) (void)monitor.consume(rec);
    return std::make_pair(res, monitor.report());
  };
  const auto [easy, easy_report] = run_with_monitor(PlacementPolicy::kBackfill);
  const auto [greedy, greedy_report] =
      run_with_monitor(PlacementPolicy::kFirstFit);

  // Head starvation is what the shadow bound protects: strictly better
  // than the greedy policy that leapfrogs it.
  EXPECT_LT(easy.outcomes[1].wait_s(), greedy.outcomes[1].wait_s());
  // The replayed monitor peak is exactly the denied tail's wait…
  const double easy_peak =
      easy_report.at("starvation").at("peak_age_s").as_double();
  EXPECT_NEAR(easy_peak, easy.outcomes[2].wait_s(), 1e-6);
  // …and that wait is bounded by the head's own completion: the denied
  // job starts as soon as the head's allocation frees, never later.
  EXPECT_LE(easy.outcomes[2].start_s, easy.outcomes[1].finish_s + 1e-6);
  // The greedy run's peak is its delayed head.
  const double greedy_peak =
      greedy_report.at("starvation").at("peak_age_s").as_double();
  EXPECT_NEAR(greedy_peak, greedy.outcomes[1].wait_s(), 1e-6);
}

// ---------------------------------------------------------------------------
// Adaptive batching windows

TEST(ServiceWindows, AutoWindowHoldsUnknownSignaturesAndClosesColdOnes) {
  // Three same-signature arrivals spaced far beyond the window. On
  // testbox, pairing k = 2 is never predicted cheaper than two solo jobs,
  // so once the signature has an inter-arrival estimate the optimizer's
  // expected sharing gain is zero and the window collapses to zero. The
  // first arrival has no history and conservatively holds the full window.
  const gyro::Input in = gyro::Input::small_test(1);
  const std::vector<Request> stream = {make_request(0.0, in),
                                       make_request(10.0, in),
                                       make_request(20.0, in)};
  ServiceConfig cfg;
  cfg.cluster = net::testbox(1, 4);
  cfg.batching_window_s = 2.0;
  cfg.max_batch = 4;

  const auto fixed = CampaignService(cfg).run(stream);
  cfg.window_auto = true;
  const auto adaptive = CampaignService(cfg).run(stream);
  ASSERT_EQ(fixed.completed, 3);
  ASSERT_EQ(adaptive.completed, 3);

  // Fixed windows make every solo arrival wait out the full window.
  for (const auto& oc : fixed.outcomes) {
    EXPECT_GE(oc.wait_s(), cfg.batching_window_s - 1e-9) << "request " << oc.id;
  }
  // The adaptive window holds only the never-seen signature.
  EXPECT_GE(adaptive.outcomes[0].wait_s(), cfg.batching_window_s - 1e-9);
  EXPECT_LT(adaptive.outcomes[1].wait_s(), 0.1);
  EXPECT_LT(adaptive.outcomes[2].wait_s(), 0.1);
}

// ---------------------------------------------------------------------------
// Stream generator

TEST(StreamSpec, ParsesFullGrammarAndRejectsJunk) {
  const auto spec = StreamSpec::parse(
      "seed=9;n=12;rate=2.5;tenants=3;sigs=4;prios=2;species=2;skew=1;"
      "kills=0.25");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.n, 12);
  EXPECT_DOUBLE_EQ(spec.rate_hz, 2.5);
  EXPECT_EQ(spec.tenants, 3);
  EXPECT_EQ(spec.signatures, 4);
  EXPECT_EQ(spec.priorities, 2);
  EXPECT_EQ(spec.species, 2);
  EXPECT_TRUE(spec.skew);
  EXPECT_DOUBLE_EQ(spec.kill_frac, 0.25);

  EXPECT_THROW(StreamSpec::parse("bogus=1"), InputError);
  EXPECT_THROW(StreamSpec::parse("n"), InputError);
  EXPECT_THROW(StreamSpec::parse("rate=0"), InputError);
  EXPECT_THROW(StreamSpec::parse("kills=1.5"), InputError);
  EXPECT_THROW(StreamSpec::parse("skew=2"), InputError);
}

TEST(StreamSpec, RejectsCountsOutsideIntRange) {
  // 4294967297 = 2^32 + 1: a cast to int would generate one request.
  EXPECT_EQ(StreamSpec::parse("seed=1;n=1;rate=2").n, 1);
  EXPECT_THROW(StreamSpec::parse("seed=1;n=4294967297;rate=2"), InputError);
  EXPECT_THROW(StreamSpec::parse("tenants=4294967298"), InputError);
}

TEST(StreamSpec, GeneratesDeterministicSweepSafeStreams) {
  StreamSpec spec;
  spec.seed = 4;
  spec.n = 10;
  spec.signatures = 3;
  spec.tenants = 2;
  const auto a = spec.generate();
  const auto b = spec.generate();
  ASSERT_EQ(a.size(), 10u);
  std::set<std::uint64_t> fps;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_EQ(a[i].tenant, b[i].tenant);
    EXPECT_EQ(a[i].input.cmat_fingerprint(), b[i].input.cmat_fingerprint());
    EXPECT_GT(a[i].arrival_s, i == 0 ? 0.0 : a[i - 1].arrival_s - 1e-12);
    fps.insert(a[i].input.cmat_fingerprint());
  }
  EXPECT_LE(fps.size(), 3u);   // at most one fingerprint per signature
  EXPECT_GE(fps.size(), 2u);   // and the draw actually uses several
}

// ---------------------------------------------------------------------------
// Request lifecycle: every prior state × every request kind

using telemetry::EventKind;

/// "placed" for request.placed, "" for kNone (no record yet).
std::string short_name(EventKind k) {
  const std::string name(telemetry::event_name(k));
  return k == EventKind::kNone ? ""
                               : name.substr(std::string("request.").size());
}

/// The lifecycle grammar of the events.hpp header comment, written out by
/// hand: the states ("" = no record yet) each request kind may follow.
bool grammar_allows(EventKind prior, EventKind next) {
  static const std::map<std::string, std::set<std::string>> from{
      {"submitted", {""}},
      {"admitted", {"submitted"}},
      {"rejected", {"submitted"}},
      {"batched", {"admitted"}},
      {"placed", {"batched"}},
      {"preempted", {"placed", "resumed"}},
      {"resumed", {"preempted"}},
      {"completed", {"placed", "resumed"}},
      {"failed", {"batched", "placed", "preempted", "resumed"}},
  };
  return from.at(short_name(next)).count(short_name(prior)) > 0;
}

/// A legal record path that leaves a request in `state`.
std::vector<std::string> path_to(EventKind state) {
  static const std::map<std::string, std::vector<std::string>> paths{
      {"", {}},
      {"submitted", {"submitted"}},
      {"admitted", {"submitted", "admitted"}},
      {"rejected", {"submitted", "rejected"}},
      {"batched", {"submitted", "admitted", "batched"}},
      {"placed", {"submitted", "admitted", "batched", "placed"}},
      {"preempted",
       {"submitted", "admitted", "batched", "placed", "preempted"}},
      {"resumed",
       {"submitted", "admitted", "batched", "placed", "preempted", "resumed"}},
      {"completed",
       {"submitted", "admitted", "batched", "placed", "completed"}},
      {"failed", {"submitted", "admitted", "batched", "failed"}},
  };
  return paths.at(short_name(state));
}

std::vector<EventKind> request_kinds() {
  std::vector<EventKind> out;
  for (int k = 0; k < telemetry::kEventKindCount; ++k) {
    if (telemetry::is_request_kind(EventKind(k))) out.push_back(EventKind(k));
  }
  return out;
}

/// Every state a request can be in: no record yet, then each request kind.
std::vector<EventKind> request_states() {
  std::vector<EventKind> out{EventKind::kNone};
  for (const EventKind k : request_kinds()) out.push_back(k);
  return out;
}

/// The validator's and the engine's words for an illegal edge.
std::string illegal_edge_text(int id, EventKind prior, EventKind next) {
  const std::string name(telemetry::event_name(next));
  if (next == EventKind::kRequestSubmitted) {
    return strprintf("request %d submitted twice", id);
  }
  if (prior == EventKind::kNone) {
    return strprintf("%s for request %d before request.submitted",
                     name.c_str(), id);
  }
  return strprintf("illegal transition for request %d: %s while %s", id,
                   name.c_str(), short_name(prior).c_str());
}

TEST(Lifecycle, TableMatchesTheGrammar) {
  ASSERT_EQ(request_kinds().size(), 9u);
  for (int k = 1; k < telemetry::kEventKindCount; ++k) {
    const auto kind = EventKind(k);
    EXPECT_EQ(telemetry::event_kind(telemetry::event_name(kind)), kind) << k;
    if (!telemetry::is_request_kind(kind)) {
      for (const EventKind prior : request_states()) {
        EXPECT_FALSE(telemetry::may_follow(prior, kind)) << k;
      }
    }
  }
  EXPECT_EQ(telemetry::event_kind("request.vaporized"), EventKind::kNone);
  EXPECT_EQ(telemetry::event_kind(""), EventKind::kNone);
  for (const EventKind next : request_kinds()) {
    const std::string n = short_name(next);
    EXPECT_EQ(telemetry::kind_row(next).terminal,
              n == "rejected" || n == "completed" || n == "failed")
        << n;
    for (const EventKind prior : request_states()) {
      EXPECT_EQ(telemetry::may_follow(prior, next),
                grammar_allows(prior, next))
          << n << " while '" << short_name(prior) << "'";
    }
  }
}

TEST(Lifecycle, ValidatorAcceptsExactlyTheLegalEdges) {
  for (const EventKind prior : request_states()) {
    for (const EventKind next : request_kinds()) {
      const std::string edge = short_name(next) + " while '" +
                               short_name(prior) + "'";
      telemetry::EventValidator v;
      long seq = 0;
      v.consume(telemetry::make_event(seq++, 0.0, "service.start")
                    .set("schema", telemetry::kEventSchema)
                    .set("schema_version", telemetry::kEventSchemaVersion));
      for (const std::string& kind : path_to(prior)) {
        v.consume(
            telemetry::make_event(seq++, 0.0, "request." + kind)
                .set("request", 3));
      }
      const telemetry::Json last =
          telemetry::make_event(seq, 0.0, telemetry::event_name(next))
              .set("request", 3);
      if (grammar_allows(prior, next)) {
        EXPECT_NO_THROW(v.consume(last)) << edge;
        continue;
      }
      try {
        v.consume(last);
        ADD_FAILURE() << "accepted " << edge;
      } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      illegal_edge_text(3, prior, next)),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

TEST(Lifecycle, EngineCheckThrowsOnEveryIllegalEdge) {
  for (const EventKind prior : request_states()) {
    for (const EventKind next : request_kinds()) {
      const std::string edge = short_name(next) + " while '" +
                               short_name(prior) + "'";
      EventKind state = prior;
      if (grammar_allows(prior, next)) {
        EXPECT_NO_THROW(telemetry::advance_request(state, 5, next)) << edge;
        EXPECT_EQ(state, next) << edge;
        continue;
      }
      try {
        telemetry::advance_request(state, 5, next);
        ADD_FAILURE() << "allowed " << edge;
      } catch (const Error& e) {
        EXPECT_NE(std::string(e.what()).find(
                      illegal_edge_text(5, prior, next)),
                  std::string::npos)
            << e.what();
      }
      EXPECT_EQ(state, prior) << edge;
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-commit byte pin

std::uint64_t fnv(const std::string& s) {
  return Hasher().bytes(s.data(), s.size()).digest();
}

/// The event log as the JSONL file form writes it.
std::string jsonl_of(const telemetry::EventBuffer& events) {
  std::string jsonl;
  for (const auto& rec : events.records) {
    jsonl += rec.dump();
    jsonl += '\n';
  }
  return jsonl;
}

/// Digest of every file in `dir`, name and bytes, in name order.
std::uint64_t dir_digest(const std::string& dir) {
  std::vector<fs::path> files;
  for (const auto& e : fs::directory_iterator(dir)) files.push_back(e.path());
  std::sort(files.begin(), files.end());
  std::string all;
  for (const auto& f : files) {
    all += f.filename().string();
    all += '\n';
    all += read_text_file(f.string()).value();
  }
  return fnv(all);
}

/// The three artifacts a service run leaves: its event log, its result
/// document and its per-job report files.
struct ServiceDigests {
  std::uint64_t log = 0, doc = 0, reports = 0;
};

ServiceDigests run_digests(ServiceConfig cfg,
                           const std::vector<Request>& stream,
                           const std::string& report_dir) {
  telemetry::EventBuffer events;
  cfg.events = &events;
  const auto res = CampaignService(cfg).run(stream);
  EXPECT_TRUE(telemetry::validate_events(events.records).ended);
  return {fnv(jsonl_of(events)), fnv(res.to_json().dump()),
          dir_digest(report_dir)};
}

// The event log, the report and its pretty-printed file form are what the
// validator, the monitor and the replay tools read. A seeded fast-path
// stream with snapshots, SLO alerts, audits and backfilling pins their exact
// bytes: a serializer or emit-path change that moves one byte fails here,
// not in a downstream consumer.
TEST(Golden, ServiceEventLogAndReportBytes) {
  const auto stream = StreamSpec::parse(
                          "seed=5;n=300;rate=40;tenants=4;sigs=3;prios=2;"
                          "species=2")
                          .generate();
  ServiceConfig cfg;
  cfg.cluster = net::testbox(4, 4);
  cfg.max_queue_depth = 16;
  cfg.tenant_quota = 6;
  cfg.mode = gyro::Mode::kModel;
  cfg.fast_path = true;
  cfg.audit_frac = 0.05;
  cfg.placement = PlacementPolicy::kBackfill;
  cfg.window_auto = true;
  telemetry::EventBuffer events;
  cfg.events = &events;
  cfg.metrics_every_s = 0.5;
  cfg.slo = "wait=0.1;target=0.9;window=5";
  const auto res = CampaignService(cfg).run(stream);

  const telemetry::Json doc = res.to_json();
  auto stats = telemetry::validate_events(events.records);
  EXPECT_TRUE(stats.ended);
  EXPECT_GT(stats.by_type["monitor.snapshot"], 0);
  EXPECT_GT(stats.by_type["slo.alert"], 0);
  EXPECT_GT(stats.rejected, 0);
  EXPECT_GT(stats.jobs_audited, 0);
  EXPECT_EQ(events.records.size(), 1722u);
  EXPECT_EQ(fnv(jsonl_of(events)), 0x805e3253a0a1ddffull);
  EXPECT_EQ(fnv(doc.dump()), 0xe44a9f2c99705d86ull);
  EXPECT_EQ(fnv(doc.dump(2)), 0x2e761c2507f004a2ull);
}

// The DES side of the engine: sliced jobs, recovery from injected kills
// (with their per-job reports) and the batches a shrunken cluster can no
// longer place, and the nodes_per_job pin under strict FIFO placement on
// the fast path. The fifteen stress seeds and one pinned fast-path stream
// fix the bytes of every artifact, so a rewrite of the engine's job
// bookkeeping, placement sweep or planner calls that moves one byte fails
// here. ServiceShrinkBytes below covers preemption, replanning and
// stranding, which no stress seed reaches.
TEST(Golden, ServiceStressBytes) {
  // An empty report directory digests to the FNV offset basis.
  static constexpr std::uint64_t kNoReports = 0xcbf29ce484222325ull;
  static constexpr ServiceDigests kStress[] = {
      {0x14fd70bd67811c30ull, 0xc57df1f23a6e2d32ull, kNoReports},
      {0xd4c3eecf4b0222e9ull, 0x8656b368dbdc6432ull, kNoReports},
      {0xc1cfefa7c56e6668ull, 0x88aa64c894bca76eull, kNoReports},
      {0xb7772f2c496f36b5ull, 0xcffc3861d1a67b99ull, 0xe82839dbe072cbbfull},
      {0xf7600d258cf2aa24ull, 0xbfb83333c42586dbull, kNoReports},
      {0x8c4535bfce545b94ull, 0x6246851a8d1210c6ull, kNoReports},
      {0x02b67601601d93b1ull, 0x5adfe7f255be3656ull, kNoReports},
      {0x13a60edf16673a55ull, 0x33afc1cc668a591bull, 0xf991509d81f7b5b5ull},
      {0xd5b36336560b3a39ull, 0x18e80b598c7193e6ull, kNoReports},
      {0x51d317b51e6dd9efull, 0x2b14308c68661ee5ull, kNoReports},
      {0x859f2ae8e7b9aa69ull, 0x6b1867abfe48c9e2ull, kNoReports},
      {0xaa33b6dbbfa2dae9ull, 0x2ed0c704d0e6c672ull, 0x34226404c6f9921eull},
      {0x878bb7723e26ea87ull, 0x3686528685ab8db0ull, kNoReports},
      {0xed9012dd32f3585dull, 0xe59792f7d0d55adcull, kNoReports},
      {0x0b7ee4a9654fe0e8ull, 0x11b8eaa3cd902031ull, kNoReports},
  };
  for (int seed = 1; seed <= 15; ++seed) {
    const TempDir ckpt("golden_stress_" + std::to_string(seed));
    const TempDir reports("golden_stress_reports_" + std::to_string(seed));
    ServiceConfig cfg = stress_config(seed, ckpt.path);
    if (stress_kills(seed)) cfg.report_dir = reports.path;
    const ServiceDigests got =
        run_digests(cfg, stress_stream(seed), reports.path);
    const ServiceDigests& want = kStress[seed - 1];
    EXPECT_EQ(got.log, want.log) << "seed " << seed;
    EXPECT_EQ(got.doc, want.doc) << "seed " << seed;
    EXPECT_EQ(got.reports, want.reports) << "seed " << seed;
  }

  const auto stream = StreamSpec::parse(
                          "seed=9;n=200;rate=30;tenants=3;sigs=3;prios=3;"
                          "species=2")
                          .generate();
  const TempDir reports("golden_fifo_reports");
  ServiceConfig cfg;
  cfg.cluster = net::testbox(4, 4);
  cfg.max_queue_depth = 24;
  cfg.tenant_quota = 10;
  cfg.n_report_intervals = 2;
  cfg.mode = gyro::Mode::kModel;
  cfg.fast_path = true;
  cfg.audit_frac = 0.1;
  cfg.placement = PlacementPolicy::kFifo;
  cfg.nodes_per_job = 2;
  cfg.report_dir = reports.path;
  cfg.metrics_every_s = 1.0;
  const ServiceDigests got = run_digests(cfg, stream, reports.path);
  EXPECT_EQ(got.log, 0x475835dd14bbf52cull);
  EXPECT_EQ(got.doc, 0x44af06e08ea0f755ull);
  EXPECT_EQ(got.reports, 0x8165587bd515a44dull);
}

// The paths the randomized seeds do not reach. A high-priority arrival
// preempts a running job at a slice boundary; two kills with no recovery
// budget each take a node for good; queued jobs pinned to two nodes are
// replanned onto the survivor; once no node is left the rest are stranded.
// With the last three requests arriving late, the preempted job resumes on
// the survivor from its snapshot instead of being stranded while preempted.
TEST(Golden, ServiceShrinkBytes) {
  const auto shrink_stream = [](double late_s) {
    std::vector<Request> stream;
    for (int i = 0; i < 6; ++i) {
      gyro::Input in = gyro::Input::small_test(1);
      in.species[0].a_ln_t = 2.0 + 0.25 * i;
      in.tag = strprintf("req%d", i);
      stream.push_back(make_request((i >= 3 ? late_s : 0.0) + 1e-4 * i, in,
                                    strprintf("t%d", i % 2),
                                    i == 1 ? 5 : (i == 2 ? 1 : 0)));
    }
    stream[2].faults.add_kill(1, 1e-6);
    stream[3].faults.add_kill(1, 1e-6);
    return stream;
  };
  static constexpr ServiceDigests kShrink[] = {
      {0x6db548f16b3e5722ull, 0xabf0f2c25c865510ull, 0xf1f9695dc44c53e1ull},
      {0x0dac83479c41485bull, 0x78536def10d7bb15ull, 0xca22b83359037149ull},
  };
  const double lates[] = {0.0, 0.003};
  for (int v = 0; v < 2; ++v) {
    const TempDir ckpt("golden_shrink_" + std::to_string(v));
    const TempDir reports("golden_shrink_reports_" + std::to_string(v));
    ServiceConfig cfg;
    cfg.cluster = net::testbox(2, 2);
    cfg.batching = false;
    cfg.nodes_per_job = 2;
    cfg.n_report_intervals = 3;
    cfg.checkpoint_root = ckpt.path;
    cfg.max_recoveries = 0;
    cfg.report_dir = reports.path;
    const ServiceDigests got =
        run_digests(cfg, shrink_stream(lates[v]), reports.path);
    EXPECT_EQ(got.log, kShrink[v].log) << "variant " << v;
    EXPECT_EQ(got.doc, kShrink[v].doc) << "variant " << v;
    EXPECT_EQ(got.reports, kShrink[v].reports) << "variant " << v;
  }
}

// Every lifecycle path the record grammar allows, as request record kinds
// (without the "request." prefix): rejection, failure before placement,
// failure while running, completion, completion after preemption cycles,
// and failure while preempted (a job stranded by a cluster shrink).
const std::vector<std::vector<std::string>>& lifecycle_paths() {
  static const std::vector<std::vector<std::string>> paths{
      {"submitted", "rejected"},
      {"submitted", "admitted", "batched", "failed"},
      {"submitted", "admitted", "batched", "placed", "completed"},
      {"submitted", "admitted", "batched", "placed", "failed"},
      {"submitted", "admitted", "batched", "placed", "preempted", "resumed",
       "completed"},
      {"submitted", "admitted", "batched", "placed", "preempted", "failed"},
      {"submitted", "admitted", "batched", "placed", "preempted", "resumed",
       "preempted", "resumed", "failed"},
  };
  return paths;
}

/// A seeded event log of `n` interleaved requests, each walking one of
/// lifecycle_paths() with the fields the monitor and the trace view read,
/// plus job.modeled / job.audited records and periodic snapshots.
std::vector<telemetry::Json> synthetic_lifecycle_log(std::uint64_t seed,
                                                     int n) {
  using telemetry::Json;
  struct Pending {
    double t;
    int request;
    int step;
    Json rec;
  };
  Rng rng(seed);
  std::vector<Pending> pending;
  double arrival = 0.0;
  for (int id = 0; id < n; ++id) {
    arrival += 0.05 + 0.2 * rng.next_double();
    const auto& path = lifecycle_paths()[rng.next_below(
        lifecycle_paths().size())];
    const std::string tenant = strprintf("t%d", int(rng.next_below(3)));
    const int job = id / 2;
    double t = arrival, placed_at = -1.0;
    int intervals = 0;
    for (size_t s = 0; s < path.size(); ++s) {
      const std::string& kind = path[s];
      Json rec = telemetry::make_event(0, 0.0, "request." + kind);
      rec.set("request", id);
      if (kind == "submitted") {
        rec.set("tenant", tenant).set("priority", int(rng.next_below(2)));
      } else if (kind == "admitted") {
        rec.set("queue_depth", int(rng.next_below(8)))
            .set("predicted_wait_s", 0.4 * rng.next_double());
      } else if (kind == "rejected") {
        rec.set("reason", "rejected_queue_full");
      } else if (kind == "batched") {
        t += 0.01 * rng.next_double();
        rec.set("batch", job).set("window_close_s", t + 0.1).set("peers", 2);
      } else if (kind == "placed") {
        const double ready = t + 0.1 * rng.next_double();
        t = ready + 0.5 * rng.next_double();
        placed_at = t;
        rec.set("job", job)
            .set("nodes", 1 + id % 3)
            .set("k", 1 + id % 2)
            .set("ranks_per_sim", 4)
            .set("ready_s", ready)
            .set("wait_s", t - arrival)
            .set("predicted_wait_s", 0.4 * rng.next_double());
      } else if (kind == "preempted") {
        t += 0.3 * rng.next_double();
        rec.set("job", job).set("intervals_done", ++intervals);
      } else if (kind == "resumed") {
        t += 0.3 * rng.next_double();
        rec.set("job", job);
      } else if (kind == "completed") {
        t += 0.5 * rng.next_double();
        rec.set("job", job).set("turnaround_s", t - arrival);
      } else {  // failed
        t += 0.2 * rng.next_double();
        if (placed_at >= 0.0) rec.set("job", job);
        rec.set("reason", "no feasible allocation on the surviving nodes");
      }
      pending.push_back({t, id, static_cast<int>(s), std::move(rec)});
    }
    if (placed_at >= 0.0 && id % 2 == 0) {
      Json rec = telemetry::make_event(
          0, 0.0, id % 4 == 0 ? "job.modeled" : "job.audited");
      const double price = 0.2 + rng.next_double();
      rec.set("job", job).set("price_s", price);
      if (id % 4 != 0) {
        rec.set("measured_s", price * (0.9 + 0.2 * rng.next_double()))
            .set("forced", id % 8 == 2);
      }
      pending.push_back({placed_at, id, static_cast<int>(path.size()),
                         std::move(rec)});
    }
  }
  for (int k = 1; k <= 4; ++k) {
    pending.push_back({arrival * k / 4.0, -1, 0,
                       telemetry::make_event(0, 0.0, "monitor.snapshot")});
  }
  std::stable_sort(pending.begin(), pending.end(),
                   [](const Pending& a, const Pending& b) {
                     if (a.t != b.t) return a.t < b.t;
                     if (a.request != b.request) return a.request < b.request;
                     return a.step < b.step;
                   });
  std::vector<Json> log;
  log.push_back(telemetry::make_event(0, 0.0, "service.start")
                    .set("schema", telemetry::kEventSchema)
                    .set("schema_version", telemetry::kEventSchemaVersion));
  double t_end = 0.0;
  for (auto& p : pending) {
    t_end = p.t;
    log.push_back(std::move(p.rec.set("seq", static_cast<std::int64_t>(
                                                 log.size()))
                                .set("t", p.t)));
  }
  log.push_back(telemetry::make_event(static_cast<long>(log.size()), t_end,
                                      "service.end"));
  return log;
}

// The monitor report and the per-tenant trace are pure functions of the
// log; servemon and the trace export print them. A seeded log covering
// every request kind and path (rejection, failure before placement,
// preemption and resumption, failure while preempted) pins both byte for
// byte, so a consumer rewrite that moves one byte fails here.
TEST(Golden, ServiceReplayViewBytes) {
  const auto log = synthetic_lifecycle_log(11, 400);
  auto stats = telemetry::validate_events(log);
  ASSERT_TRUE(stats.ended);
  for (const char* kind : {"submitted", "admitted", "rejected", "batched",
                           "placed", "preempted", "resumed", "completed",
                           "failed"}) {
    EXPECT_GT(stats.by_type[std::string("request.") + kind], 0) << kind;
  }
  ServiceMonitor monitor(2.0, SloSpec::parse("wait=0.3;target=0.8;window=4"));
  for (const auto& rec : log) (void)monitor.consume(rec);
  EXPECT_GT(monitor.alerts(), 0);
  EXPECT_EQ(log.size(), 2270u);
  EXPECT_EQ(fnv(monitor.report().dump()), 0x4f2673ae9c3aee75ull);
  EXPECT_EQ(fnv(telemetry::service_chrome_trace(log).dump()),
            0x589dc9e0bb91aff8ull);
}

}  // namespace
}  // namespace xg::campaign
