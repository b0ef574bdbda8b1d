// Online campaign service: the paper's cmat-sharing trick applied to
// arrival traffic instead of a pre-declared job list.
//
// A CampaignService absorbs a stream of simulation requests and turns it
// into shared-cmat XGYRO jobs on the fly:
//
//   admission   — requests that can never fit the cluster's memory (even
//                 alone, at k = 1) are rejected immediately; a bounded
//                 queue depth and per-tenant quotas shed load before the
//                 backlog grows unbounded;
//   batching    — admitted requests whose collision inputs fingerprint
//                 identically are coalesced, within a configurable
//                 batching window, into one shared-cmat XGYRO job (the
//                 whole point: the collisional constant tensor is built
//                 once per job, not once per request);
//   placement   — ready jobs are bin-packed onto the simulated cluster
//                 (first-fit in priority order by default, or EASY
//                 backfilling with a head-of-queue reservation), with
//                 higher-priority jobs able to preempt running ones at
//                 slice boundaries through the checkpoint/restart path;
//   telemetry   — per-tenant counters, queue-wait histograms + exact
//                 percentiles, and optional per-job RunReports.
//
// The service shares campaign::plan_group with the offline planner, so
// given the same request set arriving all at once it realizes the same
// grouping the offline plan_campaign would (the differential property
// tests in tests/service_test.cpp pin this down).
//
// Everything runs under the deterministic DES: the service clock is
// virtual, job durations come from actually running each job (slice)
// through xgyro::run_job — or, on the modeled fast path, directly from the
// perfmodel closed forms, with a seeded sample of jobs still DES-executed
// as audits so the model cannot silently drift (ServiceConfig::fast_path).
// Identical streams + config reproduce identical results bit for bit in
// every mode.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hpp"
#include "gyro/input.hpp"
#include "simmpi/fault.hpp"
#include "simnet/machine.hpp"
#include "telemetry/json.hpp"
#include "telemetry/metrics.hpp"

namespace xg::telemetry {
class EventSink;
}

namespace xg::campaign {

/// One simulation request arriving at the service.
struct Request {
  std::string tenant = "default";
  int priority = 0;        ///< higher runs first and may preempt lower
  double arrival_s = 0.0;  ///< virtual arrival time (any order in the vector)
  gyro::Input input;
  mpi::FaultPlan faults;   ///< folded into the job this request joins
};

enum class Admission {
  kAccepted = 0,
  kRejectedQueueFull,
  kRejectedTenantQuota,
  kRejectedInfeasible,  ///< cannot fit the cluster memory even alone at k=1
};

[[nodiscard]] const char* admission_name(Admission a);

/// How try_schedule packs ready jobs onto free nodes (always in
/// priority-desc / queue-age-asc order).
enum class PlacementPolicy {
  /// Greedy: every job that fits the free nodes starts, even past a
  /// blocked head-of-queue job. Maximizes instantaneous utilization but
  /// can starve a large job indefinitely.
  kFirstFit = 0,
  /// Strict order: placement stops at the first job that does not fit.
  /// Nothing ever overtakes the head, at the cost of idle nodes.
  kFifo,
  /// EASY backfilling: the blocked head gets a reservation at its
  /// predicted start time (computed from the perfmodel release times of
  /// running jobs); later jobs may start only if their predicted finish
  /// lands before that reservation or they fit into nodes the head will
  /// not need. Bounded head delay AND backfilled utilization — the PR-8
  /// monitor's starvation bound is the gate that checks the first half.
  kBackfill,
};

[[nodiscard]] const char* placement_name(PlacementPolicy p);

struct ServiceConfig {
  net::MachineSpec cluster;       ///< the multi-tenant allocation to pack
  int max_queue_depth = 64;       ///< admitted-but-not-started request cap
  int tenant_quota = 16;          ///< same cap, per tenant
  double batching_window_s = 1.0; ///< how long an open batch waits for peers
  int max_batch = 8;              ///< batch closes early at this size
  bool batching = true;           ///< false = ablation: one job per request
  /// Nodes per job: 0 picks, per batch, the node count minimizing predicted
  /// node-seconds; > 0 pins every job to that many nodes (clamped to the
  /// cluster and grown if the batch does not fit the pinned size).
  int nodes_per_job = 0;
  int n_report_intervals = 1;     ///< run length of every request
  gyro::Mode mode = gyro::Mode::kReal;
  /// Per-job checkpoint roots live under <checkpoint_root>/job-<id>. Empty
  /// disables checkpointing — jobs then run in one non-preemptable slice.
  /// Requires kReal mode.
  std::string checkpoint_root;
  /// Report intervals per execution slice when checkpointing: preemption
  /// and recovery happen at slice boundaries, which are always snapshotted.
  int preempt_quantum = 1;
  int max_recoveries = 3;         ///< per job, across all its slices
  bool check_invariants = true;
  /// Collective decision table for every job (nullptr = built-in tuned).
  std::shared_ptr<const mpi::CollSelector> coll_selector;
  /// When set, a per-job RunReport is written to
  /// <report_dir>/job-<id>.report.json as each job finishes.
  std::string report_dir;
  /// Observability plane (all optional; off by default, in which case the
  /// DES behaves bit-identically to a sink-less run):
  /// Borrowed event sink — one xgyro.events record per lifecycle
  /// transition is written (and flushed) as it happens. nullptr = off.
  telemetry::EventSink* events = nullptr;
  /// With a sink: emit a monitor.snapshot record every this many virtual
  /// seconds while the service has work in flight. 0 = end-of-run only.
  double metrics_every_s = 0.0;
  /// Rolling horizon for windowed monitor views (0 = whole run so far).
  double monitor_window_s = 0.0;
  /// SLO objective (SloSpec grammar, e.g. "wait=100;target=0.9;burn=2").
  /// Empty = no SLO monitoring. Requires an event sink.
  std::string slo;

  // --- Production-scale stream knobs ---------------------------------------
  /// Modeled fast path: price each slice from the perfmodel (the same
  /// selector-aware closed forms the planner used to choose the job's
  /// layout) and advance virtual time without spinning up simnet ranks.
  /// A seeded sample of audit_frac jobs still DES-executes and feeds the
  /// fast-path divergence gate (perfmodel::audit_fast_path); jobs carrying
  /// fault plans are always DES-executed ("forced" audits — the model
  /// cannot price kills and recoveries) but excluded from the gate.
  bool fast_path = false;
  double audit_frac = 0.05;      ///< fraction of jobs sampled for DES audit
  std::uint64_t audit_seed = 1;  ///< seeds the per-job audit draw
  /// Placement policy; kFirstFit reproduces the PR-7 greedy behavior.
  PlacementPolicy placement = PlacementPolicy::kFirstFit;
  /// Auto-tune the batching window per signature from the observed
  /// arrival mix: a rolling inter-arrival estimate per cmat fingerprint
  /// picks, for each newly opened batch, the window (up to
  /// batching_window_s) maximizing expected shared-cmat savings minus
  /// wait cost. Rare signatures close immediately; hot ones keep the full
  /// window. Requires windowed batching.
  bool window_auto = false;
};

/// Where one request ended up.
struct RequestOutcome {
  int id = -1;                    ///< index into the submitted stream
  std::string tenant;
  int priority = 0;
  Admission admission = Admission::kAccepted;
  double arrival_s = 0.0;
  double start_s = -1.0;          ///< first slice launch of its job
  double finish_s = -1.0;         ///< job completion
  double predicted_wait_s = 0.0;  ///< perfmodel estimate at admission
  int job = -1;                   ///< ServiceJobRecord::id (-1 = rejected)
  std::uint64_t cmat_fingerprint = 0;
  bool completed = false;
  bool modeled = false;           ///< fast-path priced: no DES diagnostics
  gyro::Diagnostics diagnostics;  ///< final report interval (completed,
                                  ///< DES-executed jobs only)

  [[nodiscard]] double wait_s() const {
    return start_s >= 0.0 ? start_s - arrival_s : 0.0;
  }
};

/// One shared-cmat job the service scheduled.
struct ServiceJobRecord {
  int id = -1;
  std::vector<int> request_ids;   ///< members, in admission order
  std::uint64_t cmat_fingerprint = 0;
  int k = 0;                      ///< members (= request_ids.size())
  int nodes = 0;                  ///< current allocation (recovery shrinks it)
  int ranks_per_sim = 0;
  gyro::Decomposition decomp;
  int priority = 0;               ///< max over members
  double ready_s = 0.0;           ///< batch close time
  double start_s = -1.0;
  double finish_s = -1.0;
  double predicted_seconds = 0.0; ///< per report interval (perfmodel)
  double busy_s = 0.0;            ///< summed slice makespans (incl. restarts)
  int slices = 0;
  int preemptions = 0;
  std::vector<RecoveryEvent> recoveries;
  std::string failure;            ///< empty = completed
  // Fast-path accounting (all zero/false outside fast_path runs):
  bool modeled = false;           ///< slices priced, not DES-executed
  bool audited = false;           ///< sampled (or forced) DES audit
  bool audit_forced = false;      ///< audited because it carries faults
  double price_s = 0.0;           ///< summed fast-path slice prices
};

/// Exact queue-wait percentiles over completed requests (computed from the
/// sorted waits, not histogram buckets — deterministic and tight).
struct QueueWaitStats {
  double p50 = 0.0, p95 = 0.0, p99 = 0.0;
  double mean = 0.0, max = 0.0;
  int n = 0;
};

struct ServiceResult {
  std::vector<RequestOutcome> outcomes;  ///< index = request id
  std::vector<ServiceJobRecord> jobs;    ///< index = job id
  double makespan_s = 0.0;               ///< last finish (or last arrival)
  int admitted = 0, rejected = 0, completed = 0, failed = 0;
  double jobs_per_hour = 0.0;      ///< XGYRO jobs per virtual hour
  double requests_per_hour = 0.0;  ///< completed requests per virtual hour
  QueueWaitStats queue_wait;
  /// Exact per-tenant wait stats (same order statistics, per tenant) —
  /// the reference the sketch-backed monitors are checked against.
  std::map<std::string, QueueWaitStats> tenant_queue_wait;
  double fairness_jain = 1.0;      ///< Jain's index over per-tenant completions
  telemetry::Json wait_calibration;  ///< perfmodel calibration verdict
  double node_busy_frac = 0.0;     ///< Σ nodes×busy / (cluster × makespan)
  telemetry::Json metrics;         ///< xgyro.metrics snapshot
  /// ServiceMonitor end-of-run report (null unless an event sink was set).
  telemetry::Json observability;
  // Fast-path accounting (zero / null unless cfg.fast_path):
  int jobs_modeled = 0;
  int jobs_audited = 0;    ///< sampled + forced
  int audits_forced = 0;
  /// Fast-path audit verdict: counters + perfmodel::audit_fast_path gate
  /// over the sampled (price, measured) pairs.
  telemetry::Json fast_path;

  [[nodiscard]] std::string describe() const;
  /// { "schema": "xgyro.service", "schema_version": 3, ... }
  [[nodiscard]] telemetry::Json to_json() const;
};

/// The service itself. Single-shot: feed it one stream, get the result.
class CampaignService {
 public:
  explicit CampaignService(ServiceConfig cfg);

  /// Admit and execute a whole arrival stream, then drain the queue.
  /// Deterministic: same stream + config ⇒ bit-identical result.
  [[nodiscard]] ServiceResult run(const std::vector<Request>& stream);

 private:
  ServiceConfig cfg_;
};

/// Seeded synthetic arrival streams for benchmarks, smoke tests, and the
/// randomized stress harness. Spec grammar (components separated by ';'):
///
///   seed=N       RNG seed (default 1)
///   n=N          number of requests (default 8)
///   rate=R       mean arrival rate in requests per virtual second;
///                inter-arrivals are exponential (default 1.0)
///   tenants=N    tenant names t0..t{N-1}, drawn uniformly (default 1)
///   sigs=N       distinct cmat signatures, via collision.nu_ee scaling
///                (default 1)
///   prios=N      priorities 0..N-1, drawn uniformly (default 1)
///   species=N    species count of the base Input::small_test (default 1)
///   skew=0|1     1 skews the signature draw geometrically (P(s) ∝ 2^-s)
///                instead of uniformly (default 0)
///   kills=F      fraction of requests carrying a one-rank kill fault
///                (rank 1, early); needs a checkpointing service config
///                with >= 2-node jobs to recover (default 0)
///
/// Every request gets a distinct sweep-safe gradient (a_ln_t) and seed, so
/// members differ physically while sharing cmat within a signature.
struct StreamSpec {
  std::uint64_t seed = 1;
  int n = 8;
  double rate_hz = 1.0;
  int tenants = 1;
  int signatures = 1;
  int priorities = 1;
  int species = 1;
  bool skew = false;
  double kill_frac = 0.0;

  static StreamSpec parse(const std::string& spec);
  [[nodiscard]] std::vector<Request> generate() const;
};

}  // namespace xg::campaign
