// Closed-form performance estimates and the nl03c-scale campaign planner.
//
// The discrete-event simulator (simmpi) is the source of truth; the closed
// forms here serve two purposes: they cross-check the DES in tests, and they
// let the capacity-planner example answer "how many nodes / what ensemble
// size" questions instantly, without spinning up rank threads.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/memory.hpp"
#include "gyro/decomposition.hpp"
#include "gyro/input.hpp"
#include "simmpi/coll.hpp"
#include "simnet/machine.hpp"

namespace xg::perfmodel {

/// Worst-link round cost for one p2p exchange of `bytes`. `nic_sharers` is
/// the NIC-sharing factor of the communicator (-1 = all ranks on the node).
double round_cost(const net::MachineSpec& spec, std::uint64_t bytes,
                  bool internode, int nic_sharers = -1);

/// Closed-form cost of one collective instance scheduled with a specific
/// algorithm. `bytes` follows the selector's decision-key convention
/// (simmpi/coll.hpp): total buffer bytes for reduce-style collectives,
/// per-rank block bytes for allgather, per-pair block bytes for alltoall.
/// Every rank of a node contends for its NIC (the bulk-synchronous solver
/// phases). Hierarchical formulas assume consecutive rank→node placement
/// (intra-node groups of `spec.ranks_per_node`, leaders exchanging at
/// nic_sharers = 1 — the exclusive-NIC window simmpi grants them). Throws
/// xg::InputError on an (kind, alg) pair the runtime cannot schedule.
double estimate_coll(const net::MachineSpec& spec, mpi::TraceEvent::Kind kind,
                     mpi::CollAlg alg, int participants, std::uint64_t bytes,
                     bool internode);

/// Closed-form AllReduce estimate. The algorithm is resolved through
/// `selector` (nullptr = the built-in tuned table, matching what a default
/// simmpi run schedules) and priced with estimate_coll.
double estimate_allreduce(const net::MachineSpec& spec, int participants,
                          std::uint64_t bytes, bool internode,
                          const mpi::CollSelector* selector = nullptr);

/// Closed-form AllToAll estimate (`bytes_per_pair` per destination),
/// selector-resolved like estimate_allreduce.
double estimate_alltoall(const net::MachineSpec& spec, int participants,
                         std::uint64_t bytes_per_pair, bool internode,
                         const mpi::CollSelector* selector = nullptr);

/// The machine the nl03c-scale experiments run on: Frontier-like topology
/// with the per-rank capacity calibrated (5 GB) so that the published
/// memory claims reproduce — a single nl03c-like simulation first fits at
/// 32 nodes, and the 8-member XGYRO ensemble fits on those same 32 nodes at
/// ~94% utilization. See DESIGN.md §2 for the substitution rationale.
net::MachineSpec nl03c_machine(int n_nodes);

/// Per-phase seconds for one reporting interval, estimated in closed form.
struct PhaseEstimate {
  double str = 0.0;
  double str_comm = 0.0;
  double nl = 0.0;
  double nl_comm = 0.0;
  double coll = 0.0;
  double coll_comm = 0.0;

  [[nodiscard]] double total() const {
    return str + str_comm + nl + nl_comm + coll + coll_comm;
  }
};

/// Closed-form per-phase costs for one reporting interval of a k-member run
/// with decomposition `d` on `spec` (k = 1 is plain CGYRO). This is the
/// prediction the analysis engine's divergence report replays against
/// measured per-phase DES costs. `selector` picks collective algorithms for
/// the comm phases (nullptr = built-in tuned table); pass the selector the
/// run used so prediction and measurement price the same schedules.
PhaseEstimate estimate_phases(const gyro::Input& input,
                              const gyro::Decomposition& d, int k,
                              const net::MachineSpec& spec,
                              const mpi::CollSelector* selector = nullptr);

/// One evaluated deployment option.
struct PlanPoint {
  int nodes = 0;
  int ranks_per_sim = 0;
  int n_sims = 1;  ///< k (1 = plain CGYRO)
  gyro::Decomposition decomp;
  cluster::Feasibility fit;
  PhaseEstimate per_report;

  [[nodiscard]] std::string describe() const;
};

/// Evaluate running ONE simulation CGYRO-style on `nodes` nodes.
PlanPoint plan_cgyro(const gyro::Input& input, const net::MachineSpec& machine);

/// Evaluate running a k-member ensemble XGYRO-style on `nodes` nodes
/// (ranks split evenly across members), with the built-in tuned collective
/// table.
PlanPoint plan_xgyro(const gyro::Input& input, int k,
                     const net::MachineSpec& machine);

/// Smallest power-of-two node count (≤ max_nodes) at which one CGYRO
/// simulation fits; -1 if none. Reproduces the paper's "a single CGYRO
/// simulation does require at least 32 nodes".
int min_feasible_nodes_cgyro(const gyro::Input& input, int max_nodes);

/// Closed-form queue-wait estimate for a request admitted to the campaign
/// service: the committed backlog (node-seconds of planned work ahead of
/// it) drained by the whole allocation at full utilization. A lower bound —
/// packing gaps, preemption, and per-slice restart overhead only push the
/// realized wait up — but monotone in the backlog, which is what the
/// admission-time prediction is for.
double estimate_queue_wait(double backlog_node_seconds, int cluster_nodes);

/// Calibration verdict for a batch of (predicted, realized) queue-wait
/// pairs, gated like the divergence report: a ratio tolerance plus a
/// significance cut so a near-idle service (waits in the noise) is
/// reported but not gated.
struct WaitCalibration {
  int n = 0;
  double mae_s = 0.0;             ///< mean |predicted - realized|
  double bias_s = 0.0;            ///< mean (predicted - realized), signed
  double mean_realized_s = 0.0;
  double mean_predicted_s = 0.0;
  double ratio = 0.0;             ///< mae / mean realized wait
  double coverage = 0.0;          ///< fraction with predicted <= realized
  bool significant = false;       ///< n and mean wait above the cuts
  bool pass = true;               ///< !significant, or ratio/coverage within
  double tolerance = 0.0;
  double min_coverage = 0.0;
};

/// Gate cuts. estimate_queue_wait is a lower bound, so calibration
/// checks two things: the error stays inside a multiplicative envelope of
/// the realized wait (MAE / mean ≤ tolerance), and the lower-bound
/// property actually holds for most requests (coverage ≥ min_coverage —
/// not 1.0, because priority preemption can start a request before the
/// backlog ahead of it drains).
inline constexpr double kDefaultWaitTolerance = 1.0;
inline constexpr double kDefaultWaitMinCoverage = 0.7;
/// Significance cuts: below either, the verdict reports but always passes.
inline constexpr int kWaitCalibrationMinSamples = 16;
inline constexpr double kWaitCalibrationMinMeanWaitS = 1.0;

/// Compare admission-time predictions with realized waits (parallel
/// vectors, one entry per placed request) under kDefaultWaitTolerance and
/// kDefaultWaitMinCoverage. Throws xg::InputError when the vectors disagree
/// in length.
WaitCalibration calibrate_queue_wait(const std::vector<double>& predicted_s,
                                     const std::vector<double>& realized_s);

/// Divergence verdict for the campaign service's modeled fast path: each
/// sampled-audit job contributes a (fast-path price, audited DES cost)
/// pair, and the gate checks the per-job ratio max(price, cost) /
/// min(price, cost) against a multiplicative tolerance — the same envelope
/// the PR-5 phase-divergence gate uses, because both compare the closed
/// forms to the DES they summarize.
struct AuditGate {
  int n = 0;                      ///< audited (price, cost) pairs
  double mean_price_s = 0.0;      ///< mean fast-path price per audited job
  double mean_measured_s = 0.0;   ///< mean DES-measured cost per audited job
  double worst_ratio = 0.0;       ///< max per-job divergence ratio (>= 1)
  double mean_ratio = 0.0;        ///< mean per-job divergence ratio
  bool significant = false;       ///< n and mean cost above the cuts
  bool pass = true;               ///< !significant, or worst_ratio <= tol
  double tolerance = 0.0;
};

/// Audit-gate cuts. The tolerance matches the PR-5 divergence envelope:
/// the price and the audited cost come from the same model/DES pair, so a
/// job drifting past 3x means the closed forms no longer describe what the
/// simulator executes. Significance cuts keep trivial streams (too few
/// audits, or audited costs in the noise) reported but not gated.
inline constexpr double kDefaultAuditTolerance = 3.0;
inline constexpr int kAuditMinSamples = 3;
inline constexpr double kAuditMinMeanMeasuredS = 1e-6;

/// Compare fast-path prices with audited DES costs (parallel vectors, one
/// entry per sampled-audit job) under kDefaultAuditTolerance. Throws
/// xg::InputError when the vectors disagree in length or a sample is
/// non-positive on one side only.
AuditGate audit_fast_path(const std::vector<double>& price_s,
                          const std::vector<double>& measured_s);

}  // namespace xg::perfmodel
