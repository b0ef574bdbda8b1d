#include "perfmodel/perfmodel.hpp"

#include <cmath>

#include "gyro/simulation.hpp"
#include "util/error.hpp"
#include "util/format.hpp"

namespace xg::perfmodel {

namespace {

/// Does a communicator of `participants` consecutive ranks cross nodes?
bool spans_nodes(const net::MachineSpec& spec, int participants) {
  return participants > spec.ranks_per_node;
}

int ceil_log2(int n) {
  int l = 0;
  while ((1 << l) < n) ++l;
  return l;
}

int ceil_div(int a, int b) { return (a + b - 1) / b; }

}  // namespace

double round_cost(const net::MachineSpec& spec, std::uint64_t bytes,
                  bool internode, int nic_sharers) {
  const net::Placement place(spec);
  const double bw = internode
                        ? place.inter_bw_effective(
                              nic_sharers < 0 ? spec.ranks_per_node : nic_sharers)
                        : spec.intra_bw_Bps;
  const double lat = internode ? spec.inter_latency_s : spec.intra_latency_s;
  return spec.send_overhead_s + static_cast<double>(bytes) / bw + lat +
         spec.recv_overhead_s;
}

namespace {

using Kind = mpi::TraceEvent::Kind;

/// Node-hierarchy shape of a `participants`-rank communicator under
/// consecutive placement: `m` ranks per intra-node group, `L` node groups.
struct HierShape {
  int m = 1;
  int L = 1;
};

HierShape hier_shape(const net::MachineSpec& spec, int participants,
                     bool internode) {
  HierShape h;
  h.m = internode ? std::min(participants, spec.ranks_per_node) : participants;
  h.L = internode ? ceil_div(participants, spec.ranks_per_node) : 1;
  return h;
}

double estimate_allreduce_alg(const net::MachineSpec& spec, mpi::CollAlg alg,
                              int p, std::uint64_t bytes, bool internode,
                              int nic_sharers) {
  const double rc = round_cost(spec, bytes, internode, nic_sharers);
  switch (alg) {
    case mpi::CollAlg::kLinear:
      // linear reduce serializes p−1 receives at the root, then binomial
      // bcast fans the result back out.
      return (p - 1) * rc + ceil_log2(p) * rc;
    case mpi::CollAlg::kBinomial:
      return 2.0 * ceil_log2(p) * rc;
    case mpi::CollAlg::kRecursiveDoubling:
      return ceil_log2(p) * rc;
    case mpi::CollAlg::kRing:
    case mpi::CollAlg::kSegmentedRing:
      // 2(p−1) rounds of bytes/p chunks; segmentation pipelines the same
      // volume, so to first order it prices like plain ring.
      return 2.0 * (p - 1) *
             round_cost(spec, bytes / static_cast<std::uint64_t>(p), internode,
                        nic_sharers);
    case mpi::CollAlg::kRabenseifner: {
      // Recursive halving + doubling: message size halves each of the
      // ceil_log2(p) rounds in each direction.
      double t = 0.0;
      for (int l = 1; l <= ceil_log2(p); ++l) {
        t += 2.0 * round_cost(spec, bytes >> l, internode, nic_sharers);
      }
      return t;
    }
    case mpi::CollAlg::kHierarchical: {
      const HierShape h = hier_shape(spec, p, internode);
      // Intra-node linear reduce to the leader (m−1 serialized receives),
      // leader exchange at nic_sharers = 1 (simmpi's exclusive-NIC window)
      // with the same ring/rdb split hierarchical scheduling uses, then
      // intra-node binomial bcast.
      const double intra = round_cost(spec, bytes, false);
      double t = (h.m - 1) * intra + ceil_log2(h.m) * intra;
      if (h.L > 1) {
        const mpi::CollAlg inter = (bytes >= 64 * 1024 && h.L > 2)
                                       ? mpi::CollAlg::kRing
                                       : mpi::CollAlg::kRecursiveDoubling;
        t += estimate_allreduce_alg(spec, inter, h.L, bytes, true, 1);
      }
      return t;
    }
    default:
      throw InputError(strprintf("perfmodel: no allreduce formula for '%s'",
                                 mpi::coll_alg_name(alg)));
  }
}

double estimate_bcast_alg(const net::MachineSpec& spec, mpi::CollAlg alg, int p,
                          std::uint64_t bytes, bool internode,
                          int nic_sharers) {
  const double rc = round_cost(spec, bytes, internode, nic_sharers);
  switch (alg) {
    case mpi::CollAlg::kLinear:
      return (p - 1) * rc;
    case mpi::CollAlg::kChain:
      return (p - 1) * rc;
    case mpi::CollAlg::kBinomial:
      return ceil_log2(p) * rc;
    case mpi::CollAlg::kHierarchical: {
      const HierShape h = hier_shape(spec, p, internode);
      double t = ceil_log2(h.m) * round_cost(spec, bytes, false);
      if (h.L > 1) t += ceil_log2(h.L) * round_cost(spec, bytes, true, 1);
      return t;
    }
    default:
      throw InputError(strprintf("perfmodel: no bcast formula for '%s'",
                                 mpi::coll_alg_name(alg)));
  }
}

double estimate_allgather_alg(const net::MachineSpec& spec, mpi::CollAlg alg,
                              int p, std::uint64_t block_bytes, bool internode,
                              int nic_sharers) {
  switch (alg) {
    case mpi::CollAlg::kLinear:
    case mpi::CollAlg::kRing:
      return (p - 1) * round_cost(spec, block_bytes, internode, nic_sharers);
    case mpi::CollAlg::kBruck: {
      // Doubling rounds; round l moves min(2^l, p − 2^l) blocks.
      double t = 0.0;
      for (int k = 1; k < p; k *= 2) {
        const std::uint64_t moved =
            static_cast<std::uint64_t>(std::min(k, p - k)) * block_bytes;
        t += round_cost(spec, moved, internode, nic_sharers);
      }
      return t;
    }
    default:
      throw InputError(strprintf("perfmodel: no allgather formula for '%s'",
                                 mpi::coll_alg_name(alg)));
  }
}

double estimate_alltoall_alg(const net::MachineSpec& spec, mpi::CollAlg alg,
                             int p, std::uint64_t bytes_per_pair,
                             bool internode, int nic_sharers) {
  switch (alg) {
    case mpi::CollAlg::kLinear:
    case mpi::CollAlg::kPairwise:
      return (p - 1) * round_cost(spec, bytes_per_pair, internode, nic_sharers);
    case mpi::CollAlg::kBruck:
      // ceil_log2(p) rounds, each moving about half the local buffer.
      return ceil_log2(p) *
             round_cost(spec,
                        bytes_per_pair * static_cast<std::uint64_t>(
                                             ceil_div(p, 2)),
                        internode, nic_sharers);
    default:
      throw InputError(strprintf("perfmodel: no alltoall formula for '%s'",
                                 mpi::coll_alg_name(alg)));
  }
}

}  // namespace

double estimate_coll(const net::MachineSpec& spec, Kind kind, mpi::CollAlg alg,
                     int participants, std::uint64_t bytes, bool internode) {
  if (participants <= 1) return 0.0;
  const int nic_sharers = -1;  // every rank of the node contends
  if (alg == mpi::CollAlg::kAuto) {
    alg = mpi::CollSelector::tuned().choose(kind, bytes, participants,
                                            internode);
  }
  switch (kind) {
    case Kind::kAllReduce:
      return estimate_allreduce_alg(spec, alg, participants, bytes, internode,
                                    nic_sharers);
    case Kind::kReduce:
      // Same schedules as the reduce half of allreduce.
      return alg == mpi::CollAlg::kLinear
                 ? (participants - 1) *
                       round_cost(spec, bytes, internode, nic_sharers)
                 : ceil_log2(participants) *
                       round_cost(spec, bytes, internode, nic_sharers);
    case Kind::kBcast:
      return estimate_bcast_alg(spec, alg, participants, bytes, internode,
                                nic_sharers);
    case Kind::kAllGather:
      return estimate_allgather_alg(spec, alg, participants, bytes, internode,
                                    nic_sharers);
    case Kind::kAllToAll:
      return estimate_alltoall_alg(spec, alg, participants, bytes, internode,
                                   nic_sharers);
    default:
      throw InputError("perfmodel: estimate_coll supports the selector-governed "
                       "collectives only");
  }
}

double estimate_allreduce(const net::MachineSpec& spec, int participants,
                          std::uint64_t bytes, bool internode,
                          const mpi::CollSelector* selector) {
  if (participants <= 1) return 0.0;
  const mpi::CollAlg alg =
      (selector != nullptr ? *selector : mpi::CollSelector::tuned())
          .choose(Kind::kAllReduce, bytes, participants, internode);
  return estimate_coll(spec, Kind::kAllReduce, alg, participants, bytes,
                       internode);
}

double estimate_alltoall(const net::MachineSpec& spec, int participants,
                         std::uint64_t bytes_per_pair, bool internode,
                         const mpi::CollSelector* selector) {
  if (participants <= 1) return 0.0;
  const mpi::CollAlg alg =
      (selector != nullptr ? *selector : mpi::CollSelector::tuned())
          .choose(Kind::kAllToAll, bytes_per_pair, participants, internode);
  return estimate_coll(spec, Kind::kAllToAll, alg, participants, bytes_per_pair,
                       internode);
}

net::MachineSpec nl03c_machine(int n_nodes) {
  net::MachineSpec m = net::frontier_like(n_nodes);
  // Effective per-rank capacity available to solver buffers. The hardware
  // has 64 GB per GCD; the real code's FFT workspaces, runtime, staging and
  // safety margins consume the rest at nl03c scale. 5 GB reproduces both
  // published memory facts for the nl03c-like stand-in case: the 32-node
  // single-simulation minimum, and the 8-member ensemble fitting on those
  // same 32 nodes.
  m.name = "frontier-like (nl03c-calibrated capacity)";
  m.rank_memory_bytes = 5.0e9;
  return m;
}

PhaseEstimate estimate_phases(const gyro::Input& input,
                              const gyro::Decomposition& d, int k,
                              const net::MachineSpec& spec,
                              const mpi::CollSelector* selector) {
  const gyro::ComputeModel cm;
  const double elems = static_cast<double>(input.nv()) / d.pv * input.nc() *
                       (static_cast<double>(input.nt()) / d.pt);
  const std::uint64_t field_bytes =
      static_cast<std::uint64_t>(input.nc()) * (input.nt() / d.pt) * 16;
  const net::Placement place(spec);
  const int steps = input.n_steps_per_report;

  PhaseEstimate e;
  // --- streaming: 4 RK stages per step, field (n_field components) +
  // upwind reductions each stage --------------------------------------------
  const double stage_flops =
      elems * ((input.n_field + 1.0) * cm.field_partial_flops_per_elem +
               cm.rhs_flops_per_elem);
  e.str = steps * 4.0 * place.compute_time(stage_flops, 0.0);
  const bool nv_internode = spans_nodes(spec, d.pv);
  // Solver communicators run bulk-synchronously with siblings on every
  // node, so the conservative full-node NIC share applies.
  e.str_comm =
      steps * 4.0 *
      (estimate_allreduce(spec, d.pv, field_bytes * input.n_field, nv_internode,
                          selector) +
       estimate_allreduce(spec, d.pv, field_bytes, nv_internode, selector));

  // --- nonlinear bracket ------------------------------------------------------
  if (input.nonlinear) {
    const double nl_flops =
        elems * (cm.nl_flops_per_elem_base +
                 cm.nl_fft_flops_per_log *
                     std::log2(static_cast<double>(std::max(2, input.nt()))));
    e.nl = steps * 4.0 * place.compute_time(nl_flops, 0.0);
    // φ allgather + two transposes over the t communicator. Ranks in the t
    // communicator are spaced pv apart, so pt > 1 implies internode when a
    // simulation spans more than one node.
    const bool internode = spans_nodes(spec, d.pv * d.pt);
    const std::uint64_t block =
        static_cast<std::uint64_t>(input.nt() / d.pt) * (input.nc() / d.pt) *
        (input.nv() / d.pv) * 16;
    const double gather =
        (d.pt - 1) * round_cost(spec, field_bytes, internode);
    e.nl_comm = steps * 4.0 *
                (gather + 2.0 * estimate_alltoall(spec, d.pt, block, internode,
                                                  selector));
  }

  // --- collisions --------------------------------------------------------------
  const double cells = static_cast<double>(input.nc()) / d.pv *
                       (static_cast<double>(input.nt()) / d.pt);
  const double apply_flops = 4.0 * static_cast<double>(input.nv()) * input.nv();
  const double apply_bytes =
      static_cast<double>(input.nv()) * input.nv() * sizeof(float);
  // Sharing cmat across k members turns the collision apply into a batched
  // GEMM: flops stay proportional to sim-cells, but each distinct cell's
  // matrix is streamed once for all k right-hand sides — k× the arithmetic
  // intensity, matching the DES's collision_step charge.
  const double distinct_cells = cells / std::max(1, k);
  e.coll = steps * place.compute_time(cells * apply_flops,
                                      distinct_cells * apply_bytes);
  const int coll_p = k * d.pv;
  const std::uint64_t coll_block =
      static_cast<std::uint64_t>(input.nv() / d.pv) *
      (input.nc() / std::max(1, coll_p)) * (input.nt() / d.pt) * 16;
  // The ensemble coll communicator picks ranks from every member's node
  // block — internode as soon as the job spans more than one node.
  const bool coll_internode =
      k > 1 ? spans_nodes(spec, k * d.pv * d.pt) : spans_nodes(spec, d.pv);
  e.coll_comm =
      steps * 2.0 *
      estimate_alltoall(spec, coll_p, coll_block, coll_internode, selector);
  return e;
}

std::string PlanPoint::describe() const {
  return strprintf(
      "%-6s k=%d nodes=%d ranks/sim=%d (pv=%d pt=%d)  mem %s/%s (%s)  "
      "t/report %.3fs [str %.3f, str_comm %.3f, nl %.3f, nl_comm %.3f, "
      "coll %.3f, coll_comm %.3f]",
      n_sims > 1 ? "XGYRO" : "CGYRO", n_sims, nodes, ranks_per_sim, decomp.pv,
      decomp.pt, human_bytes(fit.required_bytes).c_str(),
      human_bytes(fit.available_bytes).c_str(), fit.fits ? "fits" : "DOES NOT FIT",
      per_report.total(), per_report.str, per_report.str_comm, per_report.nl,
      per_report.nl_comm, per_report.coll, per_report.coll_comm);
}

PlanPoint plan_cgyro(const gyro::Input& input, const net::MachineSpec& machine) {
  PlanPoint p;
  p.nodes = machine.n_nodes;
  p.ranks_per_sim = machine.total_ranks();
  p.n_sims = 1;
  p.decomp = gyro::Decomposition::choose(input, p.ranks_per_sim);
  p.fit = cluster::check_fit(
      gyro::Simulation::memory_inventory(input, p.decomp, 1), machine);
  p.per_report = estimate_phases(input, p.decomp, 1, machine);
  return p;
}

PlanPoint plan_xgyro(const gyro::Input& input, int k,
                     const net::MachineSpec& machine) {
  XG_REQUIRE(k >= 1, "plan_xgyro: k must be >= 1");
  XG_REQUIRE(machine.total_ranks() % k == 0,
             "plan_xgyro: total ranks not divisible by ensemble size");
  PlanPoint p;
  p.nodes = machine.n_nodes;
  p.ranks_per_sim = machine.total_ranks() / k;
  p.n_sims = k;
  p.decomp = gyro::Decomposition::choose(input, p.ranks_per_sim, k);
  p.fit = cluster::check_fit(
      gyro::Simulation::memory_inventory(input, p.decomp, k), machine);
  p.per_report = estimate_phases(input, p.decomp, k, machine);
  return p;
}

double estimate_queue_wait(double backlog_node_seconds, int cluster_nodes) {
  XG_REQUIRE(cluster_nodes >= 1, "estimate_queue_wait: need >= 1 node");
  if (backlog_node_seconds <= 0.0) return 0.0;
  return backlog_node_seconds / cluster_nodes;
}

WaitCalibration calibrate_queue_wait(const std::vector<double>& predicted_s,
                                     const std::vector<double>& realized_s) {
  if (predicted_s.size() != realized_s.size()) {
    throw InputError(strprintf(
        "calibrate_queue_wait: %zu predictions vs %zu realized waits",
        predicted_s.size(), realized_s.size()));
  }
  WaitCalibration c;
  c.tolerance = kDefaultWaitTolerance;
  c.min_coverage = kDefaultWaitMinCoverage;
  c.n = static_cast<int>(predicted_s.size());
  if (c.n == 0) return c;
  double abs_err = 0.0, err = 0.0, pred = 0.0, real = 0.0;
  int covered = 0;
  for (size_t i = 0; i < predicted_s.size(); ++i) {
    const double e = predicted_s[i] - realized_s[i];
    abs_err += std::abs(e);
    err += e;
    pred += predicted_s[i];
    real += realized_s[i];
    // A hair of slack so predicted == realized (e.g. both zero on an idle
    // service) counts as the lower bound holding.
    if (predicted_s[i] <= realized_s[i] + 1e-9) ++covered;
  }
  c.mae_s = abs_err / c.n;
  c.bias_s = err / c.n;
  c.mean_predicted_s = pred / c.n;
  c.mean_realized_s = real / c.n;
  c.ratio = c.mean_realized_s > 0.0 ? c.mae_s / c.mean_realized_s : 0.0;
  c.coverage = static_cast<double>(covered) / c.n;
  c.significant = c.n >= kWaitCalibrationMinSamples &&
                  c.mean_realized_s >= kWaitCalibrationMinMeanWaitS;
  c.pass = !c.significant ||
           (c.ratio <= c.tolerance && c.coverage >= c.min_coverage);
  return c;
}

AuditGate audit_fast_path(const std::vector<double>& price_s,
                          const std::vector<double>& measured_s) {
  if (price_s.size() != measured_s.size()) {
    throw InputError(strprintf(
        "audit_fast_path: %zu prices vs %zu measured costs",
        price_s.size(), measured_s.size()));
  }
  AuditGate g;
  g.tolerance = kDefaultAuditTolerance;
  g.n = static_cast<int>(price_s.size());
  if (g.n == 0) return g;
  double price_sum = 0.0, measured_sum = 0.0, ratio_sum = 0.0;
  for (size_t i = 0; i < price_s.size(); ++i) {
    const double p = price_s[i];
    const double m = measured_s[i];
    if ((p <= 0.0) != (m <= 0.0)) {
      throw InputError(strprintf(
          "audit_fast_path: sample %zu has price %g vs measured %g (one "
          "side vanished)", i, p, m));
    }
    price_sum += p;
    measured_sum += m;
    const double ratio =
        (p <= 0.0 && m <= 0.0) ? 1.0 : std::max(p, m) / std::min(p, m);
    ratio_sum += ratio;
    g.worst_ratio = std::max(g.worst_ratio, ratio);
  }
  g.mean_price_s = price_sum / g.n;
  g.mean_measured_s = measured_sum / g.n;
  g.mean_ratio = ratio_sum / g.n;
  g.significant =
      g.n >= kAuditMinSamples && g.mean_measured_s >= kAuditMinMeanMeasuredS;
  g.pass = !g.significant || g.worst_ratio <= g.tolerance;
  return g;
}

int min_feasible_nodes_cgyro(const gyro::Input& input, int max_nodes) {
  for (int n = 1; n <= max_nodes; n *= 2) {
    const auto machine = nl03c_machine(n);
    try {
      const auto p = plan_cgyro(input, machine);
      if (p.fit.fits) return n;
    } catch (const DecompositionError&) {
      continue;
    }
  }
  return -1;
}

}  // namespace xg::perfmodel
