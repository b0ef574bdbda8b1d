// Simulated HPC machine description and message-cost model.
//
// The paper's evaluation ran on 32 OLCF Frontier nodes. We stand a virtual
// machine in for the real one: ranks are placed onto nodes, and every
// point-to-point transfer is charged a LogGP-style cost
//
//     sender busy  : o_send + bytes / injection_bw
//     wire         : latency(src_node, dst_node)
//     receiver busy: o_recv
//
// with distinct (latency, bandwidth) for intra-node and inter-node paths.
// Collective costs are *not* modeled in closed form here — simmpi implements
// the collective algorithms over p2p messages, so their cost (and its scaling
// with participant count, the effect XGYRO exploits) emerges from this model.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace xg::net {

/// How global ranks map onto nodes. Block (the MPI launcher default, and
/// what CGYRO/XGYRO assume) keeps consecutive ranks together; round-robin
/// scatters them — useful as an ablation showing how much of XGYRO's
/// str-phase win depends on each member's nv communicator being co-located.
enum class PlacementStrategy { kBlock, kRoundRobin };

/// Static description of a machine. All rates in SI (bytes/s, s, flop/s).
struct MachineSpec {
  std::string name = "generic";
  int n_nodes = 1;
  int ranks_per_node = 8;
  PlacementStrategy placement = PlacementStrategy::kBlock;

  // Network path parameters.
  double intra_latency_s = 2.0e-6;   ///< rank↔rank on one node
  double inter_latency_s = 8.0e-6;   ///< rank↔rank across nodes
  double intra_bw_Bps = 50.0e9;      ///< per-message stream within a node
  double inter_bw_Bps = 12.5e9;      ///< per-rank NIC share across nodes when
                                     ///< ALL ranks on the node inject at once
  /// Per-rank NIC attach limit. When a communicator has fewer members per
  /// node than ranks_per_node, each member's share of the node NIC rises up
  /// to this cap (Frontier: each GCD has a ~25 GB/s path to the NICs).
  /// 0 disables the effect (effective inter bandwidth = inter_bw_Bps).
  double rank_nic_bw_Bps = 0.0;
  double send_overhead_s = 0.5e-6;   ///< CPU-side o_send
  double recv_overhead_s = 0.5e-6;   ///< CPU-side o_recv

  // Per-rank compute model (effective, application-level rates).
  double flops_per_s = 2.0e12;       ///< sustained FLOP rate
  double mem_bw_Bps = 1.0e12;        ///< sustained memory stream rate

  // Capacity, for feasibility checks.
  double rank_memory_bytes = 64.0e9;  ///< usable memory per rank (GPU/GCD)

  // Accelerator model. CGYRO's state lives on the GPU; kernels pay a launch
  // overhead, and if the MPI library is not GPU-aware every communicated
  // payload must stage through host memory (D2H before send, H2D after
  // receive) at the host-link bandwidth.
  bool has_gpu = false;          ///< state resident on an accelerator
  double kernel_launch_s = 0.0;  ///< per-kernel launch overhead
  double h2d_bw_Bps = 0.0;       ///< host↔device staging bandwidth
  bool gpu_aware_mpi = true;     ///< NIC reads/writes device memory directly

  [[nodiscard]] int total_ranks() const { return n_nodes * ranks_per_node; }
};

/// Frontier-like preset: 8 GCD ranks per node, 64 GB HBM per rank,
/// Slingshot-class inter-node links. Rates are *effective* application-level
/// values, calibrated so that the nl03c-class model lands in the paper's
/// seconds-per-reporting-step regime (see bench/fig2_breakdown).
MachineSpec frontier_like(int n_nodes);

/// Small-and-slow preset used by tests: low bandwidth and high latency make
/// communication costs visible even on tiny payloads.
MachineSpec testbox(int n_nodes, int ranks_per_node);

/// Block placement of global ranks onto nodes (rank r → node r / rpn),
/// matching the natural MPI launcher layout.
class Placement {
 public:
  explicit Placement(const MachineSpec& spec) : spec_(spec) {}

  [[nodiscard]] int node_of(int rank) const {
    return spec_.placement == PlacementStrategy::kBlock
               ? rank / spec_.ranks_per_node
               : rank % spec_.n_nodes;
  }
  [[nodiscard]] bool same_node(int a, int b) const {
    return node_of(a) == node_of(b);
  }
  [[nodiscard]] const MachineSpec& spec() const { return spec_; }

  /// Wire time (after the sender hands off): latency only.
  [[nodiscard]] double wire_latency(int src, int dst) const {
    return same_node(src, dst) ? spec_.intra_latency_s : spec_.inter_latency_s;
  }

  /// Effective inter-node bandwidth when `nic_sharers` ranks of the node
  /// participate in the same communication pattern: the node NIC capacity
  /// (inter_bw × ranks_per_node) divided among the sharers, capped by the
  /// per-rank attach limit.
  [[nodiscard]] double inter_bw_effective(int nic_sharers) const {
    if (spec_.rank_nic_bw_Bps <= 0.0) return spec_.inter_bw_Bps;
    const double node_nic = spec_.inter_bw_Bps * spec_.ranks_per_node;
    const double share =
        node_nic / static_cast<double>(nic_sharers < 1 ? 1 : nic_sharers);
    return share < spec_.rank_nic_bw_Bps ? share : spec_.rank_nic_bw_Bps;
  }

  /// Time the sender spends injecting `bytes` onto the path to dst.
  /// `nic_sharers` = co-located ranks contending for the NIC (defaults to
  /// the worst case, every rank on the node).
  [[nodiscard]] double injection_time(int src, int dst, std::uint64_t bytes,
                                      int nic_sharers = -1) const {
    const double bw = same_node(src, dst)
                          ? spec_.intra_bw_Bps
                          : inter_bw_effective(nic_sharers < 0
                                                   ? spec_.ranks_per_node
                                                   : nic_sharers);
    return spec_.send_overhead_s + static_cast<double>(bytes) / bw;
  }

  [[nodiscard]] double recv_overhead() const { return spec_.recv_overhead_s; }

  /// Compute charge: max of flop-bound and memory-bound estimates.
  [[nodiscard]] double compute_time(double flops, double bytes) const {
    const double t_flop = flops / spec_.flops_per_s;
    const double t_mem = bytes / spec_.mem_bw_Bps;
    return t_flop > t_mem ? t_flop : t_mem;
  }

  /// Per-rank sustained-rate degradation: rank `rank` takes `slowdown`×
  /// longer for every compute-side charge (1.0 = nominal). Models
  /// heterogeneous or thermally-throttled nodes; the fault-injection layer
  /// uses it for straggler ranks. Multiplicative when set repeatedly.
  void set_rank_compute_scale(int rank, double slowdown);
  [[nodiscard]] double rank_compute_scale(int rank) const {
    if (compute_scale_.empty()) return 1.0;
    const auto it = compute_scale_.find(rank);
    return it == compute_scale_.end() ? 1.0 : it->second;
  }

 private:
  MachineSpec spec_;
  std::map<int, double> compute_scale_;  ///< ranks not present run at 1.0
};

}  // namespace xg::net
