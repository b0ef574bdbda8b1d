// XGYRO: run an ensemble of CGYRO simulations as one job, sharing a single
// distributed copy of the collisional constant tensor.
//
// The structural change relative to CGYRO (paper §2.1, Fig. 3) is confined
// to the communicator layout built here:
//   * each simulation keeps its own sim/nv/t communicators — the streaming
//     AllReduces involve only that simulation's pv ranks;
//   * the collision communicator is ensemble-wide: the k·pv ranks that share
//     a toroidal block across all simulations. cmat is distributed over it,
//     so each rank stores nc/(k·pv) cells instead of nc/pv — a k× per-rank
//     memory reduction for the dominant buffer.
// "Most of the other code remained unchanged": the same gyro::Simulation
// runs in both layouts.
#pragma once

#include <functional>
#include <vector>

#include "gyro/decomposition.hpp"
#include "gyro/input.hpp"
#include "gyro/simulation.hpp"
#include "simmpi/comm.hpp"

namespace xg::xgyro {

/// The k member inputs of an ensemble job.
struct EnsembleInput {
  std::vector<gyro::Input> members;

  [[nodiscard]] int n_sims() const { return static_cast<int>(members.size()); }

  /// Throws xg::InputError unless every member has the same cmat
  /// fingerprint — the precondition for sharing one tensor copy.
  void validate_shared_cmat() const;

  /// Partition member indices by cmat fingerprint, in order of first
  /// appearance. One group = one shareable tensor (used by the grouped
  /// sharing policy, which generalizes the paper's single-group XGYRO to
  /// campaigns that mix physically different configurations).
  [[nodiscard]] std::vector<std::vector<int>> sharing_groups() const;

  /// Parameter sweep: k copies of `base` with `mutate(input, index)` applied
  /// to each (typically varying the gradient drives). Validates sharing.
  static EnsembleInput sweep(const gyro::Input& base, int k,
                             const std::function<void(gyro::Input&, int)>& mutate);

  /// Load member inputs from files (one per simulation directory, as the
  /// real XGYRO does). `require_shared_cmat=false` skips the single-group
  /// validation for campaigns intended for SharingPolicy::kGroupByFingerprint.
  static EnsembleInput load(const std::vector<std::string>& paths,
                            bool require_shared_cmat = true);

  /// Load from an input.xgyro-style manifest:
  ///   N_SIM=3
  ///   DIR_1=member_a        # one directory per member
  ///   DIR_2=member_b
  ///   DIR_3=member_c
  ///   INPUT_NAME=input.cgyro   # optional, this is the default
  /// Directories are resolved relative to the manifest's location. Each
  /// must contain the member's input file.
  static EnsembleInput load_manifest(const std::string& manifest_path,
                                     bool require_shared_cmat = true);
};

/// Build this rank's communicator layout for an ensemble of k simulations,
/// each decomposed as `d`, on a world communicator of exactly k·pv·pt ranks.
/// World ranks are simulation-major: sim = world_rank / (pv·pt).
/// Returns the layout; `*sim_index_out` gets this rank's simulation index.
gyro::CommLayout make_xgyro_layout(const mpi::Comm& world, int k,
                                   const gyro::Decomposition& d,
                                   int* sim_index_out);

/// Grouped variant: `group_of_sim[s]` assigns simulation s to a sharing
/// group; each group gets its own collision communicator (size
/// group_size·pv) and its own distributed cmat copy. With a single group
/// this reduces exactly to make_xgyro_layout.
gyro::CommLayout make_xgyro_layout_grouped(const mpi::Comm& world,
                                           const std::vector<int>& group_of_sim,
                                           const gyro::Decomposition& d,
                                           int* sim_index_out);

/// How an EnsembleDriver maps members onto shared tensors.
enum class SharingPolicy {
  kSingleGroup,         ///< paper semantics: all members must share (throws
                        ///< on fingerprint mismatch)
  kGroupByFingerprint,  ///< generalization: members grouped automatically;
                        ///< each group shares one cmat copy
};

/// Per-rank ensemble driver: owns this rank's Simulation, wired into the
/// shared-cmat layout, with fingerprint validation across the ensemble.
class EnsembleDriver {
 public:
  /// Reads `input` only while constructing: the rank keeps a copy of its
  /// own member inside its Simulation, not of the whole batch.
  EnsembleDriver(const EnsembleInput& input,
                 gyro::Decomposition per_sim_decomp,
                 mpi::Proc& proc, gyro::Mode mode,
                 SharingPolicy policy = SharingPolicy::kSingleGroup);

  /// Collective over the world communicator: validates cmat compatibility,
  /// then initializes the member simulation (shared cmat build included).
  void initialize();

  gyro::Diagnostics advance_report_interval();

  [[nodiscard]] gyro::Simulation& simulation() { return *sim_; }
  [[nodiscard]] int sim_index() const { return sim_index_; }
  /// Sharing group of this rank's member (always 0 under kSingleGroup).
  [[nodiscard]] int sharing_group() const { return group_; }
  /// Members sharing this rank's cmat copy.
  [[nodiscard]] int group_size() const { return group_size_; }

 private:
  mpi::Proc* proc_;
  int sim_index_ = -1;
  int group_ = 0;
  int group_size_ = 1;
  std::unique_ptr<gyro::Simulation> sim_;
};

}  // namespace xg::xgyro
