// MPI decomposition of one simulation, and the communicator layout.
//
// A simulation runs on P = pv · pt ranks, rank = p_t·pv + p_v:
//   * the nv communicator (size pv, fixed p_t) splits velocity space in the
//     streaming phase. CGYRO uses this one communicator for BOTH the
//     field/upwind AllReduces and the str↔coll transpose (paper Fig. 1);
//   * the t communicator (size pt, fixed p_v) splits the toroidal dimension
//     and serves the nonlinear-phase transpose;
//   * the coll communicator serves the str↔coll transpose and cmat storage.
//     In CGYRO it *is* the nv communicator. XGYRO's one structural change is
//     to make it a distinct, ensemble-wide communicator of size k·pv
//     (paper Fig. 3) — that separation is implemented in src/xgyro.
#pragma once

#include <optional>

#include "gyro/input.hpp"
#include "simmpi/comm.hpp"

namespace xg::gyro {

struct Decomposition {
  int pv = 1;  ///< velocity-splitting ranks
  int pt = 1;  ///< toroidal-splitting ranks

  [[nodiscard]] int nranks() const { return pv * pt; }

  /// Check divisibility against a simulation input (k = sims sharing cmat;
  /// the ensemble transpose needs nc % (k·pv) == 0).
  void validate(const Input& input, int n_sims_sharing = 1) const;

  /// Pick the decomposition CGYRO-style: the largest pt dividing both
  /// n_toroidal and nranks such that the pv = nranks/pt slice satisfies the
  /// velocity/configuration divisibility rules. Throws if none exists.
  static Decomposition choose(const Input& input, int nranks,
                              int n_sims_sharing = 1);

  /// choose()'s pick, or nullopt where choose() would throw. Throws
  /// nothing, so planners can probe shapes without exceptions.
  static std::optional<Decomposition> find(const Input& input, int nranks,
                                           int n_sims_sharing = 1);
};

struct CommLayout {
  mpi::Comm sim;   ///< all ranks of this simulation
  mpi::Comm nv;    ///< streaming-phase velocity communicator (size pv)
  mpi::Comm t;     ///< toroidal communicator (size pt)
  mpi::Comm coll;  ///< collision communicator (CGYRO: the nv comm itself)
  int n_sims_sharing = 1;  ///< k — simulations sharing one cmat copy
  int share_index = 0;     ///< this simulation's index within the share group
};

/// Build the classic CGYRO layout: one simulation owning `sim_comm`
/// entirely, collision communicator aliasing the nv communicator.
CommLayout make_cgyro_layout(const mpi::Comm& sim_comm, const Decomposition& d);

}  // namespace xg::gyro
