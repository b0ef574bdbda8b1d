// The CGYRO-skeleton gyrokinetic solver.
//
// One Simulation object lives on each rank of a simulation's communicator
// and advances the distributed state h(nv_loc, nc, nt_loc) through the
// paper's three phases per timestep:
//
//   streaming  (str)  : RK4 stages; each stage solves the field equation and
//                       the upwind dissipation moment with AllReduces on the
//                       nv communicator — the communication the paper's
//                       Fig. 2 shows dominating CGYRO runs;
//   nonlinear  (nl)   : pseudo-spectral toroidal bracket; transpose over the
//                       t communicator (full nt needed);
//   collision  (coll) : transpose to (nc_loc, nv, nt_loc) over the coll
//                       communicator, apply the precomputed cmat per cell,
//                       transpose back. The coll communicator is the nv
//                       communicator in CGYRO and the ensemble-wide one in
//                       XGYRO; the Simulation code is identical either way.
//
// Two execution modes with the same schedule:
//   kReal  — real data on small grids (tests, examples);
//   kModel — virtual payloads + calibrated compute charges at paper scale
//            (benchmarks). Every collective call matches the real path
//            message-for-message. A model-mode rank builds no velocity
//            grid, no rhs/field tables and no cmat cells: it only counts
//            its k⊥² classes to charge the cmat build.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/memory.hpp"
#include "collision/tensor.hpp"
#include "fft/fft.hpp"
#include "gyro/decomposition.hpp"
#include "gyro/geometry.hpp"
#include "gyro/input.hpp"
#include "gyro/kernels.hpp"
#include "simmpi/runtime.hpp"
#include "tensor/dist_transpose.hpp"
#include "tensor/tensor.hpp"

namespace xg::gyro {

using cplx = std::complex<double>;

enum class Mode { kReal, kModel };

/// Calibrated per-element FLOP constants for model mode. Values chosen so a
/// Frontier-like rank lands in the regime of CGYRO's published per-phase
/// times; the paper comparison depends on ratios, not these absolutes.
struct ComputeModel {
  double rhs_flops_per_elem = 80.0;          ///< one RK-stage RHS evaluation
  double field_partial_flops_per_elem = 16.0;///< moment partial sums (×2)
  double nl_flops_per_elem_base = 30.0;      ///< bracket, plus FFT term below
  double nl_fft_flops_per_log = 10.0;        ///< × log2(nt) per element
  double init_table_flops_per_elem = 40.0;   ///< gyroaverage tables etc.
};

struct Diagnostics {
  double time = 0.0;       ///< simulation time
  int steps = 0;           ///< timesteps taken
  double phi_rms = 0.0;    ///< RMS electrostatic potential
  double flux_proxy = 0.0; ///< Σ ky·|φ|² (quasilinear flux stand-in)
  /// Free energy W = Σ w(iv)·|h|² over the global state (the entropy-like
  /// functional whose decay under collisions is the discrete H-theorem).
  double free_energy = 0.0;
};

class Simulation {
 public:
  Simulation(Input input, Decomposition decomp, CommLayout comms,
             mpi::Proc& proc, Mode mode);

  /// Grids, geometry tables, cmat construction, initial condition.
  /// Collective over the simulation (and coll) communicators.
  void initialize();

  /// One full timestep: RK4 streaming(+nonlinear) then implicit collisions.
  void step();

  /// n_steps_per_report timesteps plus the reporting diagnostics.
  Diagnostics advance_report_interval();

  [[nodiscard]] int steps_taken() const { return steps_; }
  [[nodiscard]] const Input& input() const { return input_; }
  [[nodiscard]] const Decomposition& decomposition() const { return decomp_; }
  [[nodiscard]] Mode mode() const { return mode_; }

  /// Diagnostics at the current state (collective over sim comm).
  [[nodiscard]] Diagnostics diagnostics();

  /// |φ|² summed over configuration, per toroidal mode (size nt) — the
  /// fluctuation spectrum CGYRO reports in out.cgyro.ky_flux. Real mode;
  /// collective over the sim communicator.
  [[nodiscard]] std::vector<double> phi_spectrum();

  /// Order-independent hash of the global state; equal across different
  /// decompositions of the same run. Collective over sim comm. Real mode.
  [[nodiscard]] std::uint64_t state_hash();

  /// This rank's cmat slice (valid after initialize()).
  [[nodiscard]] const collision::CollisionTensor& cmat() const { return *cmat_; }

  // --- checkpoint support (see checkpoint/checkpoint.hpp) -------------------
  /// Raw view of this rank's state slice in the streaming layout. Real mode
  /// only (model mode carries no data). Used by the snapshot reader/writer.
  [[nodiscard]] std::span<const cplx> state_data() const { return h_.data(); }
  [[nodiscard]] std::span<cplx> state_data_mutable() { return h_.data(); }
  /// Restore the step counter when resuming from a checkpoint.
  void set_steps_taken(int steps) { steps_ = steps; }
  [[nodiscard]] int sim_rank() const { return comms_.sim.rank(); }
  /// Global index of this rank's first velocity row / toroidal column —
  /// the slice coordinates the elastic checkpoint layer records so state
  /// written under one (pv, pt) can be restored under another.
  [[nodiscard]] int iv_global_offset() const {
    return comms_.nv.rank() * nv_loc();
  }
  [[nodiscard]] int it_global_offset() const {
    return comms_.t.rank() * nt_loc();
  }
  /// The communicator cmat is distributed over (nv comm in CGYRO, the
  /// ensemble-wide one in XGYRO).
  [[nodiscard]] mpi::Comm& coll_comm() { return comms_.coll; }
  [[nodiscard]] std::uint64_t input_cmat_fingerprint() const {
    return input_.cmat_fingerprint();
  }

  /// Per-rank memory inventory for this decomposition (pure accounting —
  /// valid in both modes, no allocation needed).
  [[nodiscard]] cluster::MemoryInventory memory_inventory() const;
  static cluster::MemoryInventory memory_inventory(const Input& input,
                                                   const Decomposition& d,
                                                   int n_sims_sharing);

  // --- local sizes ----------------------------------------------------------
  [[nodiscard]] int nv_loc() const { return input_.nv() / decomp_.pv; }
  [[nodiscard]] int nt_loc() const { return input_.nt() / decomp_.pt; }
  [[nodiscard]] int nc_loc_coll() const {
    return input_.nc() / (decomp_.pv * comms_.n_sims_sharing);
  }
  [[nodiscard]] int n_coll_cells() const { return nc_loc_coll() * nt_loc(); }

 private:
  // real-mode internals
  void build_tables();
  void build_cmat();
  void apply_initial_condition();
  /// Field moments of `h` (and, with `upwind`, the upwind partial into u_,
  /// for the upwind_solve that follows) in one sweep, then the field
  /// AllReduce and normalisation.
  void field_solve(const tensor::Tensor3Z& h, bool upwind);
  void upwind_solve();
  /// RHS r of RK4 stage `stage` (0..3) at the stage input (h_ on stage 0,
  /// stage_ after it), fused with the update: acc_ = h_ + b·r on stage 0 and
  /// acc_ += b·r after it; on stages 0..2 also stage_ = h_ + a·r.
  void compute_rhs(int stage, double b, double a);
  void nonlinear_term(const tensor::Tensor3Z& h);
  void collision_step();
  void apply_collisions_range(int a_lo, int a_hi);
  void rk4_step();

  // model-mode internals
  void model_initialize();
  void model_step();

  // shared helpers
  [[nodiscard]] int it_global(int it_loc) const;
  [[nodiscard]] int global_ic_of_coll_cell(int a) const;
  [[nodiscard]] size_t state_elems() const {
    return static_cast<size_t>(nv_loc()) * input_.nc() * nt_loc();
  }
  [[nodiscard]] std::uint64_t field_bytes() const {
    return static_cast<std::uint64_t>(input_.nc()) * nt_loc() * sizeof(cplx);
  }

  Input input_;
  Decomposition decomp_;
  CommLayout comms_;
  mpi::Proc* proc_;
  Mode mode_;
  ComputeModel compute_model_;

  Geometry geometry_;
  std::unique_ptr<vgrid::VelocityGrid> vgrid_;  ///< real mode only

  int steps_ = 0;

  // streaming-phase state (real mode)
  /// RK4 buffers: acc_ gathers h_ + Σ b·k and stage_ holds the next
  /// stage's input; compute_rhs writes both from each element's k.
  tensor::Tensor3Z h_, acc_, stage_;
  tensor::Tensor3Z nl_;                  // nonlinear term at current stage
  tensor::Tensor3<double> gyro_j_;       // gyroaverage table (nv_loc, nc, nt_loc)
  /// Stacked field moments, slot-major: [field][ic][it_loc]. Slot 0 is φ;
  /// slots 1,2 are the A∥/B∥-like moments when n_field = 3 (they ride the
  /// same AllReduce, as in electromagnetic CGYRO).
  std::vector<cplx> field_stack_;
  std::vector<cplx> u_;                  // upwind moment (nc × nt_loc)
  std::vector<double> denom_, unorm_;    // field denominators
  std::vector<int> iv_global_;           // local iv -> global iv
  /// Precomputed moment weights (built once in build_tables): field_w_ holds
  /// charge·moment·quadrature per (field, ivl), upwind_w_ holds
  /// weight·|v_par| per ivl — both were recomputed per (ic, itl) before.
  std::vector<double> field_w_;          // (n_field × nv_loc)
  std::vector<double> upwind_w_;         // (nv_loc)
  /// compute_rhs and bracket coefficients, built once in build_tables
  /// instead of per-element Geometry/VelocityGrid calls (kpar's cos among
  /// them): ky per global toroidal mode; kpar, the upwind damping
  /// upwind·|kpar| and ky per (ic, itl) cell, so compute_rhs runs one flat
  /// loop over a velocity row; and the per-velocity constants.
  std::vector<double> ky_;                             // (nt)
  std::vector<double> rhs_kpar_, rhs_damp_, rhs_ky_;   // (nc × nt_loc)
  std::vector<detail::RhsVelocity> rhs_v_;             // (nv_loc)

  // collision-phase objects
  std::unique_ptr<tensor::EnsembleTransposer<cplx>> coll_transpose_;
  std::vector<tensor::Tensor3Z> coll_states_;
  std::unique_ptr<collision::CollisionTensor> cmat_;
  /// Pack/unpack panel for the batched collision apply: two nv×k row-major
  /// panels (input and output), k = n_sims_sharing.
  std::vector<cplx> coll_scratch_;

  // nonlinear-phase objects. At pt = 1 the nl transpose is the identity:
  // the bracket reads h in place and writes nl_, the transposer only issues
  // its (virtual) collectives, and the two permute/layout tensors below are
  // never allocated.
  std::unique_ptr<tensor::EnsembleTransposer<cplx>> nl_transpose_;
  tensor::Tensor3Z nl_str_perm_;          // (nt_loc, nc, nv_loc), pt > 1
  std::vector<tensor::Tensor3Z> nl_layout_;  // pt > 1
  std::vector<cplx> phi_full_t_;          // φ gathered over t (nc × nt)
  /// FFT plan and bracket scratch, built once in initialize(). The bracket
  /// runs one configuration cell at a time on split-layout lines (see
  /// fft::Plan::forward_lines; element (t, line) at t·lines + line):
  /// nl_lines_ holds [re | im] of the ikx·h lines, which then carry the
  /// bracket, followed by [re | im] of the iky·h lines — nt × nv_loc each;
  /// nl_phi_lines_ holds [re | im] of the cell's iky·φ and ikx·φ lines
  /// (nt × 2 each); nl_fft_scratch_ is the FFT's Bluestein scratch for the
  /// larger of those batches (empty at a power-of-two nt).
  std::unique_ptr<fft::Plan> nl_plan_;
  std::vector<double> nl_lines_;          // 4 · nt · nv_loc
  std::vector<double> nl_phi_lines_;      // 4 · nt
  std::vector<double> nl_fft_scratch_;
  /// kx(ic, t) of this rank's nl cells (nc/pt × nt), built in
  /// build_tables; the bracket's ky(t) is ky_.
  std::vector<double> nl_kx_;
  std::vector<cplx> nl_gather_;           // allgather staging (nc × nt)
};

/// Format per-phase timing totals of a finished run, CGYRO out.cgyro.timing
/// style. `ranks` filters which world ranks to aggregate (empty = all).
std::string format_timing(const mpi::RunResult& result,
                          const std::vector<std::string>& phases);

}  // namespace xg::gyro
