// Simulation input parameters, CGYRO-style.
//
// The decisive property for the paper is the *partition* of this parameter
// set into the subset that feeds the collisional constant tensor (cmat) and
// the sweep-safe rest. Fusion parameter scans typically vary only the
// gradient drives (A_LN_N, A_LN_T) and initial conditions — none of which
// enter cmat — which is why an ensemble can share one cmat copy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "collision/operator.hpp"
#include "util/keyvalue.hpp"
#include "vgrid/velocity_grid.hpp"

namespace xg::gyro {

struct SpeciesInput {
  vgrid::Species physics;  ///< Z, m, n, T               (cmat-relevant)
  double a_ln_n = 1.0;     ///< density-gradient drive   (sweep-safe)
  double a_ln_t = 3.0;     ///< temperature-gradient drive (sweep-safe)
};

struct Input {
  // --- resolution (cmat-relevant) ------------------------------------------
  int n_radial = 8;
  int n_theta = 8;
  int n_toroidal = 4;
  int n_energy = 4;
  int n_xi = 8;
  double e_max = 8.0;
  /// Field components solved per moment reduction (1 = electrostatic φ;
  /// 3 = electromagnetic φ, A∥, B∥ as in full Sugama). Multiplies the
  /// str-phase AllReduce payload.
  int n_field = 1;
  std::vector<SpeciesInput> species{SpeciesInput{}};

  // --- numerics / collisions (cmat-relevant) -------------------------------
  double dt = 0.01;
  collision::CollisionParams collision;

  // --- geometry (cmat-relevant through k_perp) ------------------------------
  double q_safety = 2.0;    ///< safety factor
  double shear = 1.0;       ///< magnetic shear (twists k_x with theta)
  double rho_star = 0.01;   ///< gyroradius / machine size
  double box_radial = 16.0; ///< radial box length in gyroradii

  // --- drives & run control (sweep-safe: do NOT enter cmat) -----------------
  /// Adiabatic electron response in the field equation (adds n_e/T_e to the
  /// quasineutrality denominator). Changes the field solve, NOT the
  /// collision operator — a physics option that is still cmat-sweep-safe.
  bool adiabatic_electrons = false;
  double amp0 = 1e-3;           ///< initial perturbation amplitude
  std::uint64_t seed = 1;       ///< initial-condition seed
  bool nonlinear = false;       ///< enable the nl bracket phase
  double upwind = 0.1;          ///< upwind dissipation coefficient
  /// Pipeline chunks for the str→coll transpose (1 = plain AllToAll;
  /// >1 overlaps the transpose with the collision kernels chunk by chunk).
  /// Pure execution knob: sweep-safe, not part of the cmat fingerprint.
  int coll_pipeline_chunks = 1;
  int n_steps_per_report = 10;  ///< timesteps between reporting steps
  std::string tag = "cgyro";    ///< free label

  // --- derived --------------------------------------------------------------
  [[nodiscard]] int n_species() const { return static_cast<int>(species.size()); }
  [[nodiscard]] int nc() const { return n_radial * n_theta; }
  [[nodiscard]] int nv() const { return n_species() * n_energy * n_xi; }
  [[nodiscard]] int nt() const { return n_toroidal; }

  [[nodiscard]] vgrid::VelocityGrid make_velocity_grid() const;

  /// Validate ranges; throws xg::InputError.
  void validate() const;

  // --- (de)serialization -----------------------------------------------------
  static Input from_keyvalue(const KeyValueFile& kv);
  static Input load(const std::string& path);
  [[nodiscard]] KeyValueFile to_keyvalue() const;

  /// Fingerprint of the cmat-relevant parameter subset. Two inputs with the
  /// same fingerprint are guaranteed to build bit-identical cmat; XGYRO
  /// refuses ensembles that mix fingerprints.
  [[nodiscard]] std::uint64_t cmat_fingerprint() const;

  // --- presets ----------------------------------------------------------------
  /// Tiny grid for unit/integration tests (real mode).
  static Input small_test(int n_species = 1);
  /// Paper-scale benchmark-like case (model mode only). Structural ratios
  /// are calibrated to the published nl03c properties; see DESIGN.md §2.
  static Input nl03c_like();
};

/// One differing parameter between two inputs.
struct ParamDiff {
  std::string key;
  std::string value_a, value_b;
  bool cmat_relevant = false;  ///< true ⇒ this difference blocks sharing
};

/// Key-by-key comparison of two inputs (serialized form), each difference
/// classified as cmat-relevant or sweep-safe. The basis for actionable
/// "these members cannot share cmat because ..." error reports.
std::vector<ParamDiff> diff_inputs(const Input& a, const Input& b);

/// Is this serialized key part of the cmat-relevant subset?
bool is_cmat_relevant_key(const std::string& key);

}  // namespace xg::gyro
