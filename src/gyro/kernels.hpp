// The real-mode RK4 stage kernels of gyro::Simulation, as functions over raw
// arrays: the field/upwind moment sweep, the toroidal bracket of one
// configuration cell, and the fused RHS + RK4 update.
//
// Each kernel is one always_inline body with a baseline and an AVX2
// wrapper; the `isa` argument picks the wrapper (Simulation passes
// kernel_isa(), util/cpu.hpp). Every element goes through the same
// floating-point operations in the same order on both, so the results are
// bit-identical; the tests call both on the same inputs and compare bytes.
//
// Complex arrays are std::complex<double> (interleaved re, im). Tensors of
// the streaming layout are velocity-row major: element (ivl, cell) at
// ivl·cells + cell, cell = ic·nt_loc + itl.
#pragma once

#include <complex>
#include <cstddef>
#include <span>

#include "fft/fft.hpp"
#include "util/cpu.hpp"

namespace xg::gyro::detail {

using cplx = std::complex<double>;

/// Field moments (and optionally the upwind partial) of h, summed over this
/// rank's velocity rows: field[f·cells + c] = Σ_ivl field_w[f·nv + ivl] ·
/// j(ivl, c) · h(ivl, c), ascending ivl from +0; u likewise with upwind_w.
struct MomentSweep {
  size_t nv = 0, cells = 0, n_field = 0;
  const cplx* h = nullptr;           ///< nv × cells
  const double* j = nullptr;         ///< gyroaverage factors, nv × cells
  const double* field_w = nullptr;   ///< n_field × nv
  const double* upwind_w = nullptr;  ///< nv; null: no upwind partial
  cplx* field = nullptr;             ///< n_field × cells, overwritten
  cplx* u = nullptr;                 ///< cells, overwritten if upwind_w
};
void moment_sweep(const MomentSweep& s, Isa isa);

/// The pseudo-spectral toroidal bracket of one configuration cell over nv
/// lines of nt: element (t, v) is read at src[t·st + v·sv] and the bracket
/// written at dst[t·st + v·sv]; src may equal dst.
struct BracketCell {
  size_t nt = 0, nv = 0;
  const fft::Plan* plan = nullptr;  ///< length nt
  const double* ky = nullptr;       ///< ky(t), nt
  const double* kx = nullptr;       ///< kx(ic, t), nt
  const cplx* phi = nullptr;        ///< φ(ic, t), nt
  const cplx* src = nullptr;
  cplx* dst = nullptr;
  size_t st = 0, sv = 0;
  double* lines = nullptr;      ///< scratch, 4 · nt · nv
  double* phi_lines = nullptr;  ///< scratch, 4 · nt
  /// FFT scratch of fft::detail::lines_scratch_size(*plan, max(nv, 2))
  /// doubles, so the bracket never allocates.
  std::span<double> fft_scratch;
};
void bracket_cell(const BracketCell& c, Isa isa);

/// Per-velocity constants of the RHS.
struct RhsVelocity {
  double vpar, abs_vpar, e;
  double pitch;  ///< 0.5 + 0.5·ξ²
  double drive;  ///< a_ln_n + a_ln_t·(e − 1.5) of the point's species
};

/// RK4 stage `stage` (0..3): the RHS r at the stage input x (h on stage 0,
/// `stage_in` after it) fused with the update: acc = h + b·r on stage 0 and
/// acc += b·r after it; on stages 0..2 also stage_in = h + a·r, in place.
/// Per cell c of velocity row ivl, with the row's constants v:
///   ω = kpar(c)·v∥ + 0.4·ky(c)·e·pitch,  g = ky(c)·j·drive,
///   r = (0, −ω)·x + (0, g)·φ − damp(c)·(|v∥|·x − j·u) [+ nl].
struct RhsStage {
  int stage = 0;
  bool nonlinear = false;
  size_t nv = 0, cells = 0;
  double b = 0.0, a = 0.0;
  const RhsVelocity* vel = nullptr;  ///< nv
  const double* kpar = nullptr;      ///< per cell
  const double* damp = nullptr;      ///< per cell: upwind·|kpar|
  const double* ky = nullptr;        ///< per cell
  const double* j = nullptr;         ///< nv × cells
  const cplx* phi = nullptr;         ///< cells
  const cplx* u = nullptr;           ///< cells
  const cplx* nl = nullptr;          ///< nv × cells, when nonlinear
  const cplx* h = nullptr;           ///< nv × cells
  cplx* stage_in = nullptr;          ///< nv × cells
  cplx* acc = nullptr;               ///< nv × cells
};
void compute_rhs(const RhsStage& s, Isa isa);

}  // namespace xg::gyro::detail
