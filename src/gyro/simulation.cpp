#include <cstring>
#include "gyro/simulation.hpp"

#include <algorithm>
#include <cmath>

#include "fft/fft.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace xg::gyro {

namespace {

/// Deterministic, decomposition-independent initial value for one global
/// (iv, ic, it) element.
cplx init_value(std::uint64_t seed, int iv, int ic, int it, double amp) {
  std::uint64_t s = Hasher().u64(seed).i64(iv).i64(ic).i64(it).digest();
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  const double re = static_cast<double>(a >> 11) * 0x1.0p-53 * 2.0 - 1.0;
  const double im = static_cast<double>(b >> 11) * 0x1.0p-53 * 2.0 - 1.0;
  return amp * cplx(re, im);
}

/// Order-independent per-element hash contribution.
std::uint64_t element_hash(int iv, int ic, int it, cplx v) {
  std::uint64_t bits_re, bits_im;
  double re = v.real() == 0.0 ? 0.0 : v.real();
  double im = v.imag() == 0.0 ? 0.0 : v.imag();
  std::memcpy(&bits_re, &re, 8);
  std::memcpy(&bits_im, &im, 8);
  std::uint64_t s = Hasher().i64(iv).i64(ic).i64(it).digest() ^ bits_re ^
                    (bits_im << 32 | bits_im >> 32);
  return splitmix64(s);
}

}  // namespace

Simulation::Simulation(Input input, Decomposition decomp, CommLayout comms,
                       mpi::Proc& proc, Mode mode)
    : input_(std::move(input)), decomp_(decomp), comms_(std::move(comms)),
      proc_(&proc), mode_(mode), geometry_(input_) {
  input_.validate();
  decomp_.validate(input_, comms_.n_sims_sharing);
  XG_REQUIRE(comms_.sim.size() == decomp_.nranks(),
             "Simulation: sim communicator size != pv*pt");
  XG_REQUIRE(comms_.nv.size() == decomp_.pv,
             "Simulation: nv communicator size != pv");
  XG_REQUIRE(comms_.t.size() == decomp_.pt,
             "Simulation: t communicator size != pt");
  XG_REQUIRE(comms_.coll.size() == decomp_.pv * comms_.n_sims_sharing,
             "Simulation: coll communicator size != k*pv");
  // Only real-mode tables, cmat and diagnostics read the grid; model mode
  // charges their cost without building it (validate() already rejected
  // every input the grid constructor would).
  if (mode_ == Mode::kReal) {
    vgrid_ = std::make_unique<vgrid::VelocityGrid>(input_.make_velocity_grid());
  }

  coll_transpose_ = std::make_unique<tensor::EnsembleTransposer<cplx>>(
      comms_.n_sims_sharing, decomp_.pv, input_.nc(), input_.nv(), nt_loc());
  if (input_.nonlinear) {
    nl_transpose_ = std::make_unique<tensor::EnsembleTransposer<cplx>>(
        1, decomp_.pt, input_.nc(), input_.nt(), nv_loc());
  }

  iv_global_.resize(static_cast<size_t>(nv_loc()));
  for (int ivl = 0; ivl < nv_loc(); ++ivl) {
    iv_global_[ivl] = comms_.nv.rank() * nv_loc() + ivl;
  }
}

int Simulation::it_global(int it_loc) const {
  return comms_.t.rank() * nt_loc() + it_loc;
}

int Simulation::global_ic_of_coll_cell(int a) const {
  return comms_.coll.rank() * nc_loc_coll() + a;
}

void Simulation::initialize() {
  proc_->set_phase("init");
  mpi::ScopedSpan span(*proc_, "initialize");

  // Geometry / gyroaverage tables (built in device memory).
  proc_->kernel(static_cast<double>(state_elems()) *
                compute_model_.init_table_flops_per_elem);
  if (mode_ == Mode::kReal) {
    h_ = tensor::Tensor3Z(nv_loc(), input_.nc(), nt_loc());
    acc_ = h_;
    stage_ = h_;
    if (input_.nonlinear) {
      nl_ = h_;
      if (decomp_.pt > 1) {
        nl_str_perm_ = tensor::Tensor3Z(nt_loc(), input_.nc(), nv_loc());
        nl_layout_ = nl_transpose_->make_coll_tensors();
      }
      phi_full_t_.resize(static_cast<size_t>(input_.nc()) * input_.nt());
      const size_t nt = static_cast<size_t>(input_.nt());
      nl_plan_ = std::make_unique<fft::Plan>(nt);
      nl_lines_.assign(4 * nt * static_cast<size_t>(nv_loc()), 0.0);
      nl_phi_lines_.assign(4 * nt, 0.0);
      nl_fft_scratch_.resize(fft::detail::lines_scratch_size(
          *nl_plan_, std::max<size_t>(nv_loc(), 2)));
      nl_gather_.resize(static_cast<size_t>(input_.nc()) * nt);
    }
    gyro_j_ = tensor::Tensor3<double>(nv_loc(), input_.nc(), nt_loc());
    const size_t nfield = static_cast<size_t>(input_.nc()) * nt_loc();
    field_stack_.assign(nfield * input_.n_field, cplx{});
    u_.assign(nfield, cplx{});
    denom_.assign(nfield, 0.0);
    unorm_.assign(nfield, 0.0);
    build_tables();
  } else {
    // Same collective (and host staging) as the real path's upwind-norm
    // reduction in build_tables.
    proc_->stage_for_comm(static_cast<std::uint64_t>(input_.nc()) * nt_loc() *
                          sizeof(double));
    comms_.nv.allreduce_virtual(
        static_cast<std::uint64_t>(input_.nc()) * nt_loc() * sizeof(double));
  }

  build_cmat();

  if (mode_ == Mode::kReal) apply_initial_condition();

  coll_states_.clear();
  coll_scratch_.clear();
  if (mode_ == Mode::kReal) {
    coll_states_ = coll_transpose_->make_coll_tensors();
    // Only the real collision apply reads the nv×k panels.
    coll_scratch_.assign(
        static_cast<size_t>(input_.nv()) * 2 * comms_.n_sims_sharing, cplx{});
  }

  // Enter the step loop synchronized, as production solvers do before the
  // timed loop. The memoized cmat build charges differ per rank (each skips
  // the LU for its own duplicate-kperp2 cells), and without this barrier that
  // startup skew would be attributed to the first step's comm phase instead
  // of init. coll then sim is an exact global sync: every coll group spans
  // all sims sharing cmat, so each sim's max after the first barrier is the
  // ensemble max.
  comms_.coll.barrier();
  comms_.sim.barrier();
}

void Simulation::build_tables() {
  for (int ivl = 0; ivl < nv_loc(); ++ivl) {
    const int iv = iv_global_[ivl];
    for (int ic = 0; ic < input_.nc(); ++ic) {
      for (int itl = 0; itl < nt_loc(); ++itl) {
        gyro_j_(ivl, ic, itl) =
            geometry_.gyroaverage(*vgrid_, iv, ic, it_global(itl));
      }
    }
  }
  // Moment weights depend only on the velocity point (and field slot), not
  // on the cell — build them once here instead of inside the per-(ic, itl)
  // loops of field_solve/upwind_solve. Products are grouped exactly as the
  // former inline expressions so the solves stay bit-identical.
  field_w_.assign(static_cast<size_t>(input_.n_field) * nv_loc(), 0.0);
  upwind_w_.assign(static_cast<size_t>(nv_loc()), 0.0);
  for (int ivl = 0; ivl < nv_loc(); ++ivl) {
    const int iv = iv_global_[ivl];
    const double z = vgrid_->species(vgrid_->species_of(iv)).charge;
    upwind_w_[ivl] = vgrid_->weight(iv) * std::abs(vgrid_->v_parallel(iv));
    for (int f = 0; f < input_.n_field; ++f) {
      // Field moment weights: φ ← 1, A∥ ← v∥, B∥ ← e (EM stand-ins).
      const double mw = (f == 0)   ? 1.0
                        : (f == 1) ? vgrid_->v_parallel(iv)
                                   : vgrid_->energy(vgrid_->energy_of(iv));
      field_w_[static_cast<size_t>(f) * nv_loc() + ivl] =
          z * mw * vgrid_->weight(iv);
    }
  }
  for (int ic = 0; ic < input_.nc(); ++ic) {
    for (int itl = 0; itl < nt_loc(); ++itl) {
      const size_t idx = static_cast<size_t>(ic) * nt_loc() + itl;
      denom_[idx] = geometry_.field_denominator(ic, it_global(itl));
      double partial = 0.0;
      for (int ivl = 0; ivl < nv_loc(); ++ivl) {
        const double j = gyro_j_(ivl, ic, itl);
        partial += upwind_w_[ivl] * j * j;
      }
      unorm_[idx] = partial;
    }
  }
  // compute_rhs and bracket coefficients. Each entry is the value the inline
  // Geometry/VelocityGrid calls produced, grouped the same way, so the
  // kernels that read them stay bit-identical.
  ky_.resize(static_cast<size_t>(input_.nt()));
  for (int t = 0; t < input_.nt(); ++t) ky_[t] = geometry_.ky(t);
  const size_t cells = static_cast<size_t>(input_.nc()) * nt_loc();
  rhs_kpar_.resize(cells);
  rhs_damp_.resize(cells);
  rhs_ky_.resize(cells);
  for (int ic = 0; ic < input_.nc(); ++ic) {
    const double kpar = geometry_.kpar(ic);
    for (int itl = 0; itl < nt_loc(); ++itl) {
      const size_t c = static_cast<size_t>(ic) * nt_loc() + itl;
      rhs_kpar_[c] = kpar;
      rhs_damp_[c] = input_.upwind * std::abs(kpar);
      rhs_ky_[c] = ky_[it_global(itl)];
    }
  }
  rhs_v_.resize(static_cast<size_t>(nv_loc()));
  for (int ivl = 0; ivl < nv_loc(); ++ivl) {
    const int iv = iv_global_[ivl];
    const int is = vgrid_->species_of(iv);
    const double e = vgrid_->energy(vgrid_->energy_of(iv));
    const double xi = vgrid_->xi(vgrid_->xi_of(iv));
    const double vpar = vgrid_->v_parallel(iv);
    rhs_v_[ivl] = {vpar, std::abs(vpar), e, 0.5 + 0.5 * xi * xi,
                   input_.species[is].a_ln_n +
                       input_.species[is].a_ln_t * (e - 1.5)};
  }
  if (input_.nonlinear) {
    const int nt = input_.nt();
    const int nc_pt = input_.nc() / decomp_.pt;
    nl_kx_.resize(static_cast<size_t>(nc_pt) * nt);
    for (int aa = 0; aa < nc_pt; ++aa) {
      const int ic = comms_.t.rank() * nc_pt + aa;
      for (int t = 0; t < nt; ++t) {
        nl_kx_[static_cast<size_t>(aa) * nt + t] = geometry_.kx(ic, t);
      }
    }
  }
  // Complete the upwind normalization across the velocity communicator.
  proc_->stage_for_comm(unorm_.size() * sizeof(double));
  comms_.nv.allreduce_sum(std::span<double>(unorm_));
  for (auto& v : unorm_) v = std::max(v, 1e-12);
}

void Simulation::build_cmat() {
  const int nv = input_.nv();
  // cmat depends on the cell only through k_perp², and the spectral geometry
  // makes many cells degenerate (ky = 0 rows, ±kx symmetry). Cells are
  // classified by their exact k_perp² bit pattern in a flat table: only the
  // first cell of each class pays the O(nv³) LU build, the rest copy its fp32
  // matrix bit-identically. Model mode only needs the class count.
  const bool real = mode_ == Mode::kReal;
  std::vector<int> copy_from(real ? static_cast<size_t>(n_coll_cells()) : 0);
  const int n_unique =
      classify_kperp2(geometry_, global_ic_of_coll_cell(0), nc_loc_coll(),
                      it_global(0), nt_loc(), copy_from);
  // cmat is constructed on the host (LU factorizations for the unique cells
  // only) and uploaded to the device once — the one big H2D transfer of a
  // CGYRO run. The charge uses the same unique-cell count in both modes, so
  // real and model timings stay in lockstep.
  const double scattering_flops = 6.0 * static_cast<double>(nv) * nv * nv;
  proc_->compute(scattering_flops +
                 static_cast<double>(n_unique) *
                     collision::CmatRecipe::build_flops_per_cell(nv));
  proc_->stage_upload(static_cast<std::uint64_t>(nv) * nv * n_coll_cells() *
                      sizeof(float));
  if (!real) {
    cmat_ = std::make_unique<collision::CollisionTensor>(nv, 0);
    return;
  }
  collision::CmatRecipe recipe;
  recipe.params = input_.collision;
  recipe.dt = input_.dt;
  const la::MatrixD scattering =
      collision::build_scattering_operator(*vgrid_, recipe.params);
  cmat_ = std::make_unique<collision::CollisionTensor>(nv, n_coll_cells());
  for (int cell = 0; cell < n_coll_cells(); ++cell) {
    if (copy_from[cell] >= 0) {
      cmat_->copy_cell(cell, copy_from[cell]);
    } else {
      const int a = cell / nt_loc();
      const double kperp2 = geometry_.kperp2(global_ic_of_coll_cell(a),
                                             it_global(cell % nt_loc()));
      cmat_->set_cell(cell, recipe.build_cell(*vgrid_, scattering, kperp2));
    }
  }
}

void Simulation::apply_initial_condition() {
  for (int ivl = 0; ivl < nv_loc(); ++ivl) {
    const int iv = iv_global_[ivl];
    for (int ic = 0; ic < input_.nc(); ++ic) {
      for (int itl = 0; itl < nt_loc(); ++itl) {
        h_(ivl, ic, itl) =
            init_value(input_.seed, iv, ic, it_global(itl), input_.amp0);
      }
    }
  }
}

void Simulation::field_solve(const tensor::Tensor3Z& h, bool upwind) {
  proc_->set_phase("str");
  const int nf = input_.n_field;
  proc_->kernel(static_cast<double>(state_elems()) * nf *
                compute_model_.field_partial_flops_per_elem);
  const size_t cells = static_cast<size_t>(input_.nc()) * nt_loc();
  if (mode_ == Mode::kReal) {
    // One sweep over h for every field slot and the upwind partial.
    detail::MomentSweep sweep;
    sweep.nv = static_cast<size_t>(nv_loc());
    sweep.cells = cells;
    sweep.n_field = static_cast<size_t>(nf);
    sweep.h = h.data().data();
    sweep.j = gyro_j_.data().data();
    sweep.field_w = field_w_.data();
    sweep.upwind_w = upwind ? upwind_w_.data() : nullptr;
    sweep.field = field_stack_.data();
    sweep.u = u_.data();
    detail::moment_sweep(sweep, kernel_isa());
  }
  proc_->set_phase("str_comm");
  {
    mpi::ScopedSpan span(*proc_, "field.allreduce");
    proc_->stage_for_comm(field_bytes() * nf);
    if (mode_ == Mode::kReal) {
      comms_.nv.allreduce_sum(std::span<cplx>(field_stack_));
    } else {
      comms_.nv.allreduce_virtual(field_bytes() * nf);
    }
  }
  proc_->set_phase("str");
  if (mode_ == Mode::kReal) {
    for (size_t i = 0; i < cells; ++i) field_stack_[i] /= denom_[i];
  }
}

void Simulation::upwind_solve() {
  // The partial was summed by field_solve's sweep; this charges its kernel
  // and completes it across the velocity communicator.
  proc_->set_phase("str");
  proc_->kernel(static_cast<double>(state_elems()) *
                compute_model_.field_partial_flops_per_elem);
  proc_->set_phase("str_comm");
  {
    mpi::ScopedSpan span(*proc_, "upwind.allreduce");
    proc_->stage_for_comm(field_bytes());
    if (mode_ == Mode::kReal) {
      comms_.nv.allreduce_sum(std::span<cplx>(u_));
    } else {
      comms_.nv.allreduce_virtual(field_bytes());
    }
  }
  proc_->set_phase("str");
  if (mode_ == Mode::kReal) {
    for (size_t i = 0; i < u_.size(); ++i) u_[i] /= unorm_[i];
  }
}

void Simulation::nonlinear_term(const tensor::Tensor3Z& h) {
  const int nt = input_.nt();
  const int nc_pt = input_.nc() / decomp_.pt;

  // Gather the full toroidal extent of φ across the t communicator.
  proc_->set_phase("nl_comm");
  const std::uint64_t phi_bytes = field_bytes();
  const std::uint64_t state_bytes = state_elems() * sizeof(cplx);
  {
    mpi::ScopedSpan span(*proc_, "nl.gather_phi");
    proc_->stage_for_comm(phi_bytes);
    if (mode_ == Mode::kReal) {
      comms_.t.allgather(
          std::span<const cplx>(field_stack_.data(),
                                static_cast<size_t>(input_.nc()) * nt_loc()),
          std::span<cplx>(nl_gather_));
      // nl_gather_ is blocked by source rank: block q holds φ(ic, q·nt_loc+itl).
      for (int q = 0; q < decomp_.pt; ++q) {
        const cplx* block =
            nl_gather_.data() + static_cast<size_t>(q) * input_.nc() * nt_loc();
        for (int ic = 0; ic < input_.nc(); ++ic) {
          for (int itl = 0; itl < nt_loc(); ++itl) {
            phi_full_t_[static_cast<size_t>(ic) * nt + q * nt_loc() + itl] =
                block[static_cast<size_t>(ic) * nt_loc() + itl];
          }
        }
      }
    } else {
      comms_.t.allgather_virtual(phi_bytes);
    }
  }

  // To the nl layout (full toroidal dimension per rank). At pt = 1 the
  // transpose is the identity: the bracket reads h where it lies, and only
  // the collective is issued, with the bytes and schedule of the real one.
  const bool permute = mode_ == Mode::kReal && decomp_.pt > 1;
  {
    mpi::ScopedSpan span(*proc_, "nl.transpose_to_nl");
    if (permute) {
      // Permute h(ivl, ic, itl) → (itl, ic, ivl), cell-major: each ic moves
      // one nv_loc × nt_loc block that stays in cache.
      for (int ic = 0; ic < input_.nc(); ++ic) {
        for (int ivl = 0; ivl < nv_loc(); ++ivl) {
          for (int itl = 0; itl < nt_loc(); ++itl) {
            nl_str_perm_(itl, ic, ivl) = h(ivl, ic, itl);
          }
        }
      }
      proc_->stage_for_comm(state_bytes);
      nl_transpose_->to_coll(comms_.t, nl_str_perm_, nl_layout_);
    } else {
      proc_->stage_for_comm(state_bytes);
      nl_transpose_->to_coll_virtual(comms_.t);
    }
  }

  // Pseudo-spectral toroidal bracket, one circular convolution pair per
  // (configuration cell, velocity point), batched per cell.
  proc_->set_phase("nl");
  {
    mpi::ScopedSpan span(*proc_, "nl.fft_bracket");
    proc_->kernel(static_cast<double>(state_elems()) *
                  (compute_model_.nl_flops_per_elem_base +
                   compute_model_.nl_fft_flops_per_log *
                       std::log2(static_cast<double>(std::max(2, nt)))));
    if (mode_ == Mode::kReal) {
      // pt = 1: h(ivl, ic, t) → nl_(ivl, ic, t), t contiguous. pt > 1: the
      // cell's (t, ivl) block of nl_layout_, in place, ivl contiguous.
      detail::BracketCell cell;
      cell.nt = static_cast<size_t>(nt);
      cell.nv = static_cast<size_t>(nv_loc());
      cell.plan = nl_plan_.get();
      cell.ky = ky_.data();
      cell.lines = nl_lines_.data();
      cell.phi_lines = nl_phi_lines_.data();
      cell.fft_scratch = nl_fft_scratch_;
      const Isa isa = kernel_isa();
      for (int aa = 0; aa < nc_pt; ++aa) {
        const int ic = comms_.t.rank() * nc_pt + aa;
        cell.kx = nl_kx_.data() + static_cast<size_t>(aa) * nt;
        cell.phi = phi_full_t_.data() + static_cast<size_t>(ic) * nt;
        if (permute) {
          cplx* block = &nl_layout_[0](aa, 0, 0);
          cell.src = block;
          cell.dst = block;
          cell.st = cell.nv;
          cell.sv = 1;
        } else {
          cell.src = &h(0, ic, 0);
          cell.dst = &nl_(0, ic, 0);
          cell.st = 1;
          cell.sv = static_cast<size_t>(input_.nc()) * nt;
        }
        detail::bracket_cell(cell, isa);
      }
    }
  }

  // Back to the streaming layout.
  proc_->set_phase("nl_comm");
  {
    mpi::ScopedSpan span(*proc_, "nl.transpose_to_str");
    proc_->stage_for_comm(state_bytes);
    if (permute) {
      nl_transpose_->to_str(comms_.t, nl_layout_, nl_str_perm_);
      for (int ic = 0; ic < input_.nc(); ++ic) {
        for (int ivl = 0; ivl < nv_loc(); ++ivl) {
          for (int itl = 0; itl < nt_loc(); ++itl) {
            nl_(ivl, ic, itl) = nl_str_perm_(itl, ic, ivl);
          }
        }
      }
    } else {
      nl_transpose_->to_str_virtual(comms_.t);
    }
  }
  proc_->set_phase("str");
}

void Simulation::compute_rhs(int stage, double b, double a) {
  proc_->set_phase("str");
  proc_->kernel(static_cast<double>(state_elems()) *
                compute_model_.rhs_flops_per_elem);
  if (mode_ != Mode::kReal) return;
  detail::RhsStage rhs;
  rhs.stage = stage;
  rhs.nonlinear = input_.nonlinear;
  rhs.nv = static_cast<size_t>(nv_loc());
  rhs.cells = static_cast<size_t>(input_.nc()) * nt_loc();
  rhs.b = b;
  rhs.a = a;
  rhs.vel = rhs_v_.data();
  rhs.kpar = rhs_kpar_.data();
  rhs.damp = rhs_damp_.data();
  rhs.ky = rhs_ky_.data();
  rhs.j = gyro_j_.data().data();
  rhs.phi = field_stack_.data();
  rhs.u = u_.data();
  rhs.nl = input_.nonlinear ? nl_.data().data() : nullptr;
  rhs.h = h_.data().data();
  rhs.stage_in = stage_.data().data();
  rhs.acc = acc_.data().data();
  detail::compute_rhs(rhs, kernel_isa());
}

void Simulation::rk4_step() {
  const double dt = input_.dt;
  // Classic RK4: acc_ = h + Σ b_s·k_s, and stage s+1 runs at h + a_s·k_s.
  // a[3] is unused: no stage follows the last.
  const double b[4] = {dt / 6.0, dt / 3.0, dt / 3.0, dt / 6.0};
  const double a[4] = {dt / 2.0, dt / 2.0, dt, 0.0};
  for (int s = 0; s < 4; ++s) {
    const tensor::Tensor3Z& x = s == 0 ? h_ : stage_;
    field_solve(x, /*upwind=*/true);
    upwind_solve();
    if (input_.nonlinear) nonlinear_term(x);
    compute_rhs(s, b[s], a[s]);
  }
  if (mode_ == Mode::kReal) std::swap(h_, acc_);
}

void Simulation::apply_collisions_range(int a_lo, int a_hi) {
  const int nv = input_.nv();
  const int k = comms_.n_sims_sharing;
  // Gather the k shared simulations' (a, ·, itl) slices into one contiguous
  // nv×k panel and apply the cell matrix to all of them in a single batched
  // GEMM — the cell's cmat is streamed once instead of k times. Per-element
  // accumulation order matches the scalar apply, so values are bit-exact
  // with the one-vector-at-a-time path.
  const size_t panel = static_cast<size_t>(nv) * k;
  std::span<cplx> x(coll_scratch_.data(), panel);
  std::span<cplx> y(coll_scratch_.data() + panel, panel);
  for (int a = a_lo; a < a_hi; ++a) {
    for (int itl = 0; itl < nt_loc(); ++itl) {
      for (int s = 0; s < k; ++s) {
        auto& state = coll_states_[s];
        for (int iv = 0; iv < nv; ++iv) {
          x[static_cast<size_t>(iv) * k + s] = state(a, iv, itl);
        }
      }
      cmat_->apply_batch(a * nt_loc() + itl, x, y, k);
      for (int s = 0; s < k; ++s) {
        auto& state = coll_states_[s];
        for (int iv = 0; iv < nv; ++iv) {
          state(a, iv, itl) = y[static_cast<size_t>(iv) * k + s];
        }
      }
    }
  }
}

void Simulation::collision_step() {
  proc_->set_phase("coll_comm");
  const std::uint64_t state_bytes = state_elems() * sizeof(cplx);
  proc_->stage_for_comm(state_bytes);

  const int chunks = coll_transpose_->clamp_chunks(input_.coll_pipeline_chunks);
  const double nv2_bytes =
      static_cast<double>(input_.nv()) * input_.nv() * sizeof(float);
  // Cost shape of the batched kernel: flops scale with sim-cells (every
  // shared simulation is a distinct right-hand side), but the cmat panel is
  // streamed once per *distinct* cell — sharing raises arithmetic intensity
  // by k, so memory traffic is charged per cell, not per sim-cell.
  if (chunks > 1) {
    // Pipelined: per-chunk collision kernels run while later chunks of the
    // transpose are still in flight (CGYRO-style overlap).
    const int a_per_chunk = nc_loc_coll() / chunks;
    const double chunk_distinct = static_cast<double>(a_per_chunk) * nt_loc();
    const double chunk_cells = chunk_distinct * comms_.n_sims_sharing;
    auto work = [&](int c) {
      proc_->set_phase("coll");
      mpi::ScopedSpan span(*proc_, "coll.apply");
      proc_->kernel(chunk_cells * cmat_->apply_flops(),
                    chunk_distinct * nv2_bytes);
      if (mode_ == Mode::kReal) {
        apply_collisions_range(c * a_per_chunk, (c + 1) * a_per_chunk);
      }
      proc_->set_phase("coll_comm");
    };
    mpi::ScopedSpan span(*proc_, "coll.transpose_pipelined");
    if (mode_ == Mode::kReal) {
      coll_transpose_->to_coll_pipelined(comms_.coll, h_, coll_states_, chunks,
                                         work);
    } else {
      coll_transpose_->to_coll_pipelined_virtual(comms_.coll, chunks, work);
    }
  } else {
    {
      mpi::ScopedSpan span(*proc_, "coll.transpose_to_coll");
      if (mode_ == Mode::kReal) {
        coll_transpose_->to_coll(comms_.coll, h_, coll_states_);
      } else {
        coll_transpose_->to_coll_virtual(comms_.coll);
      }
    }
    proc_->set_phase("coll");
    mpi::ScopedSpan span(*proc_, "coll.apply");
    const double distinct = static_cast<double>(n_coll_cells());
    const double cells = distinct * comms_.n_sims_sharing;
    proc_->kernel(cells * cmat_->apply_flops(), distinct * nv2_bytes);
    if (mode_ == Mode::kReal) apply_collisions_range(0, nc_loc_coll());
  }

  proc_->set_phase("coll_comm");
  {
    mpi::ScopedSpan span(*proc_, "coll.transpose_to_str");
    proc_->stage_for_comm(state_bytes);
    if (mode_ == Mode::kReal) {
      coll_transpose_->to_str(comms_.coll, coll_states_, h_);
    } else {
      coll_transpose_->to_str_virtual(comms_.coll);
    }
  }
  proc_->set_phase("str");
}

void Simulation::step() {
  rk4_step();
  collision_step();
  ++steps_;
}

Diagnostics Simulation::advance_report_interval() {
  mpi::ScopedSpan span(*proc_, "report_interval");
  for (int s = 0; s < input_.n_steps_per_report; ++s) step();
  return diagnostics();
}

Diagnostics Simulation::diagnostics() {
  Diagnostics d;
  d.steps = steps_;
  d.time = steps_ * input_.dt;
  field_solve(h_, /*upwind=*/false);
  proc_->set_phase("report");
  if (mode_ == Mode::kReal) {
    // Count each (ic, it) cell once: φ is replicated across the nv comm.
    double sums[3] = {0.0, 0.0, 0.0};
    if (comms_.nv.rank() == 0) {
      for (int ic = 0; ic < input_.nc(); ++ic) {
        for (int itl = 0; itl < nt_loc(); ++itl) {
          const double p2 =
              std::norm(field_stack_[static_cast<size_t>(ic) * nt_loc() + itl]);
          sums[0] += p2;
          sums[1] += geometry_.ky(it_global(itl)) * p2;
        }
      }
    }
    // Free energy: every rank owns a disjoint slice of h.
    for (int ivl = 0; ivl < nv_loc(); ++ivl) {
      const double w = vgrid_->weight(iv_global_[ivl]);
      for (int ic = 0; ic < input_.nc(); ++ic) {
        for (int itl = 0; itl < nt_loc(); ++itl) {
          sums[2] += w * std::norm(h_(ivl, ic, itl));
        }
      }
    }
    comms_.sim.allreduce_sum(std::span<double>(sums, 3));
    d.phi_rms = std::sqrt(sums[0] / (static_cast<double>(input_.nc()) * input_.nt()));
    d.flux_proxy = sums[1];
    d.free_energy = sums[2];
  } else {
    comms_.sim.allreduce_virtual(3 * sizeof(double));
  }
  proc_->set_phase("str");
  return d;
}

std::vector<double> Simulation::phi_spectrum() {
  XG_REQUIRE(mode_ == Mode::kReal, "phi_spectrum requires real mode");
  field_solve(h_, /*upwind=*/false);
  proc_->set_phase("report");
  std::vector<double> spectrum(static_cast<size_t>(input_.nt()), 0.0);
  // φ is replicated across the nv communicator; count each cell once.
  if (comms_.nv.rank() == 0) {
    for (int ic = 0; ic < input_.nc(); ++ic) {
      for (int itl = 0; itl < nt_loc(); ++itl) {
        spectrum[it_global(itl)] +=
            std::norm(field_stack_[static_cast<size_t>(ic) * nt_loc() + itl]);
      }
    }
  }
  comms_.sim.allreduce_sum(std::span<double>(spectrum));
  proc_->set_phase("str");
  return spectrum;
}

std::uint64_t Simulation::state_hash() {
  XG_REQUIRE(mode_ == Mode::kReal, "state_hash requires real mode");
  std::uint64_t local = 0;
  for (int ivl = 0; ivl < nv_loc(); ++ivl) {
    const int iv = iv_global_[ivl];
    for (int ic = 0; ic < input_.nc(); ++ic) {
      for (int itl = 0; itl < nt_loc(); ++itl) {
        local += element_hash(iv, ic, it_global(itl), h_(ivl, ic, itl));
      }
    }
  }
  std::uint64_t buf[1] = {local};
  comms_.sim.allreduce(std::span<std::uint64_t>(buf, 1),
                       [](std::uint64_t a, std::uint64_t b) { return a + b; });
  return buf[0];
}

cluster::MemoryInventory Simulation::memory_inventory() const {
  return memory_inventory(input_, decomp_, comms_.n_sims_sharing);
}

cluster::MemoryInventory Simulation::memory_inventory(const Input& input,
                                                      const Decomposition& d,
                                                      int k) {
  const double nv_loc = static_cast<double>(input.nv()) / d.pv;
  const double nt_loc = static_cast<double>(input.nt()) / d.pt;
  const double state = nv_loc * input.nc() * nt_loc * sizeof(cplx);
  const double field = static_cast<double>(input.nc()) * nt_loc;

  cluster::MemoryInventory inv;
  inv.add("h_state", state, "distribution function, str layout");
  inv.add("rk_workspace", 3 * state, "RK4 stage/accumulator buffers");
  inv.add("gyroavg_table", state / 2, "gyroaverage factors (fp64 real)");
  inv.add("fields", field * (16.0 * input.n_field + 16 + 8 + 8),
          "field stack, upwind, denominators");
  inv.add("transpose_staging", 2 * state, "AllToAll pack/unpack");
  inv.add("coll_state", state, "collision-layout state (all shared sims)");
  if (input.nonlinear) {
    inv.add("nl_workspace", 2 * state + field * input.nt() / nt_loc * 16,
            "bracket buffers + gathered phi");
  }
  const double cells =
      static_cast<double>(input.nc()) / (d.pv * k) * nt_loc;
  inv.add("cmat",
          static_cast<double>(input.nv()) * input.nv() * cells * sizeof(float),
          k > 1 ? "collisional constant tensor (ensemble-shared)"
                : "collisional constant tensor");
  inv.add("runtime_fixed", 64e6, "solver runtime, grids, comm buffers");
  return inv;
}

std::string format_timing(const mpi::RunResult& result,
                          const std::vector<std::string>& phases) {
  std::string out = strprintf("%-12s %12s %12s %12s\n", "phase", "comm_max",
                              "compute_max", "total_max");
  double tot_comm = 0, tot_compute = 0;
  for (const auto& phase : phases) {
    double comm = 0, compute = 0, total = 0;
    for (const auto& r : result.ranks) {
      const auto it = r.phases.find(phase);
      if (it == r.phases.end()) continue;
      comm = std::max(comm, it->second.comm_s);
      compute = std::max(compute, it->second.compute_s);
      total = std::max(total, it->second.comm_s + it->second.compute_s);
    }
    tot_comm += comm;
    tot_compute += compute;
    out += strprintf("%-12s %12.4f %12.4f %12.4f\n", phase.c_str(), comm,
                     compute, total);
  }
  out += strprintf("%-12s %12.4f %12.4f %12.4f\n", "SUM", tot_comm, tot_compute,
                   tot_comm + tot_compute);
  out += strprintf("%-12s %38.4f\n", "MAKESPAN", result.makespan_s);
  return out;
}

}  // namespace xg::gyro
