#include "gyro/kernels.hpp"

#include <algorithm>

namespace xg::gyro::detail {

namespace {

// Complex arrays are read as interleaved doubles (re at 2i, im at 2i + 1),
// which std::complex guarantees; the vectorizer handles the pairs.
inline const double* re_im(const cplx* p) {
  return reinterpret_cast<const double*>(p);
}
inline double* re_im(cplx* p) { return reinterpret_cast<double*>(p); }

// ---------------------------------------------------------------------------
// Moment sweep: velocity outer and cell inner, so each (ivl) row of h and j
// is read from memory once and feeds every accumulator. Each term is the
// complex expression w·j·h, i.e. (w·j)·h componentwise.

/// acc += (w·j)·h over one velocity row (restrict: see rhs_row). w·j is
/// first stored twice per cell in a block buffer, so the accumulation is a
/// plain stream over interleaved doubles; on the direct form GCC splits
/// every complex array into re and im vectors and back, and the AVX2 clone
/// ran slower than the baseline one.
[[gnu::always_inline]] inline void moment_row(size_t cells, double w,
                                              const double* __restrict jv,
                                              const double* __restrict hv,
                                              double* __restrict acc) {
  constexpr size_t kBlock = 64;
  double wj[2 * kBlock];
  for (size_t c0 = 0; c0 < cells; c0 += kBlock) {
    const size_t nb = std::min(kBlock, cells - c0);
    for (size_t i = 0; i < nb; ++i) {
      const double p = w * jv[c0 + i];
      wj[2 * i] = p;
      wj[2 * i + 1] = p;
    }
    double* __restrict a = acc + 2 * c0;
    const double* __restrict x = hv + 2 * c0;
    for (size_t k = 0; k < 2 * nb; ++k) a[k] += wj[k] * x[k];
  }
}

[[gnu::always_inline]] inline void moment_body(const MomentSweep& s) {
  const size_t cells = s.cells;
  std::fill(s.field, s.field + s.n_field * cells, cplx{});
  if (s.upwind_w) std::fill(s.u, s.u + cells, cplx{});
  for (size_t ivl = 0; ivl < s.nv; ++ivl) {
    const double* hv = re_im(s.h + ivl * cells);
    const double* jv = s.j + ivl * cells;
    for (size_t f = 0; f < s.n_field; ++f) {
      moment_row(cells, s.field_w[f * s.nv + ivl], jv, hv,
                 re_im(s.field + f * cells));
    }
    if (s.upwind_w) moment_row(cells, s.upwind_w[ivl], jv, hv, re_im(s.u));
  }
}

void moment_baseline(const MomentSweep& s) { moment_body(s); }
XG_TARGET_AVX2 void moment_avx2(const MomentSweep& s) { moment_body(s); }

// ---------------------------------------------------------------------------
// Bracket. Split-layout lines (element (t, line) at t·lines + line): p =
// iky·φ and q = ikx·φ as 2 lines, b = ikx·h and d = iky·h as nv lines each:
// the two φ lines are transformed once, the h lines of all velocities
// together. Every complex product is expanded as (ac − bd, ad + bc), the
// 0·x terms of the (0, k) multipliers included, so each line sees the
// floating-point operations of the single-line std::complex bracket and the
// result is bit-identical to it. The FFTs run at the bracket's ISA.

[[gnu::always_inline]] inline void bracket_body(const BracketCell& c,
                                                Isa isa) {
  const size_t n = c.nt;
  const size_t nv = c.nv;
  const size_t len = n * nv;
  double* br = c.lines;
  double* bi = br + len;
  double* dr = bi + len;
  double* di = dr + len;
  double* pqr = c.phi_lines;
  double* pqi = pqr + 2 * n;
  const double* kx = c.kx;
  const double* ky = c.ky;
  for (size_t t = 0; t < n; ++t) {
    const double fr = c.phi[t].real();
    const double fi = c.phi[t].imag();
    pqr[2 * t] = 0.0 * fr - ky[t] * fi;
    pqi[2 * t] = 0.0 * fi + ky[t] * fr;
    pqr[2 * t + 1] = 0.0 * fr - kx[t] * fi;
    pqi[2 * t + 1] = 0.0 * fi + kx[t] * fr;
  }
  // Velocity outer: at pt = 1 each source line is nt contiguous elements.
  for (size_t v = 0; v < nv; ++v) {
    const cplx* line = c.src + v * c.sv;
    for (size_t t = 0; t < n; ++t) {
      const double hr = line[t * c.st].real();
      const double hi = line[t * c.st].imag();
      br[t * nv + v] = 0.0 * hr - kx[t] * hi;
      bi[t * nv + v] = 0.0 * hi + kx[t] * hr;
      dr[t * nv + v] = 0.0 * hr - ky[t] * hi;
      di[t * nv + v] = 0.0 * hi + ky[t] * hr;
    }
  }
  fft::detail::transform_lines(*c.plan, {pqr, 2 * n}, {pqi, 2 * n}, 2,
                               /*inverse=*/false, isa, c.fft_scratch);
  fft::detail::transform_lines(*c.plan, {br, len}, {bi, len}, nv,
                               /*inverse=*/false, isa, c.fft_scratch);
  fft::detail::transform_lines(*c.plan, {dr, len}, {di, len}, nv,
                               /*inverse=*/false, isa, c.fft_scratch);
  // b ← p·b − q·d, two products then one subtraction.
  for (size_t t = 0; t < n; ++t) {
    const double p_r = pqr[2 * t], p_i = pqi[2 * t];
    const double q_r = pqr[2 * t + 1], q_i = pqi[2 * t + 1];
    double* __restrict brt = br + t * nv;
    double* __restrict bit = bi + t * nv;
    const double* __restrict drt = dr + t * nv;
    const double* __restrict dit = di + t * nv;
    for (size_t v = 0; v < nv; ++v) {
      const double xr = p_r * brt[v] - p_i * bit[v];
      const double xi = p_r * bit[v] + p_i * brt[v];
      const double yr = q_r * drt[v] - q_i * dit[v];
      const double yi = q_r * dit[v] + q_i * drt[v];
      brt[v] = xr - yr;
      bit[v] = xi - yi;
    }
  }
  fft::detail::transform_lines(*c.plan, {br, len}, {bi, len}, nv,
                               /*inverse=*/true, isa, c.fft_scratch);
  for (size_t v = 0; v < nv; ++v) {
    cplx* line = c.dst + v * c.sv;
    for (size_t t = 0; t < n; ++t) {
      line[t * c.st] = cplx(br[t * nv + v], bi[t * nv + v]);
    }
  }
}

void bracket_baseline(const BracketCell& c) {
  bracket_body(c, Isa::kBaseline);
}
XG_TARGET_AVX2 void bracket_avx2(const BracketCell& c) {
  bracket_body(c, Isa::kAvx2);
}

// ---------------------------------------------------------------------------
// RHS + RK4 update: one flat loop per velocity row over every cell, one
// instantiation per stage shape and linearity, so the loop has no branch.
// The stage input is read (and, in place, written) through one pointer.
// r's complex products are expanded as (ac − bd, ad + bc), 0·x terms kept,
// and summed in the std::complex order; the update has the complex
// operations of an axpy over a stored r (acc + b·r, h + a·r).

enum class Shape { kFirst, kMiddle, kLast };  // stage 0, 1..2, 3

/// One velocity row. The restrict parameters (kept through inlining) tell
/// the vectorizer that no two arrays overlap; x is the stage input, read and
/// written through this one pointer.
template <Shape S, bool NL>
[[gnu::always_inline]] inline void rhs_row(
    size_t cells, const RhsVelocity& v, double b, double a,
    const double* __restrict kpar, const double* __restrict damp,
    const double* __restrict ky, const double* __restrict jv,
    const double* __restrict f, const double* __restrict u,
    const double* __restrict nl, const double* __restrict h,
    double* __restrict x, double* __restrict acc) {
  const double vpar = v.vpar, abs_vpar = v.abs_vpar, e = v.e;
  const double pitch = v.pitch, drive = v.drive;
  for (size_t i = 0; i < cells; ++i) {
    const double omega = kpar[i] * vpar + 0.4 * ky[i] * e * pitch;
    const double j = jv[i];
    const double hr = S == Shape::kFirst ? h[2 * i] : x[2 * i];
    const double hi = S == Shape::kFirst ? h[2 * i + 1] : x[2 * i + 1];
    const double fr = f[2 * i];
    const double fi = f[2 * i + 1];
    const double ur = u[2 * i];
    const double ui = u[2 * i + 1];
    const double w = -omega;
    const double g = ky[i] * j * drive;
    double rr = ((0.0 * hr - w * hi) + (0.0 * fr - g * fi)) -
                damp[i] * (abs_vpar * hr - j * ur);
    double ri = ((0.0 * hi + w * hr) + (0.0 * fi + g * fr)) -
                damp[i] * (abs_vpar * hi - j * ui);
    if constexpr (NL) {
      rr += nl[2 * i];
      ri += nl[2 * i + 1];
    }
    if constexpr (S == Shape::kFirst) {
      acc[2 * i] = h[2 * i] + b * rr;
      acc[2 * i + 1] = h[2 * i + 1] + b * ri;
    } else {
      acc[2 * i] = acc[2 * i] + b * rr;
      acc[2 * i + 1] = acc[2 * i + 1] + b * ri;
    }
    if constexpr (S != Shape::kLast) {
      x[2 * i] = h[2 * i] + a * rr;
      x[2 * i + 1] = h[2 * i + 1] + a * ri;
    }
  }
}

template <Shape S, bool NL>
[[gnu::always_inline]] inline void rhs_body(const RhsStage& s) {
  for (size_t ivl = 0; ivl < s.nv; ++ivl) {
    const size_t row = ivl * s.cells;
    rhs_row<S, NL>(s.cells, s.vel[ivl], s.b, s.a, s.kpar, s.damp, s.ky,
                   s.j + row, re_im(s.phi), re_im(s.u),
                   NL ? re_im(s.nl + row) : nullptr, re_im(s.h + row),
                   re_im(s.stage_in + row), re_im(s.acc + row));
  }
}

template <Shape S, bool NL>
void rhs_baseline(const RhsStage& s) {
  rhs_body<S, NL>(s);
}
template <Shape S, bool NL>
XG_TARGET_AVX2 void rhs_avx2(const RhsStage& s) {
  rhs_body<S, NL>(s);
}

using RhsFn = void (*)(const RhsStage&);

/// [isa][shape][nonlinear]
constexpr RhsFn kRhs[2][3][2] = {
    {{rhs_baseline<Shape::kFirst, false>, rhs_baseline<Shape::kFirst, true>},
     {rhs_baseline<Shape::kMiddle, false>, rhs_baseline<Shape::kMiddle, true>},
     {rhs_baseline<Shape::kLast, false>, rhs_baseline<Shape::kLast, true>}},
    {{rhs_avx2<Shape::kFirst, false>, rhs_avx2<Shape::kFirst, true>},
     {rhs_avx2<Shape::kMiddle, false>, rhs_avx2<Shape::kMiddle, true>},
     {rhs_avx2<Shape::kLast, false>, rhs_avx2<Shape::kLast, true>}},
};

}  // namespace

void moment_sweep(const MomentSweep& s, Isa isa) {
  if (isa == Isa::kAvx2) {
    moment_avx2(s);
  } else {
    moment_baseline(s);
  }
}

void bracket_cell(const BracketCell& c, Isa isa) {
  if (isa == Isa::kAvx2) {
    bracket_avx2(c);
  } else {
    bracket_baseline(c);
  }
}

void compute_rhs(const RhsStage& s, Isa isa) {
  const int shape = s.stage == 0 ? 0 : s.stage < 3 ? 1 : 2;
  kRhs[isa == Isa::kAvx2][shape][s.nonlinear](s);
}

}  // namespace xg::gyro::detail
