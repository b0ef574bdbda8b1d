#include "fft/fft.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "util/error.hpp"

namespace xg::fft {

namespace {

constexpr double kPi = std::numbers::pi;

/// One split-layout butterfly across `lines` lines: v ← v·w, then
/// (u, v) ← (u + v, u − v). The product is expanded as (ac − bd, ad + bc),
/// the operations std::complex performs, so each line matches the
/// single-line butterfly bit for bit.
[[gnu::always_inline]] inline void butterfly_lines(
    double* __restrict ur, double* __restrict ui, double* __restrict vr,
    double* __restrict vi, size_t lines, double wr, double wi) {
  for (size_t l = 0; l < lines; ++l) {
    const double tr = vr[l] * wr - vi[l] * wi;
    const double ti = vr[l] * wi + vi[l] * wr;
    const double a = ur[l];
    const double b = ui[l];
    ur[l] = a + tr;
    ui[l] = b + ti;
    vr[l] = a - tr;
    vi[l] = b - ti;
  }
}

/// Tables of one power-of-two transform length: the bit-reversal swap list
/// and the twiddles e^{∓2πi k/len}, k < len/2, for both directions (the
/// inverse ones are the exact conjugates of the forward ones).
struct Radix2 {
  size_t n = 0;
  std::vector<std::pair<size_t, size_t>> swaps;  // (i, j) with i < j
  std::vector<cplx> fwd, inv;

  explicit Radix2(size_t len) : n(len) {
    for (size_t i = 1, j = 0; i < n; ++i) {
      size_t bit = n >> 1;
      for (; j & bit; bit >>= 1) j ^= bit;
      j ^= bit;
      if (i < j) swaps.emplace_back(i, j);
    }
    fwd.resize(n / 2);
    inv.resize(n / 2);
    for (size_t k = 0; k < n / 2; ++k) {
      fwd[k] = std::polar(1.0, -2.0 * kPi * double(k) / double(n));
      inv[k] = std::conj(fwd[k]);
    }
  }

  /// Unnormalized in-place transform of one line.
  void run(cplx* a, bool inverse) const {
    for (const auto& [i, j] : swaps) std::swap(a[i], a[j]);
    const cplx* tw = inverse ? inv.data() : fwd.data();
    for (size_t len = 2; len <= n; len <<= 1) {
      const size_t half = len / 2;
      const size_t step = n / len;
      for (size_t i = 0; i < n; i += len) {
        for (size_t k = 0; k < half; ++k) {
          const cplx u = a[i + k];
          const cplx v = a[i + k + half] * tw[k * step];
          a[i + k] = u + v;
          a[i + k + half] = u - v;
        }
      }
    }
  }

  /// Unnormalized in-place transform of `lines` split-layout lines: the
  /// bit-reversal swaps, then the butterflies. Part of the dispatched lines
  /// body (Plan::Impl::lines_body).
  [[gnu::always_inline]] void run_lines(double* re, double* im, size_t lines,
                                        bool inverse) const {
    for (const auto& [i, j] : swaps) {
      double* ri = re + i * lines;
      double* rj = re + j * lines;
      double* ii = im + i * lines;
      double* ij = im + j * lines;
      for (size_t l = 0; l < lines; ++l) {
        const double r = ri[l], m = ii[l];
        ri[l] = rj[l];
        ii[l] = ij[l];
        rj[l] = r;
        ij[l] = m;
      }
    }
    const cplx* tw = inverse ? inv.data() : fwd.data();
    for (size_t len = 2; len <= n; len <<= 1) {
      const size_t half = len / 2;
      const size_t step = n / len;
      for (size_t i = 0; i < n; i += len) {
        for (size_t k = 0; k < half; ++k) {
          const size_t u = (i + k) * lines;
          const size_t v = (i + k + half) * lines;
          butterfly_lines(re + u, im + u, re + v, im + v, lines,
                          tw[k * step].real(), tw[k * step].imag());
        }
      }
    }
  }
};

}  // namespace

bool is_pow2(size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

size_t next_pow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

struct Plan::Impl {
  size_t n = 0;
  // Bluestein path (m == 0 when n is a power of two).
  size_t m = 0;                     // padded pow2 length >= 2n-1
  std::vector<cplx> chirp;          // e^{-πi k²/n}, k < n
  std::vector<cplx> chirp_fft;      // FFT of the padded conjugate chirp
  // Radix-2 tables of length n, or of length m for Bluestein.
  Radix2 radix;

  explicit Impl(size_t n_in)
      : n(n_in), m(bluestein_length(n_in)), radix(m == 0 ? n_in : m) {
    if (m == 0) return;
    chirp.resize(n);
    for (size_t k = 0; k < n; ++k) {
      // k² mod 2n keeps the argument bounded for large k.
      const double phase = -kPi * double((k * k) % (2 * n)) / double(n);
      chirp[k] = std::polar(1.0, phase);
    }
    std::vector<cplx> b(m, cplx{});
    b[0] = std::conj(chirp[0]);
    for (size_t k = 1; k < n; ++k) {
      b[k] = std::conj(chirp[k]);
      b[m - k] = std::conj(chirp[k]);
    }
    radix.run(b.data(), /*inverse=*/false);
    chirp_fft = std::move(b);
  }

  static size_t bluestein_length(size_t n) {
    XG_REQUIRE(n >= 1, "FFT plan length must be >= 1");
    return is_pow2(n) ? 0 : next_pow2(2 * n - 1);
  }

  void transform(std::span<cplx> a, bool inv) const {
    XG_ASSERT(a.size() == n);
    if (n == 1) return;
    if (m == 0) {
      radix.run(a.data(), inv);
    } else {
      bluestein(a, inv);
    }
    if (inv) {
      const double scale = 1.0 / double(n);
      for (auto& v : a) v *= scale;
    }
  }

  /// The batched transform at `isa` on the caller's Bluestein scratch (two
  /// m·lines arrays).
  void transform_lines(std::span<double> re, std::span<double> im,
                       size_t lines, bool inv, Isa isa,
                       std::span<double> scratch) const {
    XG_REQUIRE(re.size() == n * lines && im.size() == n * lines,
               "FFT lines: re/im must each hold n*lines values");
    XG_REQUIRE(scratch.size() >= 2 * m * lines,
               "FFT lines: scratch must hold 2*m*lines values");
    if (n == 1) return;
    double* tr = scratch.data();
    double* ti = tr + m * lines;
    if (isa == Isa::kAvx2) {
      lines_avx2(re.data(), im.data(), lines, inv, tr, ti);
    } else {
      lines_baseline(re.data(), im.data(), lines, inv, tr, ti);
    }
  }

  void lines_baseline(double* re, double* im, size_t lines, bool inv,
                      double* tr, double* ti) const {
    lines_body(re, im, lines, inv, tr, ti);
  }
  XG_TARGET_AVX2 void lines_avx2(double* re, double* im, size_t lines,
                                 bool inv, double* tr, double* ti) const {
    lines_body(re, im, lines, inv, tr, ti);
  }

  /// The dispatched lines kernel: the radix-2 or Bluestein transform of
  /// `lines` split-layout lines, then the inverse's 1/n scale. tr/ti are
  /// the Bluestein scratch (m·lines each; unused when m == 0).
  [[gnu::always_inline]] void lines_body(double* re, double* im, size_t lines,
                                         bool inv, double* tr,
                                         double* ti) const {
    if (m == 0) {
      radix.run_lines(re, im, lines, inv);
    } else {
      bluestein_lines(re, im, lines, inv, tr, ti);
    }
    if (inv) {
      const double scale = 1.0 / double(n);
      for (size_t i = 0; i < n * lines; ++i) re[i] *= scale;
      for (size_t i = 0; i < n * lines; ++i) im[i] *= scale;
    }
  }

  void bluestein(std::span<cplx> a, bool inv) const {
    // x[k] * chirp[k], zero-padded to m; convolve with conj-chirp; multiply
    // by chirp again. Inverse transform = conjugate trick.
    std::vector<cplx> t(m, cplx{});
    for (size_t k = 0; k < n; ++k) {
      const cplx xk = inv ? std::conj(a[k]) : a[k];
      t[k] = xk * chirp[k];
    }
    radix.run(t.data(), /*inverse=*/false);
    for (size_t k = 0; k < m; ++k) t[k] *= chirp_fft[k];
    radix.run(t.data(), /*inverse=*/true);
    const double scale = 1.0 / double(m);
    for (size_t k = 0; k < n; ++k) {
      cplx yk = t[k] * scale * chirp[k];
      a[k] = inv ? std::conj(yk) : yk;
    }
  }

  /// bluestein() on split-layout lines, step for step: every complex
  /// product expanded as (ac − bd, ad + bc), the conjugations as sign flips
  /// of the imaginary part. tr/ti: m·lines values each, whatever a previous
  /// call left there; the zero padding past the n chirped rows is set here.
  [[gnu::always_inline]] void bluestein_lines(double* re, double* im,
                                              size_t lines, bool inv,
                                              double* tr, double* ti) const {
    std::fill(tr + n * lines, tr + m * lines, 0.0);
    std::fill(ti + n * lines, ti + m * lines, 0.0);
    for (size_t k = 0; k < n; ++k) {
      const double cr = chirp[k].real(), ci = chirp[k].imag();
      for (size_t l = 0; l < lines; ++l) {
        const double xr = re[k * lines + l];
        const double xi = inv ? -im[k * lines + l] : im[k * lines + l];
        tr[k * lines + l] = xr * cr - xi * ci;
        ti[k * lines + l] = xr * ci + xi * cr;
      }
    }
    radix.run_lines(tr, ti, lines, /*inverse=*/false);
    for (size_t k = 0; k < m; ++k) {
      const double fr = chirp_fft[k].real(), fi = chirp_fft[k].imag();
      for (size_t l = 0; l < lines; ++l) {
        const double xr = tr[k * lines + l];
        const double xi = ti[k * lines + l];
        tr[k * lines + l] = xr * fr - xi * fi;
        ti[k * lines + l] = xr * fi + xi * fr;
      }
    }
    radix.run_lines(tr, ti, lines, /*inverse=*/true);
    const double scale = 1.0 / double(m);
    for (size_t k = 0; k < n; ++k) {
      const double cr = chirp[k].real(), ci = chirp[k].imag();
      for (size_t l = 0; l < lines; ++l) {
        const double xr = tr[k * lines + l] * scale;
        const double xi = ti[k * lines + l] * scale;
        const double yi = xr * ci + xi * cr;
        re[k * lines + l] = xr * cr - xi * ci;
        im[k * lines + l] = inv ? -yi : yi;
      }
    }
  }
};

Plan::Plan(size_t n) : impl_(std::make_unique<Impl>(n)) {}
Plan::~Plan() = default;
Plan::Plan(Plan&&) noexcept = default;
Plan& Plan::operator=(Plan&&) noexcept = default;

size_t Plan::size() const { return impl_->n; }

void Plan::forward(std::span<cplx> data) const { impl_->transform(data, false); }
void Plan::inverse(std::span<cplx> data) const { impl_->transform(data, true); }

void Plan::forward_lines(std::span<double> re, std::span<double> im,
                         size_t lines) const {
  std::vector<double> scratch(detail::lines_scratch_size(*this, lines));
  impl_->transform_lines(re, im, lines, false, kernel_isa(), scratch);
}
void Plan::inverse_lines(std::span<double> re, std::span<double> im,
                         size_t lines) const {
  std::vector<double> scratch(detail::lines_scratch_size(*this, lines));
  impl_->transform_lines(re, im, lines, true, kernel_isa(), scratch);
}

size_t detail::lines_scratch_size(const Plan& plan, size_t lines) {
  return 2 * plan.impl_->m * lines;
}

void detail::transform_lines(const Plan& plan, std::span<double> re,
                             std::span<double> im, size_t lines, bool inverse,
                             Isa isa, std::span<double> scratch) {
  plan.impl_->transform_lines(re, im, lines, inverse, isa, scratch);
}

void forward(std::span<cplx> data) { Plan(data.size()).forward(data); }
void inverse(std::span<cplx> data) { Plan(data.size()).inverse(data); }

std::vector<cplx> dft_reference(std::span<const cplx> x, bool inverse_transform) {
  const size_t n = x.size();
  std::vector<cplx> out(n, cplx{});
  const double sign = inverse_transform ? 1.0 : -1.0;
  for (size_t k = 0; k < n; ++k) {
    cplx acc{};
    for (size_t j = 0; j < n; ++j) {
      const double phase = sign * 2.0 * kPi * double((j * k) % n) / double(n);
      acc += x[j] * std::polar(1.0, phase);
    }
    out[k] = inverse_transform ? acc / double(n) : acc;
  }
  return out;
}

std::vector<cplx> circular_convolution(std::span<const cplx> a,
                                       std::span<const cplx> b) {
  XG_REQUIRE(a.size() == b.size(), "circular_convolution: length mismatch");
  const size_t n = a.size();
  Plan plan(n);
  std::vector<cplx> fa(a.begin(), a.end());
  std::vector<cplx> fb(b.begin(), b.end());
  plan.forward(fa);
  plan.forward(fb);
  for (size_t k = 0; k < n; ++k) fa[k] *= fb[k];
  plan.inverse(fa);
  return fa;
}

}  // namespace xg::fft
