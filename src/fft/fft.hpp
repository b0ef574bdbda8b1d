// Complex FFT: iterative radix-2 Cooley–Tukey for power-of-two sizes and
// Bluestein's algorithm for arbitrary sizes.
//
// CGYRO evaluates the E×B nonlinear bracket pseudo-spectrally; the `nl`
// phase transforms along the toroidal dimension. Our `gyro` solver does the
// same through this module. Plans precompute the bit-reversal swap list and
// the forward and inverse twiddle tables once, so repeated transforms of the
// same length (every RK stage, every cell) are cheap.
//
// Two entry points share those tables. forward()/inverse() transform one
// interleaved std::complex line. forward_lines()/inverse_lines() transform
// many lines at once, stored split (separate real and imaginary arrays) and
// interleaved across lines: element t of line l sits at index t·lines + l.
// Each butterfly then runs as one loop over the lines, which the compiler
// vectorizes, the way pseudo-spectral codes batch their FFTs across the
// velocity dimension. Every line of a batch goes through exactly the
// floating-point operations of a single-line call, so the two are
// bit-identical. The batched kernel (bit reversal, butterflies, Bluestein
// chirps, inverse scale) is dispatched at run time to an AVX2 clone where
// the CPU has it (util/cpu.hpp); both clones give the same bits.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <vector>

#include "util/cpu.hpp"

namespace xg::fft {

using cplx = std::complex<double>;

class Plan;

namespace detail {
/// Doubles of scratch a batch of `lines` lines needs (2·m·lines for a
/// Bluestein plan of padded length m; 0 at a power-of-two length).
size_t lines_scratch_size(const Plan& plan, size_t lines);

/// Plan::forward_lines (inverse = false) or inverse_lines at `isa`, which
/// those run at kernel_isa(), on the caller's `scratch` of at least
/// lines_scratch_size(plan, lines) doubles, so a warm call never allocates.
/// Both ISAs give identical bits; this seam lets the tests compare them.
void transform_lines(const Plan& plan, std::span<double> re,
                     std::span<double> im, size_t lines, bool inverse,
                     Isa isa, std::span<double> scratch);
}  // namespace detail

/// True if n is a power of two (n >= 1).
bool is_pow2(size_t n);

/// Smallest power of two >= n.
size_t next_pow2(size_t n);

/// Precomputed plan for length-n complex transforms (any n >= 1), single
/// lines or split-layout batches of lines.
/// Thread-compatible: const methods are safe to call concurrently.
class Plan {
 public:
  explicit Plan(size_t n);
  ~Plan();
  Plan(Plan&&) noexcept;
  Plan& operator=(Plan&&) noexcept;
  Plan(const Plan&) = delete;
  Plan& operator=(const Plan&) = delete;

  [[nodiscard]] size_t size() const;

  /// In-place forward DFT: X[k] = sum_j x[j] e^{-2πi jk/n}.
  void forward(std::span<cplx> data) const;

  /// In-place inverse DFT, normalized by 1/n (forward∘inverse == identity).
  void inverse(std::span<cplx> data) const;

  /// In-place forward DFT of `lines` lines in the split layout: re/im each
  /// hold n·lines values, element t of line l at index t·lines + l. Every
  /// line's result equals forward() on that line, bit for bit.
  void forward_lines(std::span<double> re, std::span<double> im,
                     size_t lines) const;

  /// Batched counterpart of inverse() (normalized by 1/n), same layout.
  void inverse_lines(std::span<double> re, std::span<double> im,
                     size_t lines) const;

 private:
  friend size_t detail::lines_scratch_size(const Plan&, size_t);
  friend void detail::transform_lines(const Plan&, std::span<double>,
                                      std::span<double>, size_t, bool, Isa,
                                      std::span<double>);
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// One-shot transforms (plan cached per length is the caller's job for hot
/// paths; these build a plan each call).
void forward(std::span<cplx> data);
void inverse(std::span<cplx> data);

/// O(n²) reference DFT used by the test suite to validate the fast paths.
std::vector<cplx> dft_reference(std::span<const cplx> x, bool inverse_transform);

/// Circular convolution of equal-length sequences via FFT.
std::vector<cplx> circular_convolution(std::span<const cplx> a,
                                       std::span<const cplx> b);

}  // namespace xg::fft
