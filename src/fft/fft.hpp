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
// bit-identical.
#pragma once

#include <complex>
#include <memory>
#include <span>
#include <vector>

namespace xg::fft {

using cplx = std::complex<double>;

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
