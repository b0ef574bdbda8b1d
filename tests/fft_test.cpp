// FFT tests: fast paths vs the O(n²) reference DFT, roundtrips, Parseval,
// linearity, batched-vs-single-line bit identity, the batched kernel's AVX2
// clone against its baseline one, and convolution — parameterized across
// pow2 and non-pow2 sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>

#include "fft/fft.hpp"
#include "isa_check.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xg::fft {
namespace {

std::vector<cplx> random_signal(size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<cplx> x(n);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  return x;
}

double max_err(std::span<const cplx> a, std::span<const cplx> b) {
  double m = 0;
  for (size_t i = 0; i < a.size(); ++i) m = std::max(m, std::abs(a[i] - b[i]));
  return m;
}

TEST(Fft, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(17), 32u);
}

TEST(Fft, LengthOneIsIdentity) {
  std::vector<cplx> x{cplx(2.0, -3.0)};
  forward(x);
  EXPECT_EQ(x[0], cplx(2.0, -3.0));
  inverse(x);
  EXPECT_EQ(x[0], cplx(2.0, -3.0));
}

TEST(Fft, DeltaTransformsToOnes) {
  std::vector<cplx> x(8, cplx{});
  x[0] = 1.0;
  forward(x);
  for (const auto& v : x) EXPECT_NEAR(std::abs(v - cplx(1.0, 0.0)), 0.0, 1e-14);
}

TEST(Fft, SingleModeLandsInSingleBin) {
  const size_t n = 16;
  const int k = 3;
  std::vector<cplx> x(n);
  for (size_t j = 0; j < n; ++j) {
    x[j] = std::polar(1.0, 2.0 * std::numbers::pi * k * double(j) / double(n));
  }
  forward(x);
  for (size_t i = 0; i < n; ++i) {
    if (i == static_cast<size_t>(k)) {
      EXPECT_NEAR(std::abs(x[i]), double(n), 1e-10);
    } else {
      EXPECT_NEAR(std::abs(x[i]), 0.0, 1e-10);
    }
  }
}

class FftSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(FftSizes, MatchesReferenceDft) {
  const size_t n = GetParam();
  auto x = random_signal(n, n * 7 + 1);
  const auto ref = dft_reference(x, false);
  Plan plan(n);
  plan.forward(x);
  EXPECT_LT(max_err(x, ref), 1e-9 * double(n)) << "n=" << n;
}

TEST_P(FftSizes, InverseMatchesReference) {
  const size_t n = GetParam();
  auto x = random_signal(n, n * 13 + 2);
  const auto ref = dft_reference(x, true);
  Plan plan(n);
  plan.inverse(x);
  EXPECT_LT(max_err(x, ref), 1e-9 * double(n)) << "n=" << n;
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const size_t n = GetParam();
  const auto orig = random_signal(n, n * 3 + 5);
  auto x = orig;
  Plan plan(n);
  plan.forward(x);
  plan.inverse(x);
  EXPECT_LT(max_err(x, orig), 1e-10 * double(n)) << "n=" << n;
}

TEST_P(FftSizes, ParsevalHolds) {
  const size_t n = GetParam();
  auto x = random_signal(n, n + 17);
  double time_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  Plan plan(n);
  plan.forward(x);
  double freq_energy = 0;
  for (const auto& v : x) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / double(n), time_energy, 1e-9 * double(n));
}

TEST_P(FftSizes, Linearity) {
  const size_t n = GetParam();
  const auto a = random_signal(n, n + 31);
  const auto b = random_signal(n, n + 37);
  Plan plan(n);
  std::vector<cplx> sum(n);
  for (size_t i = 0; i < n; ++i) sum[i] = 2.0 * a[i] + cplx(0, 1) * b[i];
  auto fa = a;
  auto fb = b;
  plan.forward(fa);
  plan.forward(fb);
  plan.forward(sum);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(sum[i] - (2.0 * fa[i] + cplx(0, 1) * fb[i])),
              1e-9 * double(n));
  }
}

/// Interleaved lines (line l at x[l·n, (l+1)·n)) → split layout, element t
/// of line l at t·lines + l.
void to_split(std::span<const cplx> x, size_t n, size_t lines,
              std::vector<double>& re, std::vector<double>& im) {
  re.assign(n * lines, 0.0);
  im.assign(n * lines, 0.0);
  for (size_t l = 0; l < lines; ++l) {
    for (size_t t = 0; t < n; ++t) {
      re[t * lines + l] = x[l * n + t].real();
      im[t * lines + l] = x[l * n + t].imag();
    }
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST_P(FftSizes, BatchedLinesBitIdenticalToSingleLines) {
  // The batched split-layout kernels must reproduce the single-line
  // transforms exactly — the nonlinear bracket relies on it to stay
  // bit-identical — for both the radix-2 and the Bluestein paths.
  const size_t n = GetParam();
  const Plan plan(n);
  for (const size_t lines : {1u, 3u, 64u}) {
    SCOPED_TRACE(::testing::Message() << "n=" << n << " lines=" << lines);
    const auto orig = random_signal(n * lines, n * 101 + lines);
    auto x = orig;
    std::vector<double> re, im, want_re, want_im;
    to_split(orig, n, lines, re, im);

    for (size_t l = 0; l < lines; ++l) plan.forward({x.data() + l * n, n});
    plan.forward_lines(re, im, lines);
    to_split(x, n, lines, want_re, want_im);
    EXPECT_TRUE(same_bits(re, want_re));
    EXPECT_TRUE(same_bits(im, want_im));

    for (size_t l = 0; l < lines; ++l) plan.inverse({x.data() + l * n, n});
    plan.inverse_lines(re, im, lines);
    to_split(x, n, lines, want_re, want_im);
    EXPECT_TRUE(same_bits(re, want_re));
    EXPECT_TRUE(same_bits(im, want_im));
    EXPECT_LT(max_err(x, orig), 1e-10 * double(n));
  }
}

TEST_P(FftSizes, BatchedLinesAvx2CloneBitIdenticalToBaseline) {
  // The batched kernel is dispatched to an AVX2 clone at run time; both
  // clones must give the same bits, IEEE specials included.
  if (!cpu_has_avx2()) GTEST_SKIP() << "CPU lacks AVX2";
  using isa_check::Specials;
  const size_t n = GetParam();
  const Plan plan(n);
  for (const Specials sp :
       {Specials::kFinite, Specials::kInfinite, Specials::kNaN}) {
    for (const bool inverse : {false, true}) {
      for (const size_t lines : {1u, 3u, 64u}) {
        SCOPED_TRACE(::testing::Message()
                     << "n=" << n << " lines=" << lines << " inverse="
                     << inverse << " " << isa_check::specials_name(sp));
        const std::uint64_t seed = n * 131 + lines;
        auto re = isa_check::seeded_values(n * lines, seed, sp);
        auto im = isa_check::seeded_values(n * lines, seed + 1, sp);
        auto re2 = re, im2 = im;
        // One scratch for both calls: the second sees what the first left.
        std::vector<double> scratch(detail::lines_scratch_size(plan, lines),
                                    1.0);
        detail::transform_lines(plan, re, im, lines, inverse, Isa::kBaseline,
                                scratch);
        detail::transform_lines(plan, re2, im2, lines, inverse, Isa::kAvx2,
                                scratch);
        const bool nan_allowed = sp != Specials::kFinite;
        EXPECT_TRUE(isa_check::same_bits(re, re2, nan_allowed));
        EXPECT_TRUE(isa_check::same_bits(im, im2, nan_allowed));
      }
    }
  }
}

TEST(Fft, BatchedLinesRejectMismatchedSizes) {
  const Plan plan(8);
  std::vector<double> re(8 * 3), im(8 * 2);
  EXPECT_THROW(plan.forward_lines(re, im, 3), xg::Error);
  EXPECT_THROW(plan.inverse_lines(re, re, 2), xg::Error);
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 256, 1024));
INSTANTIATE_TEST_SUITE_P(NonPowersOfTwo, FftSizes,
                         ::testing::Values(3, 5, 6, 7, 12, 15, 24, 48, 100,
                                           121, 360));

TEST(Convolution, MatchesDirectSum) {
  const size_t n = 12;
  const auto a = random_signal(n, 91);
  const auto b = random_signal(n, 92);
  const auto c = circular_convolution(a, b);
  for (size_t k = 0; k < n; ++k) {
    cplx ref{};
    for (size_t j = 0; j < n; ++j) ref += a[j] * b[(k + n - j) % n];
    EXPECT_LT(std::abs(c[k] - ref), 1e-10);
  }
}

TEST(Convolution, DeltaIsIdentity) {
  const size_t n = 9;
  const auto a = random_signal(n, 93);
  std::vector<cplx> delta(n, cplx{});
  delta[0] = 1.0;
  const auto c = circular_convolution(a, delta);
  EXPECT_LT(max_err(c, a), 1e-11);
}

TEST(Convolution, LengthMismatchThrows) {
  std::vector<cplx> a(4), b(5);
  EXPECT_THROW(circular_convolution(a, b), xg::Error);
}

}  // namespace
}  // namespace xg::fft
