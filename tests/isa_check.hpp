// Helpers for the cross-ISA kernel tests (fft_test, gyro_test): seeded
// inputs carrying IEEE special values, and the bit comparison between the
// baseline and AVX2 clones of a dispatched kernel.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace xg::isa_check {

/// Which special values seeded_values mixes into its input.
enum class Specials {
  kFinite,    ///< ±0 and ± subnormals
  kInfinite,  ///< those and ±∞
  kNaN,       ///< those, ±∞ and quiet NaNs with payloads
};

inline const char* specials_name(Specials s) {
  switch (s) {
    case Specials::kFinite: return "finite";
    case Specials::kInfinite: return "infinite";
    case Specials::kNaN: return "nan";
  }
  return "?";
}

/// n seeded values in [-1, 1]; every 11th is replaced, in turn, by one of
/// the specials that `s` admits.
inline std::vector<double> seeded_values(size_t n, std::uint64_t seed,
                                         Specials s) {
  std::vector<double> special = {0.0, -0.0, 0x1p-1060, -0x1.8p-1040};
  if (s != Specials::kFinite) {
    special.push_back(std::numeric_limits<double>::infinity());
    special.push_back(-std::numeric_limits<double>::infinity());
  }
  if (s == Specials::kNaN) {
    special.push_back(std::nan("7"));
    special.push_back(-std::nan("123"));
  }
  Rng rng(seed);
  std::vector<double> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (i % 11 == 5) ? special[(i / 11) % special.size()]
                         : rng.uniform(-1.0, 1.0);
  }
  return v;
}

/// The clones agree: identical bytes everywhere, except that where an
/// output is NaN the other must be NaN too, of any sign or payload. (Which
/// NaN an operation returns depends on its operand order, which the
/// vectorizer may swap for a commutative mul or add; every other value is
/// fixed by IEEE rounding.) With `nan_allowed` false no NaN may appear.
inline ::testing::AssertionResult same_bits(std::span<const double> a,
                                            std::span<const double> b,
                                            bool nan_allowed) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs "
                                         << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    const bool na = std::isnan(a[i]), nb = std::isnan(b[i]);
    if (na || nb) {
      if (na && nb && nan_allowed) continue;
      return ::testing::AssertionFailure()
             << "NaN mismatch at " << i << ": " << a[i] << " vs " << b[i];
    }
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "bits differ at " << i << ": " << a[i] << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

}  // namespace xg::isa_check
