// Deterministic 64-bit hashing (FNV-1a) used for cmat fingerprints,
// state_hash, communicator context ids and checkpoint hashes. Those values
// are pinned by tests and stored in snapshots, so the byte-wise digest must
// never change. Header-only; bit-stable across platforms. The invariant
// monitor's per-collective result comparison does not use it: it uses the
// word-wise mpi::detail::result_digest (simmpi/comm.hpp), which is not
// persisted anywhere.
#pragma once

#include <complex>
#include <cstdint>
#include <cstring>
#include <span>
#include <string_view>

namespace xg {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Incremental FNV-1a hasher. Feed raw bytes or typed PODs; the digest is
/// stable across runs/platforms with the same endianness.
class Hasher {
 public:
  Hasher& bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      state_ ^= p[i];
      state_ *= kFnvPrime;
    }
    return *this;
  }

  Hasher& u64(std::uint64_t v) { return bytes(&v, sizeof v); }
  Hasher& i64(std::int64_t v) { return bytes(&v, sizeof v); }

  Hasher& f64(double v) {
    if (v == 0.0) v = 0.0;  // normalize -0.0 so it hashes like +0.0
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    return u64(bits);
  }

  Hasher& c64(std::complex<double> v) { return f64(v.real()).f64(v.imag()); }

  Hasher& str(std::string_view s) { return u64(s.size()).bytes(s.data(), s.size()); }

  template <typename T>
  Hasher& span_f64(std::span<const T> values) {
    u64(values.size());
    for (const auto& v : values) f64(static_cast<double>(v));
    return *this;
  }

  Hasher& span_c64(std::span<const std::complex<double>> values) {
    u64(values.size());
    for (const auto& v : values) c64(v);
    return *this;
  }

  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kFnvOffset;
};

}  // namespace xg
