// Deterministic 64-bit hashing, both digests header-only and bit-stable
// across platforms with the same endianness.
//
// xg::Hasher is byte-wise FNV-1a. It makes cmat fingerprints, state_hash
// and communicator context ids, whose values are pinned by tests, so it
// must never change.
//
// xg::word_digest folds a buffer one 64-bit word at a time, ≈5× faster.
// The invariant monitor compares typed collective results with it, and
// checkpoint shards store it as their payload hash. It is therefore
// persisted in snapshots: any change to its bits needs a checkpoint format
// version bump (ckpt::kFormatVersion).
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <cstring>
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

  [[nodiscard]] std::uint64_t digest() const { return state_; }

 private:
  std::uint64_t state_ = kFnvOffset;
};

/// Word-wise digest of `n` raw bytes. The state starts from the byte
/// length and folds the buffer one 8-byte word at a time, the tail
/// zero-padded. Each fold (xor the word, multiply by an odd constant,
/// xor-shift) is a bijection of the state, so two equal-length buffers that
/// differ in exactly one word always digest differently. Raw bits are
/// hashed: -0.0 and +0.0 differ, and every NaN payload is its own value.
inline std::uint64_t word_digest(const void* data, size_t n) {
  constexpr std::uint64_t kMul = 0x9e3779b97f4a7c15ull;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = (n ^ 0x2545f4914f6cdd1dull) * kMul;
  const auto fold = [&h](std::uint64_t w) {
    h = (h ^ w) * kMul;
    h ^= h >> 29;
  };
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    fold(w);
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    fold(w);
  }
  return h;
}

}  // namespace xg
