// Minimal printf-style formatting into std::string (GCC 12 lacks <format>).
#pragma once

#include <cstdarg>
#include <cstdint>
#include <string>

namespace xg {

/// printf-style formatting returning a std::string.
/// Example: xg::strprintf("rank %d of %d", r, n)
[[gnu::format(printf, 1, 2)]] std::string strprintf(const char* fmt, ...);

/// A 64-bit hash or fingerprint as 16 lower-case hex digits.
std::string hex64(std::uint64_t v);

/// Pretty-print a byte count with binary-unit suffix ("1.50 GiB").
std::string human_bytes(double bytes);

/// Pretty-print seconds ("12.3 ms", "4.56 s").
std::string human_seconds(double seconds);

}  // namespace xg
