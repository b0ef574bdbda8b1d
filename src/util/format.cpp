#include "util/format.hpp"

#include <cstdio>
#include <vector>

namespace xg {

std::string strprintf(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list args2;
  va_copy(args2, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (n < 0) {
    va_end(args2);
    return {};
  }
  std::string out(static_cast<size_t>(n), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args2);
  va_end(args2);
  return out;
}

std::string hex64(std::uint64_t v) {
  return strprintf("%016llx", static_cast<unsigned long long>(v));
}

std::string human_bytes(double bytes) {
  static const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 5) {
    bytes /= 1024.0;
    ++u;
  }
  return strprintf("%.2f %s", bytes, units[u]);
}

std::string human_seconds(double s) {
  if (s < 1e-6) return strprintf("%.1f ns", s * 1e9);
  if (s < 1e-3) return strprintf("%.2f us", s * 1e6);
  if (s < 1.0) return strprintf("%.2f ms", s * 1e3);
  return strprintf("%.2f s", s);
}

}  // namespace xg
