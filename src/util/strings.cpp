#include "util/strings.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "util/error.hpp"
#include "util/format.hpp"

namespace xg {

std::vector<std::pair<std::string, std::string>> spec_items(
    std::string_view spec, std::string_view what) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const auto& raw : split(spec, ';')) {
    const std::string_view item = trim(raw);
    if (item.empty()) continue;
    const size_t eq = item.find('=');
    if (eq == std::string_view::npos) {
      throw InputError(strprintf("%.*s: expected key=value, got '%.*s'",
                                 int(what.size()), what.data(),
                                 int(item.size()), item.data()));
    }
    out.emplace_back(to_lower(trim(item.substr(0, eq))),
                     trim(item.substr(eq + 1)));
  }
  return out;
}

std::optional<std::string> read_text_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

std::string_view trim(std::string_view s) {
  const auto is_space = [](unsigned char c) { return std::isspace(c) != 0; };
  size_t b = 0;
  while (b < s.size() && is_space(s[b])) ++b;
  size_t e = s.size();
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t b = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > b) out.emplace_back(s.substr(b, i - b));
  }
  return out;
}

std::string to_upper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

long parse_long(std::string_view s, std::string_view context) {
  s = trim(s);
  long value = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw InputError(strprintf("expected integer for %.*s, got '%.*s'",
                               int(context.size()), context.data(),
                               int(s.size()), s.data()));
  }
  return value;
}

double parse_double(std::string_view s, std::string_view context) {
  s = trim(s);
  // std::from_chars<double> is available in GCC 12, but accept Fortran-style
  // exponents ('1.0d-3') as CGYRO inputs sometimes carry them.
  std::string buf(s);
  for (auto& c : buf) {
    if (c == 'd' || c == 'D') c = 'e';
  }
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size() || buf.empty()) {
    throw InputError(strprintf("expected real number for %.*s, got '%.*s'",
                               int(context.size()), context.data(),
                               int(s.size()), s.data()));
  }
  return value;
}

bool parse_bool(std::string_view s, std::string_view context) {
  const std::string v = to_lower(trim(s));
  if (v == "1" || v == "true" || v == "t" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "f" || v == "no") return false;
  throw InputError(strprintf("expected boolean for %.*s, got '%s'",
                             int(context.size()), context.data(), v.c_str()));
}

}  // namespace xg
