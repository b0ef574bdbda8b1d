#include "util/keyvalue.hpp"

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace xg {

KeyValueFile KeyValueFile::load(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text) throw InputError(strprintf("cannot open input file '%s'", path.c_str()));
  return parse(*text, path);
}

KeyValueFile KeyValueFile::parse(std::string_view text, std::string_view origin) {
  KeyValueFile kv;
  kv.origin_.assign(origin);
  int lineno = 0;
  for (const auto& line : split(text, '\n')) {
    ++lineno;
    std::string_view body = line;
    if (const size_t hash = body.find('#'); hash != std::string_view::npos) {
      body = body.substr(0, hash);
    }
    body = trim(body);
    if (body.empty()) continue;
    const size_t eq = body.find('=');
    if (eq == std::string_view::npos) {
      throw InputError(strprintf("%.*s:%d: expected KEY=value, got '%.*s'",
                                 int(origin.size()), origin.data(), lineno,
                                 int(body.size()), body.data()));
    }
    const std::string_view key = trim(body.substr(0, eq));
    const std::string_view value = trim(body.substr(eq + 1));
    if (key.empty()) {
      throw InputError(strprintf("%.*s:%d: empty key", int(origin.size()),
                                 origin.data(), lineno));
    }
    kv.set(key, value);
  }
  return kv;
}

bool KeyValueFile::has(std::string_view key) const {
  return entries_.count(to_upper(key)) != 0;
}

const std::string& KeyValueFile::raw(std::string_view key) const {
  const auto it = entries_.find(to_upper(key));
  if (it == entries_.end()) {
    throw InputError(strprintf("%s: missing required key '%s'", origin_.c_str(),
                               to_upper(key).c_str()));
  }
  return it->second;
}

long KeyValueFile::get_int(std::string_view key) const {
  return parse_long(raw(key), key);
}

double KeyValueFile::get_real(std::string_view key) const {
  return parse_double(raw(key), key);
}

bool KeyValueFile::get_bool(std::string_view key) const {
  return parse_bool(raw(key), key);
}

std::string KeyValueFile::get_string(std::string_view key) const {
  return raw(key);
}

long KeyValueFile::get_int_or(std::string_view key, long fallback) const {
  return has(key) ? get_int(key) : fallback;
}

double KeyValueFile::get_real_or(std::string_view key, double fallback) const {
  return has(key) ? get_real(key) : fallback;
}

bool KeyValueFile::get_bool_or(std::string_view key, bool fallback) const {
  return has(key) ? get_bool(key) : fallback;
}

std::string KeyValueFile::get_string_or(std::string_view key,
                                        std::string fallback) const {
  return has(key) ? get_string(key) : fallback;
}

void KeyValueFile::set(std::string_view key, std::string_view value) {
  entries_[to_upper(key)] = std::string(value);
}

std::vector<std::string> KeyValueFile::keys() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [k, v] : entries_) out.push_back(k);
  return out;
}

std::string KeyValueFile::to_string() const {
  std::string out;
  for (const auto& [k, v] : entries_) {
    out += k;
    out += '=';
    out += v;
    out += '\n';
  }
  return out;
}

}  // namespace xg
