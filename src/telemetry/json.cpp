#include "telemetry/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <variant>

#include "util/error.hpp"
#include "util/format.hpp"
#include "util/strings.hpp"

namespace xg::telemetry {

Json::Json(std::uint64_t v) {
  if (v <= static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
    v_ = static_cast<std::int64_t>(v);
  } else {
    v_ = static_cast<double>(v);
  }
}

Json Json::array() {
  Json j;
  j.v_.emplace<Array>();
  return j;
}

Json Json::object() {
  Json j;
  j.v_.emplace<Object>();
  return j;
}

Json& Json::set(std::string key, Json value) & {
  auto* obj = std::get_if<Object>(&v_);
  XG_ASSERT_MSG(obj != nullptr, "Json::set on a non-object");
  for (auto& [k, v] : *obj) {
    if (k == key) {
      v = std::move(value);
      return *this;
    }
  }
  // Event records and report sections hold a handful of members each: one
  // allocation up front instead of growing through 1, 2, 4 and 8.
  if (obj->empty()) obj->reserve(8);
  obj->emplace_back(std::move(key), std::move(value));
  return *this;
}

const Json* Json::find(std::string_view key) const {
  const auto* obj = std::get_if<Object>(&v_);
  if (obj == nullptr) return nullptr;
  for (const auto& [k, v] : *obj) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Json& Json::at(std::string_view key) const {
  const Json* j = find(key);
  if (j == nullptr) {
    throw InputError(strprintf("json: missing key '%.*s'",
                               static_cast<int>(key.size()), key.data()));
  }
  return *j;
}

const std::vector<std::pair<std::string, Json>>& Json::items() const {
  const auto* obj = std::get_if<Object>(&v_);
  XG_ASSERT_MSG(obj != nullptr, "Json::items on a non-object");
  return *obj;
}

void Json::push(Json value) {
  auto* arr = std::get_if<Array>(&v_);
  XG_ASSERT_MSG(arr != nullptr, "Json::push on a non-array");
  arr->push_back(std::move(value));
}

const std::vector<Json>& Json::elems() const {
  const auto* arr = std::get_if<Array>(&v_);
  XG_ASSERT_MSG(arr != nullptr, "Json::elems on a non-array");
  return *arr;
}

size_t Json::size() const {
  if (const auto* arr = std::get_if<Array>(&v_)) return arr->size();
  if (const auto* obj = std::get_if<Object>(&v_)) return obj->size();
  return 0;
}

bool Json::as_bool() const {
  const auto* b = std::get_if<bool>(&v_);
  if (b == nullptr) throw InputError("json: expected bool");
  return *b;
}

std::int64_t Json::as_int() const {
  const auto* i = std::get_if<std::int64_t>(&v_);
  if (i == nullptr) throw InputError("json: expected integer");
  return *i;
}

double Json::as_double() const {
  if (const auto* i = std::get_if<std::int64_t>(&v_)) {
    return static_cast<double>(*i);
  }
  const auto* d = std::get_if<double>(&v_);
  if (d == nullptr) throw InputError("json: expected number");
  return *d;
}

const std::string& Json::as_string() const {
  const auto* s = std::get_if<std::string>(&v_);
  if (s == nullptr) throw InputError("json: expected string");
  return *s;
}

namespace {

/// Appends `s` quoted and escaped. Bytes that need no escape are copied a
/// run at a time; only '"', '\\' and control characters break a run.
void dump_string(std::string_view s, std::string& out) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  size_t run = 0;  // start of the pending unescaped run
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(esc, sizeof esc);
      }
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

void dump_double(double v, std::string& out) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  XG_ASSERT(ec == std::errc{});
  out.append(buf, ptr);
  // Keep numbers that happen to be integral recognizably floating-point so a
  // dump → parse cycle preserves the kDouble type. v is finite, so to_chars
  // wrote only digits, signs, '.' and 'e'.
  const std::string_view written(buf, static_cast<size_t>(ptr - buf));
  if (written.find_first_of(".e") == std::string_view::npos) out += ".0";
}

}  // namespace

std::string Json::dump(int indent) const {
  std::string out;
  out.reserve(256);  // one event record, without regrowing from SSO size
  const bool pretty = indent >= 0;

  // Iterative-recursive helper (documents are shallow; recursion is fine).
  struct Dumper {
    bool pretty;
    int indent;
    std::string& out;

    void newline(int depth) const {
      if (!pretty) return;
      out += '\n';
      out.append(static_cast<size_t>(depth) * indent, ' ');
    }

    void value(const Json& j, int depth) const {
      switch (j.type()) {
        case Type::kNull: out += "null"; break;
        case Type::kBool:
          out += *std::get_if<bool>(&j.v_) ? "true" : "false";
          break;
        case Type::kInt: {
          char buf[32];
          const auto [ptr, ec] = std::to_chars(
              buf, buf + sizeof buf, *std::get_if<std::int64_t>(&j.v_));
          XG_ASSERT(ec == std::errc{});
          out.append(buf, ptr);
          break;
        }
        case Type::kDouble:
          dump_double(*std::get_if<double>(&j.v_), out);
          break;
        case Type::kString:
          dump_string(*std::get_if<std::string>(&j.v_), out);
          break;
        case Type::kArray: {
          const Array& arr = *std::get_if<Array>(&j.v_);
          if (arr.empty()) {
            out += "[]";
            break;
          }
          out += '[';
          for (size_t i = 0; i < arr.size(); ++i) {
            if (i > 0) out += ',';
            newline(depth + 1);
            value(arr[i], depth + 1);
          }
          newline(depth);
          out += ']';
          break;
        }
        case Type::kObject: {
          const Object& obj = *std::get_if<Object>(&j.v_);
          if (obj.empty()) {
            out += "{}";
            break;
          }
          out += '{';
          for (size_t i = 0; i < obj.size(); ++i) {
            if (i > 0) out += ',';
            newline(depth + 1);
            dump_string(obj[i].first, out);
            out += pretty ? ": " : ":";
            value(obj[i].second, depth + 1);
          }
          newline(depth);
          out += '}';
          break;
        }
      }
    }
  };
  Dumper{pretty, indent, out}.value(*this, 0);
  return out;
}

namespace {

/// Recursive-descent JSON parser. Throws xg::InputError with byte offsets.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    skip_ws();
    Json j = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return j;
  }

 private:
  static constexpr int kMaxDepth = 128;

  [[noreturn]] void fail(const std::string& what) const {
    throw InputError(
        strprintf("json parse error at byte %zu: %s", pos_, what.c_str()));
  }

  [[nodiscard]] bool eof() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return text_[pos_]; }

  char next() {
    if (eof()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_ws() {
    while (!eof() && (peek() == ' ' || peek() == '\t' || peek() == '\n' ||
                      peek() == '\r')) {
      ++pos_;
    }
  }

  void expect_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) {
      fail(strprintf("expected '%.*s'", static_cast<int>(lit.size()),
                     lit.data()));
    }
    pos_ += lit.size();
  }

  Json parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    if (eof()) fail("unexpected end of input");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return Json(parse_string());
      case 't': expect_literal("true"); return Json(true);
      case 'f': expect_literal("false"); return Json(false);
      case 'n': expect_literal("null"); return Json();
      default: return parse_number();
    }
  }

  Json parse_object(int depth) {
    ++pos_;  // '{'
    Json obj = Json::object();
    skip_ws();
    if (!eof() && peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skip_ws();
      if (eof() || peek() != '"') fail("expected object key string");
      std::string key = parse_string();
      skip_ws();
      if (next() != ':') fail("expected ':' after object key");
      skip_ws();
      obj.set(std::move(key), parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array(int depth) {
    ++pos_;  // '['
    Json arr = Json::array();
    skip_ws();
    if (!eof() && peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      skip_ws();
      arr.push(parse_value(depth + 1));
      skip_ws();
      const char c = next();
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control character in one append.
      const size_t run = pos_;
      while (!eof()) {
        const auto c = static_cast<unsigned char>(peek());
        if (c == '"' || c == '\\' || c < 0x20) break;
        ++pos_;
      }
      out.append(text_.data() + run, pos_ - run);
      const char c = next();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      const char esc = next();
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = next();
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are passed
          // through as two 3-byte sequences — telemetry strings are ASCII).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("bad escape character");
      }
    }
  }

  Json parse_number() {
    const size_t start = pos_;
    if (!eof() && peek() == '-') ++pos_;
    bool is_double = false;
    while (!eof()) {
      const char c = peek();
      if (c >= '0' && c <= '9') {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("invalid number");
    if (!is_double) {
      std::int64_t v = 0;
      const auto [ptr, ec] =
          std::from_chars(tok.data(), tok.data() + tok.size(), v);
      if (ec == std::errc{} && ptr == tok.data() + tok.size()) return Json(v);
      is_double = true;  // integer overflow: fall through to double
    }
    // from_chars is exact and allocation-free; strtod stays the reference
    // for every token it does not take whole with a finite value (a leading
    // '+', underflow flushed to 0, overflow, malformed tails), so the
    // accepted grammar and each parsed value are strtod's.
    double fast = 0.0;
    const auto [fast_end, fast_ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), fast);
    if (fast_ec == std::errc{} && fast_end == tok.data() + tok.size() &&
        std::isfinite(fast)) {
      return Json(fast);
    }
    const std::string buf(tok);
    char* end = nullptr;
    const double v = std::strtod(buf.c_str(), &end);
    if (end != buf.c_str() + buf.size() || !std::isfinite(v)) {
      fail(strprintf("invalid number '%s'", buf.c_str()));
    }
    return Json(v);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) {
  return Parser(text).parse_document();
}

void write_json_file(const std::string& path, const Json& doc) {
  std::ofstream f(path, std::ios::trunc);
  if (!f) throw Error(strprintf("cannot open '%s' for writing", path.c_str()));
  f << doc.dump(2) << '\n';
  f.flush();
  if (!f) throw Error(strprintf("short write to '%s'", path.c_str()));
}

Json load_json_file(const std::string& path) {
  const auto text = read_text_file(path);
  if (!text) throw Error(strprintf("cannot open json file '%s'", path.c_str()));
  return Json::parse(*text);
}

}  // namespace xg::telemetry
