// JSON document model for the telemetry layer: build, serialize, and parse
// the service event log, the Chrome trace, metrics-snapshot and run-report
// artifacts.
//
// This is on the campaign service's hot path: every request-lifecycle
// transition builds one record, the sink dumps it to a JSONL line, and the
// validator, monitor and replay tools parse it back. The node is therefore
// compact — one std::variant whose index is the Type (40 bytes on LP64; an
// object member is 72) — and chained builders move instead of copying:
// `set` on an rvalue returns an rvalue, so `Json::object().set(...)` and
// `emit(make_event(...).set(...))` hand the finished tree on without a deep
// copy. The first `set` on an object reserves room for a typical record's
// members. Strings are dumped and parsed in runs of unescaped bytes, and
// numbers parse through std::from_chars with a strtod fallback, so the
// accepted grammar and every parsed value match a plain strtod parser.
//
// Objects preserve insertion order so emitted documents are deterministic;
// doubles are serialized with std::to_chars shortest round-trip form, so a
// dump → parse cycle is bit-exact.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace xg::telemetry {

class Json {
 public:
  enum class Type { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  Json() = default;  ///< null
  Json(bool b) : v_(b) {}
  Json(int v) : v_(std::int64_t{v}) {}
  Json(std::int64_t v) : v_(v) {}
  Json(std::uint64_t v);  ///< falls back to double above INT64_MAX
  Json(double v) : v_(v) {}
  Json(const char* s) : v_(std::in_place_type<std::string>, s) {}
  Json(std::string s) : v_(std::move(s)) {}

  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] Type type() const { return static_cast<Type>(v_.index()); }
  [[nodiscard]] bool is_null() const { return type() == Type::kNull; }
  [[nodiscard]] bool is_object() const { return type() == Type::kObject; }
  [[nodiscard]] bool is_array() const { return type() == Type::kArray; }
  [[nodiscard]] bool is_number() const {
    return type() == Type::kInt || type() == Type::kDouble;
  }
  [[nodiscard]] bool is_string() const { return type() == Type::kString; }

  // --- object access (kObject only) ----------------------------------------

  /// Insert or overwrite a key (an overwritten key keeps its position);
  /// returns *this for chaining.
  Json& set(std::string key, Json value) &;
  /// The same on a temporary: the result is an rvalue, so a chain built on
  /// Json::object() or make_event() moves into its destination.
  Json&& set(std::string key, Json value) && {
    return std::move(set(std::move(key), std::move(value)));
  }
  /// nullptr when absent (or when *this is not an object).
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Throws xg::InputError when absent.
  [[nodiscard]] const Json& at(std::string_view key) const;
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& items() const;

  // --- array access (kArray only) -------------------------------------------

  void push(Json value);
  [[nodiscard]] const std::vector<Json>& elems() const;

  /// Element/member count for arrays and objects; 0 otherwise.
  [[nodiscard]] size_t size() const;

  // --- scalar access (throws xg::InputError on type mismatch) ---------------

  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;   ///< kInt only
  [[nodiscard]] double as_double() const;      ///< kInt or kDouble
  [[nodiscard]] const std::string& as_string() const;

  // --- serialization ---------------------------------------------------------

  /// indent < 0: compact one-line form; indent >= 0: pretty-printed with
  /// that many spaces per level. Non-finite doubles serialize as null
  /// (JSON has no NaN/Inf), matching the parser, which rejects bare
  /// nan/inf tokens.
  [[nodiscard]] std::string dump(int indent = -1) const;

  /// Strict recursive-descent parse of a complete document (trailing
  /// non-whitespace rejected). Throws xg::InputError with byte offset.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  using Array = std::vector<Json>;
  using Object = std::vector<std::pair<std::string, Json>>;

  /// Alternative order matches Type, so type() is the variant index.
  std::variant<std::monostate, bool, std::int64_t, double, std::string,
               Array, Object>
      v_;
};

/// Write `doc.dump(2)` plus a trailing newline to `path`. Throws xg::Error
/// on I/O failure (unwritable directory, short write).
void write_json_file(const std::string& path, const Json& doc);

/// Load and parse a JSON file. Throws xg::Error / xg::InputError.
Json load_json_file(const std::string& path);

}  // namespace xg::telemetry
