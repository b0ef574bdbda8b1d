// Small string utilities (trim/split/case) used by the input parsers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xg {

/// Strip leading/trailing whitespace.
std::string_view trim(std::string_view s);

/// Split on a single character; keeps empty fields.
std::vector<std::string> split(std::string_view s, char sep);

/// Split on arbitrary whitespace; drops empty fields.
std::vector<std::string> split_ws(std::string_view s);

/// ASCII upper/lower-casing (input keys are case-insensitive, CGYRO-style).
std::string to_upper(std::string_view s);
std::string to_lower(std::string_view s);

/// True if `s` begins with `prefix`.
bool starts_with(std::string_view s, std::string_view prefix);

/// The items of a ';'-separated `key=value` spec, empty items skipped: keys
/// trimmed and lower-cased, values trimmed. Throws xg::InputError
/// ("<what>: expected key=value, got '<item>'") on an item without '='.
std::vector<std::pair<std::string, std::string>> spec_items(
    std::string_view spec, std::string_view what);

/// The whole contents of the file at `path`; nothing if it cannot be opened.
std::optional<std::string> read_text_file(const std::string& path);

/// Parse helpers that throw xg::InputError with context on failure: the
/// whole (trimmed) value must be a number, and in range for the type —
/// parse_int refuses values outside `int`, parse_double values that
/// overflow or underflow a double.
long parse_long(std::string_view s, std::string_view context);
int parse_int(std::string_view s, std::string_view context);
double parse_double(std::string_view s, std::string_view context);
bool parse_bool(std::string_view s, std::string_view context);

}  // namespace xg
