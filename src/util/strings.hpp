// Small string utilities shared across SCSQ modules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace scsq::util {

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

/// Joins `parts` with `sep` between elements.
std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Returns `text` with leading and trailing ASCII whitespace removed.
std::string_view trim(std::string_view text);

/// Case-sensitive prefix/suffix tests (thin wrappers for C++20 clarity).
bool starts_with(std::string_view text, std::string_view prefix);
bool ends_with(std::string_view text, std::string_view suffix);

/// Lower-cases ASCII characters.
std::string to_lower(std::string_view text);

/// True if `text` matches `pattern` where the pattern is a plain
/// substring (used by the SCSQL grep() builtin; the paper's grep is a
/// pattern scan over file lines).
bool contains(std::string_view text, std::string_view pattern);

/// Parses an integer setting: decimal digits only, from `lo` to `hi`.
/// Anything else (empty text, a sign, blanks, trailing text, a value
/// out of range) is nullopt. The parser for every SCSQ_* integer.
std::optional<std::uint64_t> parse_uint(std::string_view text, std::uint64_t lo,
                                        std::uint64_t hi);

}  // namespace scsq::util
