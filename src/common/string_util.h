#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/statusor.h"

namespace erq {

/// Returns `s` converted to ASCII lowercase.
std::string ToLower(std::string_view s);

/// Returns `s` converted to ASCII uppercase.
std::string ToUpper(std::string_view s);

/// Joins `parts` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits `s` on the single character `sep`; empty fields are preserved.
std::vector<std::string> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Parses `s` as an unsigned decimal integer no greater than `max`: one or
/// more ASCII digits and nothing else (no sign, no whitespace). Empty
/// input, any other character and values above `max` are a ParseError.
StatusOr<uint64_t> ParseDecimal(std::string_view s, uint64_t max);

}  // namespace erq

