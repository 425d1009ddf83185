#pragma once

#include <string>
#include <vector>

namespace glint {

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// True if `s` ends with `suffix`.
bool EndsWith(const std::string& s, const std::string& suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace glint
