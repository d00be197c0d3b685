// Small string helpers shared across modules (no external deps).
#ifndef GCON_COMMON_STRING_UTIL_H_
#define GCON_COMMON_STRING_UTIL_H_

#include <string>
#include <vector>

namespace gcon {

/// Splits `s` on `delim`, dropping empty pieces.
std::vector<std::string> SplitString(const std::string& s, char delim);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces,
                 const std::string& sep);

/// Trims ASCII whitespace from both ends.
std::string Trim(const std::string& s);

/// Formats a double with `digits` significant decimal places (fixed).
std::string FormatDouble(double value, int digits);

/// Parses all of [first, last) as a finite decimal double, independent of
/// the locale: an optional leading '+' is accepted and a magnitude below the
/// smallest subnormal parses as signed zero, while nan, inf, overflow
/// (1e999) and trailing characters are rejected. Returns false on
/// rejection and leaves *out untouched.
bool ParseFiniteDouble(const char* first, const char* last, double* out);

}  // namespace gcon

#endif  // GCON_COMMON_STRING_UTIL_H_
