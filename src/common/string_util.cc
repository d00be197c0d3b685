#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <iomanip>
#include <sstream>
#include <system_error>

namespace gcon {
namespace {

/// Classifies a token std::from_chars flagged result_out_of_range, which
/// it reports identically for overflow (> DBL_MAX) and total underflow
/// (below the smallest subnormal), leaving the value unmodified. The two
/// get opposite treatment — underflow is a valid feature value (±0),
/// overflow is a defect — so decide from the token itself: an out-of-range
/// magnitude is >= 1e309 or < 1e-323, hence the sign of (decimal exponent
/// of the leading significant digit + explicit exponent) is decisive.
/// `first..last` is already validated as a number (sign stripped).
bool TokenUnderflows(const char* first, const char* last) {
  const char* p = first;
  if (p < last && (*p == '-' || *p == '+')) ++p;
  long lead = 0;
  bool seen_sig = false;
  long int_digits = 0;
  long sig_pos_int = -1;
  while (p < last && *p >= '0' && *p <= '9') {
    if (!seen_sig && *p != '0') {
      seen_sig = true;
      sig_pos_int = int_digits;
    }
    ++int_digits;
    ++p;
  }
  if (p < last && *p == '.') {
    ++p;
    long frac_index = 0;
    while (p < last && *p >= '0' && *p <= '9') {
      if (!seen_sig && *p != '0') {
        seen_sig = true;
        lead = -(frac_index + 1);
      }
      ++frac_index;
      ++p;
    }
  }
  if (sig_pos_int >= 0) lead = int_digits - 1 - sig_pos_int;
  long exponent = 0;
  if (p < last && (*p == 'e' || *p == 'E')) {
    ++p;
    bool negative = false;
    if (p < last && (*p == '-' || *p == '+')) {
      negative = (*p == '-');
      ++p;
    }
    while (p < last && *p >= '0' && *p <= '9') {
      // Clamp: only the sign of the sum matters, and `lead` is bounded by
      // the token length, so saturating at a million keeps it exact.
      if (exponent < 1000000) exponent = exponent * 10 + (*p - '0');
      ++p;
    }
    if (negative) exponent = -exponent;
  }
  return lead + exponent < 0;
}

}  // namespace

std::vector<std::string> SplitString(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string piece;
  std::istringstream in(s);
  while (std::getline(in, piece, delim)) {
    if (!piece.empty()) {
      out.push_back(piece);
    }
  }
  return out;
}

std::string Join(const std::vector<std::string>& pieces,
                 const std::string& sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out += sep;
    out += pieces[i];
  }
  return out;
}

std::string Trim(const std::string& s) {
  size_t begin = 0;
  size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string FormatDouble(double value, int digits) {
  std::ostringstream out;
  out << std::fixed << std::setprecision(digits) << value;
  return out.str();
}

std::string EscapeJson(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (c == '\n' || c == '\r' || c == '\t') {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

bool ParseFiniteDouble(const char* first, const char* last, double* out) {
  // strtod (and istream >> double) accept an explicit leading '+';
  // from_chars does not. Strip it so every token the old parsers took
  // stays valid.
  if (first < last && *first == '+') ++first;
  double value = 0.0;
  const std::from_chars_result result = std::from_chars(first, last, value);
  if (result.ptr != last) return false;
  if (result.ec == std::errc::result_out_of_range) {
    // One errc covers overflow AND underflow (value untouched either
    // way); the token's own magnitude tells them apart.
    if (!TokenUnderflows(first, last)) return false;
    value = (*first == '-') ? -0.0 : 0.0;
  } else if (result.ec != std::errc() || !std::isfinite(value)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace gcon
