#ifndef LBSQ_COMMON_PARSE_H_
#define LBSQ_COMMON_PARSE_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string_view>
#include <system_error>

// Checked number parsing for text from outside the program: command-line
// flags and environment knobs. A value is accepted only when the whole
// text is one number in range; anything else is nullopt, so the caller
// decides between an error and a default instead of acting on a wrapped
// or partly read value.

namespace lbsq {

// An unsigned decimal integer: digits only (no sign, no spaces, no
// trailing characters) and at most 2^64 - 1.
inline std::optional<uint64_t> ParseCount(std::string_view text) {
  uint64_t value = 0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last) return std::nullopt;
  return value;
}

// A finite decimal or scientific double, such as "-0.25" or "1e-3": no
// leading '+' or spaces, no trailing characters, no inf or nan, and no
// value out of a double's range (such as 1e400, or 1e-400, which would
// round to zero).
inline std::optional<double> ParseFinite(std::string_view text) {
  double value = 0.0;
  const char* last = text.data() + text.size();
  const auto [end, error] = std::from_chars(text.data(), last, value);
  if (error != std::errc() || end != last || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace lbsq

#endif  // LBSQ_COMMON_PARSE_H_
