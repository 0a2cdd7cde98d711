//===- support/ParseNum.h - Strict numeric argument parsing -----*- C++ -*-===//
//
// Part of anosy-cpp (see DESIGN.md).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checked full-token number parsing for command-line flags. Unlike
/// atoi/strtoll/atof, these reject empty tokens, trailing garbage, and
/// out-of-range values instead of silently returning 0 or saturating —
/// `--retry=abc`, `--min-size=9999999999999999999999` and `--sps abc`
/// are errors, not surprising configurations. Header-only and
/// allocation-free.
///
//===----------------------------------------------------------------------===//

#ifndef ANOSY_SUPPORT_PARSENUM_H
#define ANOSY_SUPPORT_PARSENUM_H

#include <charconv>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace anosy {

/// Parses \p Token as a base-10 unsigned integer. The whole token must be
/// digits; nullopt on empty input, any non-digit, or overflow.
inline std::optional<uint64_t> parseUint64(std::string_view Token) {
  if (Token.empty())
    return std::nullopt;
  uint64_t V = 0;
  for (char C : Token) {
    if (C < '0' || C > '9')
      return std::nullopt;
    uint64_t Digit = static_cast<uint64_t>(C - '0');
    if (V > (std::numeric_limits<uint64_t>::max() - Digit) / 10)
      return std::nullopt;
    V = V * 10 + Digit;
  }
  return V;
}

/// Parses \p Token as a base-10 signed integer (optional leading '-').
/// nullopt on empty input, any non-digit, or overflow.
inline std::optional<int64_t> parseInt64(std::string_view Token) {
  bool Negative = !Token.empty() && Token.front() == '-';
  if (Negative)
    Token.remove_prefix(1);
  auto Magnitude = parseUint64(Token);
  if (!Magnitude)
    return std::nullopt;
  // |INT64_MIN| = 2^63 = INT64_MAX + 1.
  uint64_t Limit = static_cast<uint64_t>(std::numeric_limits<int64_t>::max()) +
                   (Negative ? 1 : 0);
  if (*Magnitude > Limit)
    return std::nullopt;
  if (Negative)
    return -static_cast<int64_t>(*Magnitude - 1) - 1;
  return static_cast<int64_t>(*Magnitude);
}

/// parseUint64 range-checked into `unsigned` (worker counts, retry
/// counts, powerset k).
inline std::optional<unsigned> parseUnsigned(std::string_view Token) {
  auto V = parseUint64(Token);
  if (!V || *V > std::numeric_limits<unsigned>::max())
    return std::nullopt;
  return static_cast<unsigned>(*V);
}

/// Parses \p Token as a finite, non-negative decimal number (rates and
/// factors such as `--sps 2.5`). The whole token must parse; nullopt on
/// empty input, trailing garbage, a negative value, inf, nan, or
/// overflow.
inline std::optional<double> parseDouble(std::string_view Token) {
  double V = 0;
  const char *End = Token.data() + Token.size();
  auto [Ptr, Ec] = std::from_chars(Token.data(), End, V);
  if (Token.empty() || Ec != std::errc() || Ptr != End || !std::isfinite(V) ||
      V < 0)
    return std::nullopt;
  return V;
}

} // namespace anosy

#endif // ANOSY_SUPPORT_PARSENUM_H
