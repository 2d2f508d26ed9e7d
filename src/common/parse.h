// Strict numeric parsing for CLI flags and spec strings.
//
// std::atof/atoi silently turn "abc" into 0 and stop at the first bad
// character ("1.5x" reads as 1.5), which lets a typoed flag run a completely
// different experiment. Every parser here consumes the WHOLE string via
// std::from_chars and rejects empty input, trailing garbage, overflow and
// non-finite values, so a bad flag is an error instead of a silent default.
// FormatStrictDouble is the inverse that spec names print numbers with;
// FormatFixed is the fixed-point form of reports.
#ifndef P3Q_COMMON_PARSE_H_
#define P3Q_COMMON_PARSE_H_

#include <cstdint>
#include <string>

namespace p3q {

/// Parses a finite double ("0.5", "-1e3"). Rejects "", "O.1", "0.9x", NaN
/// and infinities. Returns true and writes `out` only on success.
bool ParseStrictDouble(const std::string& s, double* out);

/// Parses a decimal int ("-3", "42"). Rejects "", "1.5", "7x", overflow.
bool ParseStrictInt(const std::string& s, int* out);

/// Parses a decimal uint64; a leading '-' is rejected rather than wrapped.
bool ParseStrictUint64(const std::string& s, std::uint64_t* out);

/// Formats a finite double as the shortest "%.Ng" text, N from 6 (%g's
/// default) up to 17, that ParseStrictDouble reads back as the same value,
/// so a spec's Name() parses back to the same spec. A value that %g renders
/// exactly keeps %g's text ("0.1", "2.5", "1e-07").
std::string FormatStrictDouble(double value);

/// Formats a double with `precision` digits after the point ("%.*f": no
/// exponent, no locale), the fixed-width form reports print numbers with.
std::string FormatFixed(double value, int precision = 6);

}  // namespace p3q

#endif  // P3Q_COMMON_PARSE_H_
