#include "common/parse.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

namespace p3q {
namespace {

/// from_chars over the whole string: success only when every character was
/// consumed and the value fit the target type.
template <typename T>
bool ParseWhole(const std::string& s, T* out) {
  if (s.empty()) return false;
  T value{};
  const char* first = s.data();
  const char* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc() || ptr != last) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseStrictDouble(const std::string& s, double* out) {
  double value = 0;
  if (!ParseWhole(s, &value)) return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool ParseStrictInt(const std::string& s, int* out) {
  return ParseWhole(s, out);
}

bool ParseStrictUint64(const std::string& s, std::uint64_t* out) {
  if (!s.empty() && s[0] == '-') return false;
  return ParseWhole(s, out);
}

std::string FormatStrictDouble(double value) {
  char buf[32];
  for (int precision = 6;; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    double back = 0;
    if (precision == 17 || (ParseStrictDouble(buf, &back) && back == value)) {
      return buf;
    }
  }
}

std::string FormatFixed(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

}  // namespace p3q
