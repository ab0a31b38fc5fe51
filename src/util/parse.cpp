#include "util/parse.h"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace enviromic::util {

namespace {

bool leading_digit(const char* s, bool allow_sign) {
  if (s == nullptr || *s == '\0') return false;
  if (allow_sign && (*s == '+' || *s == '-')) ++s;
  return std::isdigit(static_cast<unsigned char>(*s)) != 0;
}

}  // namespace

bool parse_u64(const char* s, std::uint64_t* out) {
  // strtoull quietly accepts leading whitespace and negates '-' values;
  // demand a bare digit up front so neither slips through.
  if (!leading_digit(s, /*allow_sign=*/false)) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_i64(const char* s, std::int64_t* out) {
  if (!leading_digit(s, /*allow_sign=*/true)) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

bool parse_int(const char* s, int* out) {
  std::int64_t v = 0;
  if (!parse_i64(s, &v) || v < INT_MIN || v > INT_MAX) return false;
  *out = static_cast<int>(v);
  return true;
}

bool parse_double(const char* s, double* out) {
  if (s == nullptr || *s == '\0' ||
      std::isspace(static_cast<unsigned char>(*s))) {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') return false;
  // ERANGE covers both overflow and benign underflow-to-subnormal; only the
  // former (and literal inf/nan spellings) should be rejected.
  if (!std::isfinite(v)) return false;
  *out = v;
  return true;
}

std::string format_double(double v) {
  char buf[64];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) <= 9.0e15) {
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

}  // namespace enviromic::util
