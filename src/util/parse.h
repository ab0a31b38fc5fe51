// Strict numeric parsing for CLI boundaries.
//
// The CLI binaries used to funnel every numeric flag through atoll/atof/atoi,
// so `--seed garbage` silently became 0 and a value of `3x` became 3. These
// helpers accept a number if and only if the *entire* string is a valid,
// in-range literal: no leading whitespace, no trailing junk, no silent
// saturation. They return false instead of exiting so the CLIs can attach
// the flag name to the diagnostic (and tests can probe them directly).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

namespace enviromic::util {

/// Base-10 unsigned integer; rejects signs, whitespace, trailing junk, and
/// values above 2^64-1.
bool parse_u64(const char* s, std::uint64_t* out);

/// Base-10 signed integer; rejects whitespace, trailing junk, and values
/// outside [INT64_MIN, INT64_MAX].
bool parse_i64(const char* s, std::int64_t* out);

/// parse_i64 narrowed to int's range.
bool parse_int(const char* s, int* out);

/// Finite floating-point literal (strtod grammar minus inf/nan); rejects
/// leading whitespace, trailing junk, and overflow to infinity.
bool parse_double(const char* s, double* out);

/// A command-line flag's value, parsed by the type of `out` (std::uint64_t,
/// int or double) with the parsers above. False, with an `error` naming the
/// flag and the value ("bad --seed 'x': expected an unsigned integer"), on
/// anything the parser refuses.
template <class T>
bool parse_flag_value(const char* flag, const char* text, T* out,
                      std::string* error) {
  constexpr bool real = std::is_same_v<T, double>;
  constexpr bool whole = std::is_same_v<T, int>;
  bool ok = false;
  if constexpr (real) ok = parse_double(text, out);
  else if constexpr (whole) ok = parse_int(text, out);
  else ok = parse_u64(text, out);
  if (ok) return true;
  *error = std::string("bad ") + flag + " '" + text + "': expected " +
           (real ? "a number" : whole ? "an integer" : "an unsigned integer");
  return false;
}

/// parse_double's inverse, the one number literal every machine-readable
/// emitter prints (run records, fleet reports, telemetry series, trace
/// counters): integral values up to 9e15 print exactly as integers,
/// everything else as "%.17g". So parse_double(format_double(x)) == x for
/// every finite x, and re-emitting a parsed literal keeps its bytes.
std::string format_double(double v);

}  // namespace enviromic::util
