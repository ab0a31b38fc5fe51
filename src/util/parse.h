// Strict numeric parsing for CLI boundaries.
//
// The CLI binaries used to funnel every numeric flag through atoll/atof/atoi,
// so `--seed garbage` silently became 0 and `--runs 3x` became 3. These
// helpers accept a number if and only if the *entire* string is a valid,
// in-range literal: no leading whitespace, no trailing junk, no silent
// saturation. They return false instead of exiting so the CLIs can attach
// the flag name to the diagnostic (and tests can probe them directly).
#pragma once

#include <cstdint>
#include <string>

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

/// parse_double's inverse, the one number literal every machine-readable
/// emitter prints (run records, fleet reports, telemetry series, trace
/// counters): integral values up to 9e15 print exactly as integers,
/// everything else as "%.17g". So parse_double(format_double(x)) == x for
/// every finite x, and re-emitting a parsed literal keeps its bytes.
std::string format_double(double v);

}  // namespace enviromic::util
