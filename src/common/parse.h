/**
 * @file
 * The one number grammar for outside text: command-line flags, fault
 * specs, fleet shard overrides, run logs and environment variables.
 *
 * A token is a number only when the whole token is the number, in the
 * grammar of `std::from_chars`: an optional '-' then decimal digits
 * (and, for doubles, a fraction and exponent). There is no leading
 * whitespace, no '+', no hex and no trailing byte; doubles round
 * exactly as `strtod` does, but `inf` and `nan` are rejected. Callers
 * keep their own splitting, trimming and error wording.
 *
 * Also the one size bound for outside binary streams (saved tensors
 * and tree ensembles): see StreamHolds.
 */
#ifndef SINAN_COMMON_PARSE_H
#define SINAN_COMMON_PARSE_H

#include <cstdint>
#include <iosfwd>
#include <string_view>
#include <system_error>

namespace sinan {

/**
 * Parses all of @p s into @p out. Returns `std::errc{}` on success,
 * `std::errc::invalid_argument` when @p s is not a number in the
 * grammar above, or `std::errc::result_out_of_range` when it is one
 * but does not fit in T (for doubles: overflows, or underflows to
 * zero). @p out is written only on success. Instantiated for double,
 * int, int64_t and uint64_t.
 */
template <typename T>
std::errc ParseNumber(std::string_view s, T& out);

/**
 * True when @p in still holds at least @p bytes, or cannot report its
 * position (the read that follows then catches truncation). Loaders
 * check every size a stream claims with it before allocating that
 * size, so a hostile header cannot make them reserve gigabytes just to
 * report truncation. Leaves the read position where it was.
 */
bool StreamHolds(std::istream& in, uint64_t bytes);

} // namespace sinan

#endif // SINAN_COMMON_PARSE_H
