/**
 * @file
 * The one definition of a valid number that comes from outside as
 * text: flags, --inject fields, workload parameters, trace fields.
 * (JSON numbers: obs::json::toUnsigned.) Both converters return
 * nullopt on anything they do not accept; each caller reports that
 * in its own error type and wording.
 */

#ifndef CAMO_COMMON_PARSE_H
#define CAMO_COMMON_PARSE_H

#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>

namespace camo {

/** Unsigned integer no larger than `max`: plain digits in base 10,
 *  or base 16 with an optional 0x/0X. No sign, whitespace, empty
 *  string, trailing character or overflow. */
std::optional<std::uint64_t>
parseUnsigned(std::string_view text,
              std::uint64_t max = std::numeric_limits<std::uint64_t>::max(),
              int base = 10);

/** Finite real in [lo, hi], decimal or exponent notation. No nan,
 *  inf, leading '+', whitespace or trailing character. */
std::optional<double> parseReal(std::string_view text, double lo,
                                double hi);

} // namespace camo

#endif // CAMO_COMMON_PARSE_H
