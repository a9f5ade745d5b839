#include "src/common/parse.h"

#include <charconv>
#include <cmath>

namespace camo {

std::optional<std::uint64_t>
parseUnsigned(std::string_view text, std::uint64_t max, int base)
{
    if (base == 16 && text.size() > 2 && text[0] == '0' &&
        (text[1] == 'x' || text[1] == 'X'))
        text.remove_prefix(2);
    // from_chars skips no whitespace, takes no sign for an unsigned
    // type, and reports overflow as result_out_of_range.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v, base);
    if (ec != std::errc() || ptr != end || v > max)
        return std::nullopt;
    return v;
}

std::optional<double>
parseReal(std::string_view text, double lo, double hi)
{
    double v = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end || !std::isfinite(v) || v < lo ||
        v > hi)
        return std::nullopt;
    return v;
}

} // namespace camo
