#include "common/parse.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <type_traits>

namespace sinan {

template <typename T>
std::errc
ParseNumber(std::string_view s, T& out)
{
    T v{};
    const char* end = s.data() + s.size();
    const std::from_chars_result r = std::from_chars(s.data(), end, v);
    if (r.ptr != end)
        return std::errc::invalid_argument;
    if (r.ec != std::errc{})
        return r.ec;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return std::errc::invalid_argument;
    }
    out = v;
    return std::errc{};
}

template std::errc ParseNumber<double>(std::string_view, double&);
template std::errc ParseNumber<int>(std::string_view, int&);
template std::errc ParseNumber<int64_t>(std::string_view, int64_t&);
template std::errc ParseNumber<uint64_t>(std::string_view, uint64_t&);

bool
StreamHolds(std::istream& in, uint64_t bytes)
{
    const std::streamoff here = in.tellg();
    if (here < 0)
        return true;
    in.seekg(0, std::ios::end);
    const std::streamoff left = std::streamoff(in.tellg()) - here;
    in.seekg(here);
    return in && left >= 0 && bytes <= static_cast<uint64_t>(left);
}

} // namespace sinan
