/**
 * @file
 * The lexical pieces every textual grammar in mfusim shares.  Every
 * integer read from text (specs, environment, trace files, CLI flags,
 * HTTP and JSON numbers) goes through parseDecimal(): digits only, at
 * most the caller's maximum, leading zeros allowed ("05" is 5).  Each
 * caller turns a nullopt into its own typed error.
 */

#ifndef MFUSIM_CORE_LEXICAL_HH
#define MFUSIM_CORE_LEXICAL_HH

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace mfusim
{

/** @p text as a T no larger than @p max, else nullopt; never wraps. */
template <typename T = std::uint64_t>
std::optional<T>
parseDecimal(std::string_view text, T max = std::numeric_limits<T>::max())
{
    static_assert(std::is_unsigned_v<T>, "counts are unsigned");
    if (text.empty())
        return std::nullopt;
    T value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const T digit = T(c - '0');
        if (digit > max || value > (max - digit) / 10)
            return std::nullopt;
        value = T(value * 10 + digit);
    }
    return value;
}

/** @p text split on @p sep, keeping empty fields, trailing ones too. */
inline std::vector<std::string>
splitFields(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::size_t from = 0;
    for (std::size_t at; (at = text.find(sep, from)) != std::string::npos;
         from = at + 1)
        out.push_back(text.substr(from, at - from));
    out.push_back(text.substr(from));
    return out;
}

} // namespace mfusim

#endif // MFUSIM_CORE_LEXICAL_HH
