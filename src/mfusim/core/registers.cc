/**
 * @file
 * Register name formatting.
 */

#include "mfusim/core/registers.hh"

namespace mfusim
{

std::string
regName(RegId r)
{
    if (r == kNoReg)
        return "--";
    if (!isValidReg(r))
        return "R?" + std::to_string(r);

    if (r == kVlReg)
        return "VL";
    static const char prefixes[] = { 'A', 'S', 'B', 'T', 'V' };
    const char prefix = prefixes[static_cast<unsigned>(classOf(r))];
    std::string name(1, prefix);
    name += std::to_string(indexOf(r));
    return name;
}

} // namespace mfusim
