/**
 * @file
 * Machine configuration presets.
 */

#include "mfusim/core/machine_config.hh"

#include "mfusim/core/error.hh"

namespace mfusim
{

std::string
MachineConfig::name() const
{
    std::string base = "M";
    base += std::to_string(memLatency);
    base += "BR";
    base += std::to_string(branchTime);
    if (predictor.armed()) {
        base += '+';
        base += predictor.key();
    }
    return base;
}

void
MachineConfig::validate() const
{
    constexpr unsigned kMax = 4096;
    if (memLatency < 1 || memLatency > kMax) {
        throw ConfigError(
            "MachineConfig: memLatency " +
            std::to_string(memLatency) + " outside [1, " +
            std::to_string(kMax) + "]");
    }
    if (branchTime < 1 || branchTime > kMax) {
        throw ConfigError(
            "MachineConfig: branchTime " +
            std::to_string(branchTime) + " outside [1, " +
            std::to_string(kMax) + "]");
    }
    predictor.validate();
}

MachineConfig
configM11BR5()
{
    return MachineConfig{ 11, 5, {} };
}

MachineConfig
configM11BR2()
{
    return MachineConfig{ 11, 2, {} };
}

MachineConfig
configM5BR5()
{
    return MachineConfig{ 5, 5, {} };
}

MachineConfig
configM5BR2()
{
    return MachineConfig{ 5, 2, {} };
}

const std::array<MachineConfig, 4> &
standardConfigs()
{
    static const std::array<MachineConfig, 4> configs = {
        configM11BR5(), configM11BR2(), configM5BR5(), configM5BR2(),
    };
    return configs;
}

} // namespace mfusim
