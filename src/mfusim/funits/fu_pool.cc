/**
 * @file
 * Functional unit pool construction (everything else is inline).
 */

#include "mfusim/funits/fu_pool.hh"

#include <cassert>

namespace mfusim
{

FuPool::FuPool(const FuPoolConfig &poolCfg,
               const MachineConfig &machineCfg)
{
    assert(poolCfg.fuCopies >= 1 && poolCfg.memPorts >= 1);
    units_.assign(std::size_t(kNumFuClasses) * poolCfg.fuCopies,
                  FunctionalUnit(poolCfg.fuDiscipline));
    memory_.assign(poolCfg.memPorts,
                   MemoryPort(poolCfg.memDiscipline,
                              machineCfg.memLatency));
}

} // namespace mfusim
