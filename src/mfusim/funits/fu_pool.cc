/**
 * @file
 * Functional unit pool implementation: the Op-keyed convenience
 * overloads, delegating to the inline FuClass fast paths.
 */

#include "mfusim/funits/fu_pool.hh"

#include <cassert>

namespace mfusim
{

FuPool::FuPool(const FuPoolConfig &poolCfg,
               const MachineConfig &machineCfg)
    : machineCfg_(machineCfg)
{
    assert(poolCfg.fuCopies >= 1 && poolCfg.memPorts >= 1);
    units_.assign(std::size_t(kNumFuClasses) * poolCfg.fuCopies,
                  FunctionalUnit(poolCfg.fuDiscipline));
    memory_.assign(poolCfg.memPorts,
                   MemoryPort(poolCfg.memDiscipline,
                              machineCfg.memLatency));
}

bool
FuPool::canAccept(Op op, ClockCycle when) const
{
    return canAccept(traitsOf(op).fu, when);
}

ClockCycle
FuPool::earliestAccept(Op op, ClockCycle when) const
{
    return earliestAccept(traitsOf(op).fu, when);
}

ClockCycle
FuPool::accept(Op op, ClockCycle when, unsigned occupancy)
{
    return accept(traitsOf(op).fu, when, latencyOf(op, machineCfg_),
                  occupancy);
}

void
FuPool::reset()
{
    for (FunctionalUnit &unit : units_)
        unit.reset();
    for (MemoryPort &port : memory_)
        port.reset();
}

} // namespace mfusim
