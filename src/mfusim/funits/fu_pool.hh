/**
 * @file
 * The complete functional-unit complement of the base machine.
 *
 * One unit of each FuClass (address add/multiply, scalar add,
 * logical, shift, floating add/multiply, reciprocal approximation)
 * plus the memory port.  Register-transfer operations use dedicated
 * data paths and never contend for a unit; branches are resolved by
 * the issue stage and likewise bypass the pool.
 *
 * The scoreboard, CDC 6600, multiple-issue and RUU runs carry a
 * FuPool; the per-op FuClass paths below and the unit/port
 * transitions they call are all header-inline.  A unit here keeps
 * only the cycle it next accepts, so each machine must hand it ops
 * in cycle order (the CDC 6600's one waiting station per unit keeps
 * that order although it dispatches out of issue order).  Tomasulo's
 * several stations per unit dispatch out of cycle order, so it keeps
 * each unit's accept slots in a SparseReservations timeline
 * (funits/result_bus.hh); the Simple machine has no units.
 */

#ifndef MFUSIM_FUNITS_FU_POOL_HH
#define MFUSIM_FUNITS_FU_POOL_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mfusim/core/machine_config.hh"
#include "mfusim/core/opcode.hh"
#include "mfusim/funits/functional_unit.hh"
#include "mfusim/funits/memory_port.hh"

namespace mfusim
{

/** Hardware organization of the execution resources. */
struct FuPoolConfig
{
    FuDiscipline fuDiscipline = FuDiscipline::kSegmented;
    MemDiscipline memDiscipline = MemDiscipline::kInterleaved;

    /**
     * Copies of each functional unit (extension).  The paper's base
     * machine has exactly one of each ("there is only 1 floating
     * point multiply unit and this unit can only accept 1 new
     * floating point operation every clock cycle"); replicating
     * units tests the paper's opening premise that performance can
     * be sought by "increasing the number of functional units".
     */
    unsigned fuCopies = 1;

    /** Independent memory ports (extension; the base machine: 1). */
    unsigned memPorts = 1;
};

/**
 * Accept-availability of every execution resource of the machine.
 *
 * Callers pass an op's pre-decoded unit class and latency
 * (DecodedTrace), so the pool never looks opcode traits up.
 */
class FuPool
{
  public:
    FuPool(const FuPoolConfig &poolCfg, const MachineConfig &machineCfg);

    /** True if a @p fu resource can accept an op at @p when. */
    bool
    canAccept(FuClass fu, ClockCycle when) const
    {
        if (!usesPool(fu))
            return true;
        if (fu == FuClass::kMemory)
            return bestPort().canAccept(when);
        return bestUnit(fu).canAccept(when);
    }

    /** Earliest cycle >= @p when at which a @p fu op is accepted. */
    ClockCycle
    earliestAccept(FuClass fu, ClockCycle when) const
    {
        if (!usesPool(fu))
            return when;
        const ClockCycle free = fu == FuClass::kMemory
                                    ? bestPort().nextFree()
                                    : bestUnit(fu).nextFree();
        return free > when ? free : when;
    }

    /**
     * Accept an op of class @p fu and latency @p latency (as
     * latencyOf() gives it under the machine's configuration) at
     * cycle @p when; returns the cycle at which its result is usable
     * by dependents (when + latency; for a vector op with
     * @p occupancy elements, when + latency + occupancy - 1, the
     * last element).
     */
    ClockCycle
    accept(FuClass fu, ClockCycle when, unsigned latency,
           unsigned occupancy = 1)
    {
        if (!usesPool(fu))
            return when + latency + occupancy - 1;
        if (fu == FuClass::kMemory)
            return bestPort().accept(when, occupancy);
        bestUnit(fu).accept(when, latency, occupancy);
        return when + latency + occupancy - 1;
    }

    /**
     * Shift every unit's and port's timeline forward by @p delta
     * cycles (steady-state extrapolation).
     */
    void
    shiftTime(ClockCycle delta)
    {
        for (FunctionalUnit &unit : units_)
            unit.shiftTime(delta);
        for (MemoryPort &port : memory_)
            port.shiftTime(delta);
    }

    /**
     * Append the pool's live state, rebased to @p base, to @p out:
     * one value per unit and port, max(nextFree, base) - base.  The
     * clamp is exact for state matching — a unit free at or before
     * @p base accepts any later request, however long it has idled.
     */
    void
    appendSignature(ClockCycle base,
                    std::vector<std::uint64_t> &out) const
    {
        for (const FunctionalUnit &unit : units_) {
            const ClockCycle free = unit.nextFree();
            out.push_back(free > base ? free - base : 0);
        }
        for (const MemoryPort &port : memory_) {
            const ClockCycle free = port.nextFree();
            out.push_back(free > base ? free - base : 0);
        }
    }

  private:
    /** True if ops of @p fu contend for a pool resource at all. */
    static bool
    usesPool(FuClass fu)
    {
        return fu != FuClass::kTransfer && fu != FuClass::kBranch;
    }

    /** The copy of the class's unit that frees up first. */
    const FunctionalUnit &
    bestUnit(FuClass fu) const
    {
        std::size_t best = std::size_t(fu);
        for (std::size_t i = best + kNumFuClasses; i < units_.size();
             i += kNumFuClasses) {
            if (units_[i].nextFree() < units_[best].nextFree())
                best = i;
        }
        return units_[best];
    }

    FunctionalUnit &
    bestUnit(FuClass fu)
    {
        return const_cast<FunctionalUnit &>(
            const_cast<const FuPool *>(this)->bestUnit(fu));
    }

    const MemoryPort &
    bestPort() const
    {
        std::size_t best = 0;
        for (std::size_t i = 1; i < memory_.size(); ++i) {
            if (memory_[i].nextFree() < memory_[best].nextFree())
                best = i;
        }
        return memory_[best];
    }

    MemoryPort &
    bestPort()
    {
        return const_cast<MemoryPort &>(
            const_cast<const FuPool *>(this)->bestPort());
    }

    // units_[copy * kNumFuClasses + class]: copy 0 of a class sits
    // at its class index, so the paper's one-of-each machine finds
    // its unit without scanning.
    std::vector<FunctionalUnit> units_;
    std::vector<MemoryPort> memory_;
};

} // namespace mfusim

#endif // MFUSIM_FUNITS_FU_POOL_HH
