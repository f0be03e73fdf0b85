/**
 * @file
 * The memory system as a "functional unit".
 *
 * The paper treats memory as a heavily used functional unit with a
 * long latency (11 cycles slow / 5 cycles fast) and varies whether
 * it is:
 *
 *  - "serial": at most one outstanding request; a request occupies
 *    the memory for its full latency (the SerialMemory machine);
 *  - "interleaved": a new request can be accepted every cycle and
 *    requests complete in pipelined fashion (the NonSegmented,
 *    CRAY-like, and all multiple-issue machines).
 *
 * Like FunctionalUnit, its per-op transitions are inline.
 */

#ifndef MFUSIM_FUNITS_MEMORY_PORT_HH
#define MFUSIM_FUNITS_MEMORY_PORT_HH

#include <cassert>

#include "mfusim/core/types.hh"

namespace mfusim
{

/** Memory organization. */
enum class MemDiscipline
{
    kSerial,        //!< one request at a time, busy for full latency
    kInterleaved,   //!< pipelined, one new request per cycle
};

/**
 * Accept-availability timeline of the memory port.
 */
class MemoryPort
{
  public:
    MemoryPort(MemDiscipline discipline, unsigned latency)
        : discipline_(discipline), latency_(latency)
    {}

    /** Earliest cycle at which a new request can be accepted. */
    ClockCycle nextFree() const { return nextFree_; }

    bool
    canAccept(ClockCycle when) const
    {
        return when >= nextFree_;
    }

    /**
     * Accept a request at cycle @p when; returns the cycle at which
     * its result (for a load: the destination register) is
     * available.  @p occupancy > 1 models a vector reference
     * streaming one word per cycle.
     */
    ClockCycle
    accept(ClockCycle when, unsigned occupancy = 1)
    {
        assert(canAccept(when) && "memory accepted a request while busy");
        assert(occupancy >= 1);
        nextFree_ = discipline_ == MemDiscipline::kInterleaved
                        ? when + occupancy
                        : when + latency_ + occupancy - 1;
        return when + latency_ + occupancy - 1;
    }

    unsigned latency() const { return latency_; }
    MemDiscipline discipline() const { return discipline_; }

    /** Shift the timeline forward (steady-state extrapolation). */
    void shiftTime(ClockCycle delta) { nextFree_ += delta; }

  private:
    MemDiscipline discipline_;
    unsigned latency_;
    ClockCycle nextFree_ = 0;
};

} // namespace mfusim

#endif // MFUSIM_FUNITS_MEMORY_PORT_HH
