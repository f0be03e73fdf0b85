/**
 * @file
 * Timing model of one hardware functional unit.
 *
 * The paper distinguishes two functional-unit disciplines:
 *
 *  - "non-segmented": a unit is busy for the full latency of each
 *    operation it accepts (CDC-6600 style; the paper's SerialMemory
 *    and NonSegmented machines);
 *  - "segmented" (pipelined): a unit accepts a new independent
 *    operation every clock cycle (CRAY style).
 *
 * A FunctionalUnit tracks only when it can next *accept* work; the
 * per-operation result latency is the caller's business.  Its
 * transitions are inline: they run per op inside every simulator's
 * issue loop.
 */

#ifndef MFUSIM_FUNITS_FUNCTIONAL_UNIT_HH
#define MFUSIM_FUNITS_FUNCTIONAL_UNIT_HH

#include <algorithm>
#include <cassert>

#include "mfusim/core/types.hh"

namespace mfusim
{

/** Pipelining discipline of a functional unit. */
enum class FuDiscipline
{
    kSegmented,     //!< accepts one operation per cycle
    kNonSegmented,  //!< busy for the whole operation latency
};

/**
 * One functional unit's accept-availability timeline.
 */
class FunctionalUnit
{
  public:
    explicit FunctionalUnit(FuDiscipline discipline =
                            FuDiscipline::kSegmented)
        : discipline_(discipline)
    {}

    /** Earliest cycle at which a new operation can be accepted. */
    ClockCycle nextFree() const { return nextFree_; }

    /** True if an operation can be accepted at cycle @p when. */
    bool
    canAccept(ClockCycle when) const
    {
        return when >= nextFree_;
    }

    /**
     * Accept an operation at cycle @p when with result latency
     * @p latency.  @p when must be >= nextFree().
     *
     * @param occupancy cycles the unit is held by this operation: 1
     *        for scalar ops; a vector op streams one element per
     *        cycle and holds even a segmented unit for VL cycles.
     */
    void
    accept(ClockCycle when, unsigned latency, unsigned occupancy = 1)
    {
        assert(canAccept(when) && "accepted an op while busy");
        assert(occupancy >= 1);
        // A segmented unit starts one new operation per cycle; a
        // vector operation feeds it one element per cycle and so
        // holds it for its whole occupancy.
        nextFree_ = discipline_ == FuDiscipline::kSegmented
                        ? when + occupancy
                        : when + std::max(latency, occupancy);
    }

    FuDiscipline discipline() const { return discipline_; }

    /** Forget all reservations (start a new simulation). */
    void reset() { nextFree_ = 0; }

    /**
     * Shift the timeline forward by @p delta cycles (steady-state
     * extrapolation): behavior relative to the equally shifted
     * simulation clock is unchanged.
     */
    void shiftTime(ClockCycle delta) { nextFree_ += delta; }

  private:
    FuDiscipline discipline_;
    ClockCycle nextFree_ = 0;
};

} // namespace mfusim

#endif // MFUSIM_FUNITS_FUNCTIONAL_UNIT_HH
