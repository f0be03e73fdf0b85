/**
 * @file
 * Result-bus reservation models.
 *
 * A result bus carries a completing instruction's result from its
 * functional unit to the register file.  An instruction reserves a
 * bus slot for its completion cycle at issue time; if no slot is
 * available, issue blocks.  The paper studies three interconnects
 * for an N-issue-unit machine:
 *
 *  - N-Bus: N busses, the instruction issued by unit i must use
 *    bus i;
 *  - 1-Bus: a single shared bus (single register-file write port);
 *  - X-Bar: N busses, any instruction may use any free bus (the
 *    paper found this "essentially the same" as N-Bus).
 *
 * Branches and stores produce no register result and use no bus.
 *
 * Two timelines hold single-cycle reservations, both with
 * header-inline per-op methods:
 *
 *  - CycleReservations, a dense 64-cycle window, is the bus of the
 *    scoreboard, multiple-issue and RUU machines: they reserve in
 *    cycle order, at most 64 cycles ahead of the window base.
 *    ResultBusSet groups N of them and exposes each bus so a caller
 *    can slide only the one an op touches.
 *  - SparseReservations, an unbounded ordered list, is the CDC 6600
 *    result bus and Tomasulo's unit (memory port included) and CDB
 *    slots: both dispatch out of cycle order, so a reservation can
 *    land before earlier ones, and operand waits at the stations can
 *    put it more than 64 cycles past the issue cursor.
 *
 * The Simple machine has no bus.
 */

#ifndef MFUSIM_FUNITS_RESULT_BUS_HH
#define MFUSIM_FUNITS_RESULT_BUS_HH

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <vector>

#include "mfusim/core/types.hh"

namespace mfusim
{

/**
 * A sliding 64-cycle window of single-cycle reservations.
 *
 * Reservations are made at absolute cycles within [base, base+64);
 * advanceTo() slides the window forward as simulated time advances.
 * 64 cycles comfortably covers the maximum operation latency (14 for
 * the reciprocal unit, 11 for slow memory).
 */
class CycleReservations
{
  public:
    /** True if cycle @p t is already reserved. */
    bool
    isReserved(ClockCycle t) const
    {
        if (t < base_ || t >= base_ + 64)
            return false;
        return (bits_ >> (t - base_)) & 1;
    }

    /** Reserve cycle @p t; returns false if it was already taken. */
    bool
    tryReserve(ClockCycle t)
    {
        assert(t >= base_ && "reservation in the forgotten past");
        assert(t < base_ + 64 && "reservation beyond the 64-cycle window");
        const std::uint64_t mask = std::uint64_t(1) << (t - base_);
        if (bits_ & mask)
            return false;
        bits_ |= mask;
        return true;
    }

    /**
     * Slide the window so cycles before @p now can be forgotten.
     * Sliding composes: one step to @p now or many smaller ones
     * leave the same window, so callers may advance lazily.
     */
    void
    advanceTo(ClockCycle now)
    {
        if (now <= base_)
            return;
        const ClockCycle shift = now - base_;
        bits_ = shift >= 64 ? 0 : bits_ >> shift;
        base_ = now;
    }

    /**
     * Earliest unreserved cycle >= @p from.  Exact: reservations are
     * never cancelled, so between state changes this is the first
     * cycle at which tryReserve(@p from-or-later) can succeed.
     */
    ClockCycle
    nextFreeSlot(ClockCycle from) const
    {
        if (from < base_ || from >= base_ + 64)
            return from;        // forgotten past or beyond: free
        // countr_one finds the run of reserved cycles starting at
        // `from`; the window's high bits are zero past base_ + 64,
        // so the scan always terminates inside it.
        return from + std::countr_one(bits_ >> (from - base_));
    }

    /** Shift the whole window forward (steady-state extrapolation). */
    void shiftTime(ClockCycle delta) { base_ += delta; }

    /** Raw occupancy bits relative to base() (state signatures). */
    std::uint64_t bits() const { return bits_; }
    ClockCycle base() const { return base_; }

  private:
    ClockCycle base_ = 0;
    std::uint64_t bits_ = 0;
};

/**
 * An unbounded timeline of single-cycle reservations: the reserved
 * cycles themselves, in order.  Reservations may arrive in any cycle
 * order and at any distance ahead; only the ones in flight are live,
 * so the list stays short once advanceTo() forgets the past.
 */
class SparseReservations
{
  public:
    /**
     * Earliest unreserved cycle >= @p from.  Exact: reservations are
     * never cancelled, so between state changes this is the first
     * cycle at which reserve(@p from-or-later) can succeed.
     */
    ClockCycle
    nextFreeSlot(ClockCycle from) const
    {
        auto it = std::lower_bound(slots_.begin(), slots_.end(), from);
        while (it != slots_.end() && *it == from) {
            ++from;
            ++it;
        }
        return from;
    }

    /** Reserve cycle @p t, which must be free. */
    void
    reserve(ClockCycle t)
    {
        const auto it = std::lower_bound(slots_.begin(), slots_.end(), t);
        assert((it == slots_.end() || *it != t) && "slot taken");
        slots_.insert(it, t);
    }

    /** Forget reservations before @p now: no later probe reaches them. */
    void
    advanceTo(ClockCycle now)
    {
        slots_.erase(slots_.begin(),
                     std::lower_bound(slots_.begin(), slots_.end(), now));
    }

    /**
     * Append the live reservations, rebased to @p base, to @p out:
     * forgets every slot at or before @p base (no later probe
     * reaches them), then records the count and each slot's offset.
     */
    void
    appendSignature(ClockCycle base, std::vector<std::uint64_t> &out)
    {
        advanceTo(base + 1);
        out.push_back(slots_.size());
        for (const ClockCycle slot : slots_)
            out.push_back(slot - base);
    }

    /** Shift every reservation forward (steady-state extrapolation). */
    void
    shiftTime(ClockCycle delta)
    {
        for (ClockCycle &slot : slots_)
            slot += delta;
    }

  private:
    std::vector<ClockCycle> slots_;     // reserved cycles, ascending
};

/** Result-bus interconnect styles from the paper. */
enum class BusKind
{
    kPerUnit,   //!< N-Bus: issue unit i owns bus i
    kSingle,    //!< 1-Bus: one shared bus
    kCrossbar,  //!< X-Bar: any unit may use any free bus
};

/** Short display name: "N-Bus", "1-Bus" or "X-Bar". */
const char *busKindName(BusKind kind);

/**
 * The set of result busses of an N-issue-unit machine.
 */
class ResultBusSet
{
  public:
    ResultBusSet(BusKind kind, unsigned numUnits);

    /**
     * Can the instruction issued by unit @p unit deliver a result at
     * cycle @p completion?
     */
    bool canReserve(unsigned unit, ClockCycle completion) const;

    /** Commit the reservation; canReserve() must hold. */
    void reserve(unsigned unit, ClockCycle completion);

    /**
     * Earliest cycle >= @p completion at which unit @p unit could
     * deliver a result (the exact next-event time of a bus-conflict
     * stall: nothing changes before it while no new reservations are
     * made).
     */
    ClockCycle earliestReserve(unsigned unit,
                               ClockCycle completion) const;

    /** Slide all bus windows forward to @p now. */
    void advanceTo(ClockCycle now);

    /** Shift all windows forward (steady-state extrapolation). */
    void shiftTime(ClockCycle delta);

    /**
     * Append the busses' live state to @p out, rebased to @p base:
     * slides the windows to @p base (reservations strictly before it
     * can never conflict again) and records each occupancy word.
     */
    void appendSignature(ClockCycle base,
                         std::vector<std::uint64_t> &out);

    BusKind kind() const { return kind_; }
    unsigned numBusses() const { return unsigned(busses_.size()); }

    /**
     * One bus of the set.  Lets a caller that knows which bus an op
     * uses slide and reserve only that one: advancing lazily, per
     * touched bus, leaves every window as advanceTo() would.
     */
    CycleReservations &bus(std::size_t b) { return busses_[b]; }

  private:
    BusKind kind_;
    std::vector<CycleReservations> busses_;
};

} // namespace mfusim

#endif // MFUSIM_FUNITS_RESULT_BUS_HH
