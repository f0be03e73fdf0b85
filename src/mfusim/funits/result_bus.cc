/**
 * @file
 * Result-bus reservation implementation.
 */

#include "mfusim/funits/result_bus.hh"

#include <algorithm>
#include <cassert>

namespace mfusim
{

ClockCycle
ResultBusSet::earliestReserve(unsigned unit,
                              ClockCycle completion) const
{
    switch (kind_) {
      case BusKind::kSingle:
        return busses_[0].nextFreeSlot(completion);
      case BusKind::kPerUnit:
        assert(unit < busses_.size());
        return busses_[unit].nextFreeSlot(completion);
      default:  // crossbar: first cycle at which any bus is free
        {
            ClockCycle best = busses_[0].nextFreeSlot(completion);
            for (std::size_t b = 1; b < busses_.size(); ++b) {
                best = std::min(best,
                                busses_[b].nextFreeSlot(completion));
            }
            return best;
        }
    }
}

void
ResultBusSet::shiftTime(ClockCycle delta)
{
    for (CycleReservations &bus : busses_)
        bus.shiftTime(delta);
}

void
ResultBusSet::appendSignature(ClockCycle base,
                              std::vector<std::uint64_t> &out)
{
    for (CycleReservations &bus : busses_) {
        bus.advanceTo(base);
        out.push_back(bus.bits());
    }
}

const char *
busKindName(BusKind kind)
{
    switch (kind) {
      case BusKind::kPerUnit:
        return "N-Bus";
      case BusKind::kSingle:
        return "1-Bus";
      default:
        return "X-Bar";
    }
}

ResultBusSet::ResultBusSet(BusKind kind, unsigned numUnits)
    : kind_(kind)
{
    assert(numUnits >= 1);
    const unsigned count = kind == BusKind::kSingle ? 1 : numUnits;
    busses_.resize(count);
}

bool
ResultBusSet::canReserve(unsigned unit, ClockCycle completion) const
{
    switch (kind_) {
      case BusKind::kSingle:
        return !busses_[0].isReserved(completion);
      case BusKind::kPerUnit:
        assert(unit < busses_.size());
        return !busses_[unit].isReserved(completion);
      default:  // crossbar: any free bus will do
        for (const CycleReservations &bus : busses_) {
            if (!bus.isReserved(completion))
                return true;
        }
        return false;
    }
}

void
ResultBusSet::reserve(unsigned unit, ClockCycle completion)
{
    switch (kind_) {
      case BusKind::kSingle:
        {
            const bool ok = busses_[0].tryReserve(completion);
            assert(ok && "1-Bus slot taken");
            (void)ok;
        }
        break;
      case BusKind::kPerUnit:
        {
            assert(unit < busses_.size());
            const bool ok = busses_[unit].tryReserve(completion);
            assert(ok && "N-Bus slot taken");
            (void)ok;
        }
        break;
      default:
        for (CycleReservations &bus : busses_) {
            if (bus.tryReserve(completion))
                return;
        }
        assert(false && "X-Bar: all busses taken");
        break;
    }
}

void
ResultBusSet::advanceTo(ClockCycle now)
{
    for (CycleReservations &bus : busses_)
        bus.advanceTo(now);
}

} // namespace mfusim
