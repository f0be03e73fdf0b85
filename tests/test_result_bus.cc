/**
 * @file
 * Result-bus reservation tests.
 */

#include <vector>

#include <gtest/gtest.h>

#include "mfusim/funits/result_bus.hh"

namespace mfusim
{
namespace
{

TEST(CycleReservations, ReserveAndQuery)
{
    CycleReservations res;
    EXPECT_FALSE(res.isReserved(5));
    EXPECT_TRUE(res.tryReserve(5));
    EXPECT_TRUE(res.isReserved(5));
    EXPECT_FALSE(res.tryReserve(5));
    EXPECT_FALSE(res.isReserved(4));
    EXPECT_FALSE(res.isReserved(6));
}

TEST(CycleReservations, AdvancePreservesFutureReservations)
{
    CycleReservations res;
    res.tryReserve(10);
    res.tryReserve(20);
    res.advanceTo(15);
    EXPECT_FALSE(res.isReserved(10));   // past, forgotten
    EXPECT_TRUE(res.isReserved(20));
}

TEST(CycleReservations, AdvanceFarClearsEverything)
{
    CycleReservations res;
    res.tryReserve(3);
    res.advanceTo(1000);
    EXPECT_FALSE(res.isReserved(1000));
    EXPECT_TRUE(res.tryReserve(1001));
}

TEST(CycleReservations, WindowEdge)
{
    CycleReservations res;
    res.advanceTo(100);
    EXPECT_TRUE(res.tryReserve(100));
    EXPECT_TRUE(res.tryReserve(163));   // last cycle in window
    EXPECT_TRUE(res.isReserved(163));
}

TEST(ResultBusSet, SingleBusConflicts)
{
    ResultBusSet bus(BusKind::kSingle, 4);
    EXPECT_EQ(bus.numBusses(), 1u);
    EXPECT_TRUE(bus.canReserve(0, 7));
    bus.reserve(0, 7);
    // All units share the one bus.
    EXPECT_FALSE(bus.canReserve(3, 7));
    EXPECT_TRUE(bus.canReserve(3, 8));
}

TEST(ResultBusSet, PerUnitBussesAreIndependent)
{
    ResultBusSet bus(BusKind::kPerUnit, 4);
    EXPECT_EQ(bus.numBusses(), 4u);
    bus.reserve(0, 7);
    EXPECT_FALSE(bus.canReserve(0, 7));
    EXPECT_TRUE(bus.canReserve(1, 7));
    EXPECT_TRUE(bus.canReserve(2, 7));
    bus.reserve(1, 7);
    EXPECT_FALSE(bus.canReserve(1, 7));
}

TEST(ResultBusSet, CrossbarUsesAnyFreeBus)
{
    ResultBusSet bus(BusKind::kCrossbar, 2);
    // Two results in the same cycle fit on the two busses
    // regardless of which unit produced them.
    EXPECT_TRUE(bus.canReserve(0, 9));
    bus.reserve(0, 9);
    EXPECT_TRUE(bus.canReserve(0, 9));  // second bus still free
    bus.reserve(0, 9);
    EXPECT_FALSE(bus.canReserve(1, 9)); // both taken now
    EXPECT_TRUE(bus.canReserve(1, 10));
}

TEST(ResultBusSet, AdvanceAllBusses)
{
    ResultBusSet bus(BusKind::kPerUnit, 2);
    bus.reserve(0, 5);
    bus.advanceTo(60);              // slides both bus windows
    bus.reserve(1, 70);
    EXPECT_TRUE(bus.canReserve(0, 65));
    EXPECT_TRUE(bus.canReserve(0, 70));     // bus 0 free at 70
    EXPECT_FALSE(bus.canReserve(1, 70));    // bus 1 taken at 70
}

TEST(ResultBusSet, Names)
{
    EXPECT_STREQ(busKindName(BusKind::kPerUnit), "N-Bus");
    EXPECT_STREQ(busKindName(BusKind::kSingle), "1-Bus");
    EXPECT_STREQ(busKindName(BusKind::kCrossbar), "X-Bar");
}

TEST(SparseReservations, ReservationsOutOfCycleOrder)
{
    SparseReservations res;
    res.reserve(100);       // far beyond any 64-cycle window
    res.reserve(5);         // before an earlier reservation
    res.reserve(7);
    EXPECT_EQ(res.nextFreeSlot(4), 4u);
    EXPECT_EQ(res.nextFreeSlot(5), 6u);
    EXPECT_EQ(res.nextFreeSlot(7), 8u);
    EXPECT_EQ(res.nextFreeSlot(100), 101u);
    res.reserve(6);         // fills the gap between 5 and 7
    EXPECT_EQ(res.nextFreeSlot(5), 8u);
}

TEST(SparseReservations, NextFreeSlotSkipsTakenRun)
{
    SparseReservations res;
    for (const ClockCycle t : { 24, 20, 22, 29, 21, 23, 26, 25, 28, 27 })
        res.reserve(t);     // 20..29, shuffled
    EXPECT_EQ(res.nextFreeSlot(19), 19u);
    EXPECT_EQ(res.nextFreeSlot(20), 30u);
    EXPECT_EQ(res.nextFreeSlot(25), 30u);
    EXPECT_EQ(res.nextFreeSlot(30), 30u);
    res.advanceTo(25);      // forgets 20..24 only
    EXPECT_EQ(res.nextFreeSlot(20), 20u);
    EXPECT_EQ(res.nextFreeSlot(25), 30u);
}

TEST(SparseReservations, ShiftedSignaturesMatchAndDropStaleSlots)
{
    SparseReservations a, b;
    for (const ClockCycle t : { 3, 10, 12, 13, 15 })
        a.reserve(t);
    for (const ClockCycle t : { 113, 110, 115, 112 })
        b.reserve(t);       // a shifted by 100, without stale slot 3
    std::vector<std::uint64_t> sigA, sigB;
    a.appendSignature(10, sigA);    // drops 3 and 10 (at the base)
    b.appendSignature(110, sigB);
    const std::vector<std::uint64_t> want = { 3, 2, 3, 5 };
    EXPECT_EQ(sigA, want);
    EXPECT_EQ(sigB, want);
    EXPECT_EQ(a.nextFreeSlot(3), 3u);   // pruned for good
    EXPECT_EQ(a.nextFreeSlot(12), 14u);
}

TEST(SparseReservations, ShiftTimeMovesEverySlot)
{
    SparseReservations res;
    for (const ClockCycle t : { 9, 5, 6 })
        res.reserve(t);
    res.shiftTime(100);
    EXPECT_EQ(res.nextFreeSlot(5), 5u);
    EXPECT_EQ(res.nextFreeSlot(9), 9u);
    EXPECT_EQ(res.nextFreeSlot(105), 107u);
    EXPECT_EQ(res.nextFreeSlot(108), 108u);
    EXPECT_EQ(res.nextFreeSlot(109), 110u);
}

} // namespace
} // namespace mfusim
