/**
 * @file
 * Functional unit, memory port, and FU pool timing tests.
 */

#include <gtest/gtest.h>

#include "mfusim/funits/fu_pool.hh"

namespace mfusim
{
namespace
{

/** @p op's unit class, as decode resolves it. */
FuClass
fuOf(Op op)
{
    return traitsOf(op).fu;
}

/** Accept @p op at @p when with its latency under @p cfg. */
ClockCycle
acceptOp(FuPool &pool, Op op, ClockCycle when,
         const MachineConfig &cfg = configM11BR5())
{
    return pool.accept(fuOf(op), when, latencyOf(op, cfg));
}

TEST(FunctionalUnit, SegmentedAcceptsEveryCycle)
{
    FunctionalUnit fu(FuDiscipline::kSegmented);
    EXPECT_TRUE(fu.canAccept(0));
    fu.accept(0, 7);
    EXPECT_FALSE(fu.canAccept(0));
    EXPECT_TRUE(fu.canAccept(1));
    fu.accept(1, 7);
    EXPECT_EQ(fu.nextFree(), 2u);
}

TEST(FunctionalUnit, NonSegmentedBusyForFullLatency)
{
    FunctionalUnit fu(FuDiscipline::kNonSegmented);
    fu.accept(0, 7);
    EXPECT_FALSE(fu.canAccept(6));
    EXPECT_TRUE(fu.canAccept(7));
    fu.accept(7, 2);
    EXPECT_EQ(fu.nextFree(), 9u);
}

TEST(MemoryPort, SerialOccupiesFullLatency)
{
    MemoryPort mem(MemDiscipline::kSerial, 11);
    EXPECT_EQ(mem.accept(0), 11u);
    EXPECT_FALSE(mem.canAccept(10));
    EXPECT_TRUE(mem.canAccept(11));
    EXPECT_EQ(mem.accept(11), 22u);
}

TEST(MemoryPort, InterleavedPipelines)
{
    MemoryPort mem(MemDiscipline::kInterleaved, 11);
    EXPECT_EQ(mem.accept(0), 11u);
    EXPECT_TRUE(mem.canAccept(1));
    EXPECT_EQ(mem.accept(1), 12u);
    EXPECT_FALSE(mem.canAccept(1));
}

TEST(MemoryPort, LatencyFollowsConstruction)
{
    MemoryPort fast(MemDiscipline::kInterleaved, 5);
    EXPECT_EQ(fast.accept(3), 8u);
    EXPECT_EQ(fast.latency(), 5u);
}

TEST(FuPool, RoutesOpsToDistinctUnits)
{
    FuPool pool({ FuDiscipline::kNonSegmented,
                  MemDiscipline::kInterleaved },
                configM11BR5());
    // An fadd makes the FP add unit busy but not the multiplier.
    acceptOp(pool, Op::kFAdd, 0);
    EXPECT_FALSE(pool.canAccept(fuOf(Op::kFSub), 3));     // same unit
    EXPECT_TRUE(pool.canAccept(fuOf(Op::kFMul), 3));      // different unit
    EXPECT_TRUE(pool.canAccept(fuOf(Op::kAAdd), 0));
}

TEST(FuPool, AcceptReturnsResultTime)
{
    FuPool pool({ FuDiscipline::kSegmented,
                  MemDiscipline::kInterleaved },
                configM11BR5());
    EXPECT_EQ(acceptOp(pool, Op::kFAdd, 10), 16u);
    EXPECT_EQ(acceptOp(pool, Op::kFMul, 10), 17u);
    EXPECT_EQ(acceptOp(pool, Op::kLoadS, 10), 21u);
    EXPECT_EQ(acceptOp(pool, Op::kFRecip, 10), 24u);
}

TEST(FuPool, TransfersNeverContend)
{
    FuPool pool({ FuDiscipline::kNonSegmented,
                  MemDiscipline::kSerial },
                configM11BR5());
    EXPECT_EQ(acceptOp(pool, Op::kSMovA, 0), 1u);
    EXPECT_TRUE(pool.canAccept(fuOf(Op::kSConst), 0));
    EXPECT_EQ(acceptOp(pool, Op::kSConst, 0), 1u);
}

TEST(FuPool, MemoryDisciplineHonored)
{
    FuPool serial({ FuDiscipline::kSegmented, MemDiscipline::kSerial },
                  configM11BR5());
    acceptOp(serial, Op::kLoadS, 0);
    EXPECT_EQ(serial.earliestAccept(fuOf(Op::kStoreS), 0), 11u);

    FuPool inter({ FuDiscipline::kSegmented,
                   MemDiscipline::kInterleaved },
                 configM11BR5());
    acceptOp(inter, Op::kLoadS, 0);
    EXPECT_EQ(inter.earliestAccept(fuOf(Op::kStoreS), 0), 1u);
}

TEST(FuPool, SfixSharesFpAddUnit)
{
    FuPool pool({ FuDiscipline::kNonSegmented,
                  MemDiscipline::kInterleaved },
                configM11BR5());
    acceptOp(pool, Op::kSFix, 0);
    EXPECT_EQ(pool.earliestAccept(fuOf(Op::kFAdd), 0), 6u);
}

TEST(FuPool, MemoryLatencyFromConfig)
{
    FuPool pool({ FuDiscipline::kSegmented,
                  MemDiscipline::kInterleaved },
                configM5BR5());
    EXPECT_EQ(acceptOp(pool, Op::kLoadS, 0, configM5BR5()), 5u);
}

} // namespace
} // namespace mfusim
