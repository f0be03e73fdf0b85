/**
 * @file
 * Replicated functional units / memory ports (extension) tests.
 */

#include <gtest/gtest.h>

#include "mfusim/codegen/synthetic.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/funits/fu_pool.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::traceOf;

TEST(FuReplication, TwoCopiesAcceptTwoPerCycle)
{
    FuPool pool({ FuDiscipline::kNonSegmented,
                  MemDiscipline::kInterleaved, 2, 1 },
                configM11BR5());
    // Two non-segmented fadds (latency 6) at cycle 0: both accepted.
    EXPECT_TRUE(pool.canAccept(FuClass::kFpAdd, 0));
    pool.accept(FuClass::kFpAdd, 0, 6);
    EXPECT_TRUE(pool.canAccept(FuClass::kFpAdd, 0));
    pool.accept(FuClass::kFpAdd, 0, 6);
    // Third must wait for a unit to free.
    EXPECT_FALSE(pool.canAccept(FuClass::kFpAdd, 0));
    EXPECT_EQ(pool.earliestAccept(FuClass::kFpAdd, 0), 6u);
}

TEST(FuReplication, TwoMemoryPortsDoubleStreamRate)
{
    FuPool pool({ FuDiscipline::kSegmented,
                  MemDiscipline::kInterleaved, 1, 2 },
                configM11BR5());
    pool.accept(FuClass::kMemory, 0, 11);
    EXPECT_TRUE(pool.canAccept(FuClass::kMemory, 0));   // second port
    pool.accept(FuClass::kMemory, 0, 11);
    EXPECT_FALSE(pool.canAccept(FuClass::kMemory, 0));
    EXPECT_TRUE(pool.canAccept(FuClass::kMemory, 1));
}

TEST(FuReplication, ResourceLimitScalesWithCopies)
{
    const DynTrace trace = synthetic::independent(300);  // fadds
    const LimitResult one =
        computeLimits(trace, configM11BR5(), false, 1, 1);
    const LimitResult two =
        computeLimits(trace, configM11BR5(), false, 2, 1);
    EXPECT_EQ(one.resourceCycles, 306u);
    EXPECT_EQ(two.resourceCycles, 156u);
    // Pseudo limit unchanged (unlimited resources by definition).
    EXPECT_EQ(one.pseudoCycles, two.pseudoCycles);
}

TEST(FuReplication, MemPortsScaleMemoryResourceLimit)
{
    const DynTrace trace = synthetic::memoryStream(400, 100);
    const LimitResult one =
        computeLimits(trace, configM11BR5(), false, 1, 1);
    const LimitResult two =
        computeLimits(trace, configM11BR5(), false, 1, 2);
    EXPECT_EQ(one.resourceCycles, 411u);
    EXPECT_EQ(two.resourceCycles, 211u);
}

TEST(FuReplication, ScoreboardBenefitsOnIndependentWork)
{
    // Two copies let back-to-back NonSegmented ops overlap.
    const DynTrace trace = traceOf({
        dyn(Op::kFAdd, S1, S6, S7),
        dyn(Op::kFAdd, S2, S6, S7),
    });
    ScoreboardConfig one = ScoreboardConfig::nonSegmented();
    ScoreboardConfig two = ScoreboardConfig::nonSegmented();
    two.fuCopies = 2;
    const MachineConfig cfg = configM11BR5();
    // One copy: second fadd waits until 6, done 12.
    EXPECT_EQ(ScoreboardSim(one, cfg).run(trace).cycles, 12u);
    // Two copies: issues at 1... completion 7 collides with 6?  No:
    // 0+6=6 and 1+6=7 -> fine; done 7.
    EXPECT_EQ(ScoreboardSim(two, cfg).run(trace).cycles, 7u);
}

TEST(FuReplication, RuuMemoryBoundLoopGainsFromSecondPort)
{
    // A memory stream is port-bound on the RUU machine: a second
    // port nearly doubles throughput.
    const DynTrace trace = synthetic::memoryStream(400, 70);
    const MachineConfig cfg = configM11BR5();
    RuuSim one({ 4, 64, BusKind::kPerUnit, 1, 1 }, cfg);
    RuuSim two({ 4, 64, BusKind::kPerUnit, 1, 2 }, cfg);
    const double r1 = one.run(trace).issueRate();
    const double r2 = two.run(trace).issueRate();
    EXPECT_GT(r2, r1 * 1.5);
}

TEST(FuReplication, ExtraUnitsNeverHurtMuchOnBenchmarks)
{
    const MachineConfig cfg = configM11BR5();
    for (int id : { 1, 5, 7 }) {
        const DynTrace &trace = TraceLibrary::instance().trace(id);
        RuuSim base({ 4, 64, BusKind::kPerUnit }, cfg);
        RuuSim wide({ 4, 64, BusKind::kPerUnit, 4, 2 }, cfg);
        const double r_base = base.run(trace).issueRate();
        const double r_wide = wide.run(trace).issueRate();
        EXPECT_GE(r_wide, r_base * 0.97) << "loop " << id;
    }
}

} // namespace
} // namespace mfusim
