/**
 * @file
 * Synthetic workload tests: analytic limits and machine responses
 * for each controlled dependence structure.
 */

#include <gtest/gtest.h>

#include "mfusim/codegen/synthetic.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/dataflow/trace_analysis.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"

namespace mfusim
{
namespace
{

using namespace synthetic;

TEST(Synthetic, ChainIsWidthOne)
{
    const DynTrace trace = chain(100);
    const WidthProfile profile =
        widthProfile(DecodedTrace(trace, configM11BR5()));
    EXPECT_EQ(profile.peakWidth, 1u);
    // Pseudo-dataflow: 100 fadds x 6 cycles = 600.
    const LimitResult limit = computeLimits(trace, configM11BR5());
    EXPECT_EQ(limit.pseudoCycles, 600u);
    EXPECT_DOUBLE_EQ(limit.pseudoRate, 100.0 / 600.0);
}

TEST(Synthetic, ChainDefeatsEveryMachine)
{
    // No machine can beat 1/latency on a serial chain; the RUU gets
    // close to it.
    const DynTrace trace = chain(200);
    RuuSim ruu({ 4, 64, BusKind::kPerUnit }, configM11BR5());
    const double rate = ruu.run(trace).issueRate();
    EXPECT_LE(rate, 1.0 / 6.0 + 1e-9);
    EXPECT_GT(rate, 1.0 / 6.0 * 0.9);
}

TEST(Synthetic, IndependentOpsAreThroughputBound)
{
    const DynTrace trace = independent(300);
    // Resource limit: 300 ops on the FP add unit = 300 + 6 cycles.
    const LimitResult limit = computeLimits(trace, configM11BR5());
    EXPECT_EQ(limit.resourceCycles, 306u);
    EXPECT_NEAR(limit.actualRate, 300.0 / 306.0, 1e-9);
    // The RUU approaches 1/cycle.
    RuuSim ruu({ 2, 40, BusKind::kPerUnit }, configM11BR5());
    EXPECT_GT(ruu.run(trace).issueRate(), 0.85);
}

TEST(Synthetic, TreeHasLogDepth)
{
    const DynTrace trace = reductionTree(8);
    // 8 loads + 4 + 2 + 1 fadds = 15 ops.
    EXPECT_EQ(trace.size(), 15u);
    // Critical path: load (11) + 3 fadd levels (18) = 29.
    const LimitResult limit = computeLimits(trace, configM11BR5());
    EXPECT_EQ(limit.pseudoCycles, 29u);
    const WidthProfile profile =
        widthProfile(DecodedTrace(trace, configM11BR5()));
    EXPECT_EQ(profile.peakWidth, 8u);
}

TEST(Synthetic, WawStormSeparatesRenamingFromBlocking)
{
    const DynTrace trace = wawStorm(200);
    const MachineConfig cfg = configM11BR5();
    ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
    RuuSim ruu({ 2, 40, BusKind::kPerUnit }, cfg);
    const double blocking_rate = cray.run(trace).issueRate();
    const double renamed_rate = ruu.run(trace).issueRate();
    // Blocking: every logical op waits out the previous multiply's
    // 7-cycle register reservation; renaming runs at unit speed.
    EXPECT_LT(blocking_rate, 0.35);
    EXPECT_GT(renamed_rate, 0.75);
    EXPECT_GT(renamed_rate, blocking_rate * 2.5);
}

TEST(Synthetic, MemoryStreamBoundByPort)
{
    const DynTrace trace = memoryStream(300, 70);
    // Interleaved port: 1 ref/cycle max.
    ScoreboardSim cray(ScoreboardConfig::crayLike(), configM11BR5());
    EXPECT_LE(cray.run(trace).issueRate(), 1.0);
    // Serial memory: ~ 1 ref / 11 cycles.
    ScoreboardSim serial(ScoreboardConfig::serialMemory(),
                         configM11BR5());
    const double serial_rate = serial.run(trace).issueRate();
    EXPECT_NEAR(serial_rate, 1.0 / 11.0, 0.01);
}

TEST(Synthetic, MemoryStreamComposition)
{
    const TraceStats stats = memoryStream(1000, 70).stats();
    EXPECT_EQ(stats.loads, 700u);
    EXPECT_EQ(stats.stores, 300u);
}

TEST(Synthetic, LoopPatternIsBranchGated)
{
    const DynTrace trace = loopPattern(6, 50);
    const TraceStats stats = trace.stats();
    EXPECT_EQ(stats.branches, 50u);
    EXPECT_EQ(stats.takenBranches, 49u);
    // Dataflow: per iteration the decrement (2) + branch (5) chain
    // gates the next iteration: 7 cycles per iteration.
    const LimitResult limit = computeLimits(trace, configM11BR5());
    EXPECT_NEAR(limit.pseudoRate, 8.0 / 7.0, 0.02);
    // With a fast branch the gate shrinks to 2 + 2.
    const LimitResult fast = computeLimits(trace, configM11BR2());
    EXPECT_NEAR(fast.pseudoRate, 8.0 / 4.0, 0.06);
}

TEST(Synthetic, ChainOfEveryTwoSrcOpClass)
{
    for (const Op op : { Op::kFAdd, Op::kFMul, Op::kSAdd,
                         Op::kSAnd }) {
        const DynTrace trace = chain(50, op);
        const LimitResult limit =
            computeLimits(trace, configM11BR5());
        const unsigned lat = latencyOf(op, configM11BR5());
        EXPECT_EQ(limit.pseudoCycles, 50u * lat)
            << mnemonicOf(op);
    }
}

} // namespace
} // namespace mfusim
