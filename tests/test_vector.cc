/**
 * @file
 * Vector-unit extension tests: interpreter semantics, strip-mined
 * kernel validation, vector timing (occupancy + chaining) and the
 * scalar-only guards in the multiple-issue machines.
 */

#include <gtest/gtest.h>

#include "mfusim/codegen/interpreter.hh"
#include "mfusim/codegen/livermore.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::traceOf;

constexpr RegId V1 = regV(1);
constexpr RegId V2 = regV(2);
constexpr RegId V3 = regV(3);

DynOp
vop(Op op, RegId dst, RegId srcA, RegId srcB, unsigned vl)
{
    DynOp d = dyn(op, dst, srcA, srcB);
    d.vl = std::uint8_t(vl);
    return d;
}

// ---- interpreter semantics ------------------------------------------

TEST(VectorInterpreter, LoadComputeStore)
{
    Assembler as;
    as.aconst(A1, 8);           // VL = 8
    as.vsetlen(A1);
    as.aconst(A2, 0);           // src x
    as.aconst(A3, 100);         // src y
    as.aconst(A4, 200);         // dst
    as.vload(V1, A2, 1);
    as.vload(V2, A3, 1);
    as.vfadd(V3, V1, V2);
    as.vstore(A4, 1, V3);
    as.halt();
    Program p = as.finish();
    Interpreter interp(p, 300);
    for (int i = 0; i < 8; ++i) {
        interp.pokeMemF(std::uint64_t(i), double(i));
        interp.pokeMemF(std::uint64_t(100 + i), 10.0 * i);
    }
    const DynTrace trace("v", p.code, interp.run());
    for (int i = 0; i < 8; ++i)
        EXPECT_DOUBLE_EQ(interp.peekMemF(std::uint64_t(200 + i)),
                         11.0 * i);
    // vl recorded on every vector op.
    for (const DynOp &op : trace.ops()) {
        if (isVector(op.op)) {
            EXPECT_EQ(op.vl, 8u);
        }
    }
}

TEST(VectorInterpreter, StridedLoad)
{
    Assembler as;
    as.aconst(A1, 4);
    as.vsetlen(A1);
    as.aconst(A2, 0);
    as.vload(V1, A2, 3);        // stride 3
    as.aconst(A3, 50);
    as.vstore(A3, 1, V1);
    as.halt();
    Program p = as.finish();
    Interpreter interp(p, 100);
    for (int i = 0; i < 12; ++i)
        interp.pokeMemF(std::uint64_t(i), double(i));
    interp.run();
    EXPECT_DOUBLE_EQ(interp.peekMemF(50), 0.0);
    EXPECT_DOUBLE_EQ(interp.peekMemF(51), 3.0);
    EXPECT_DOUBLE_EQ(interp.peekMemF(52), 6.0);
    EXPECT_DOUBLE_EQ(interp.peekMemF(53), 9.0);
}

TEST(VectorInterpreter, ScalarVectorForms)
{
    Assembler as;
    as.aconst(A1, 3);
    as.vsetlen(A1);
    as.sconstf(S1, 2.0);
    as.aconst(A2, 0);
    as.vload(V1, A2, 1);
    as.vfmulsv(V2, S1, V1);
    as.vfaddsv(V3, S1, V2);
    as.aconst(A3, 20);
    as.vstore(A3, 1, V3);
    as.halt();
    Program p = as.finish();
    Interpreter interp(p, 50);
    for (int i = 0; i < 3; ++i)
        interp.pokeMemF(std::uint64_t(i), double(i + 1));
    interp.run();
    for (int i = 0; i < 3; ++i)
        EXPECT_DOUBLE_EQ(interp.peekMemF(std::uint64_t(20 + i)),
                         2.0 * (i + 1) + 2.0);
}

TEST(VectorInterpreter, BadVlThrows)
{
    Assembler as;
    as.aconst(A1, 0);
    as.vsetlen(A1);
    as.halt();
    Program p = as.finish();
    Interpreter interp(p, 16);
    EXPECT_THROW(interp.run(), std::runtime_error);

    Assembler as2;
    as2.aconst(A1, 65);
    as2.vsetlen(A1);
    as2.halt();
    Program p2 = as2.finish();
    Interpreter interp2(p2, 16);
    EXPECT_THROW(interp2.run(), std::runtime_error);
}

// ---- strip-mined kernels --------------------------------------------

class VectorizedKernel : public ::testing::TestWithParam<int>
{
};

TEST_P(VectorizedKernel, MatchesScalarReference)
{
    const Kernel kernel = buildVectorizedKernel(GetParam());
    const KernelRun run = runKernel(kernel);
    EXPECT_GT(run.checkedCells, 0u);
    EXPECT_EQ(run.mismatches, 0u) << "loop " << GetParam();
}

TEST_P(VectorizedKernel, FarFewerInstructionsThanScalar)
{
    const KernelRun vec =
        runKernel(buildVectorizedKernel(GetParam()));
    const DynTrace scalar = traceKernel(GetParam());
    EXPECT_LT(vec.trace.size() * 10, scalar.size())
        << "loop " << GetParam();
}

TEST_P(VectorizedKernel, VectorSpeedupOnCrayLikeMachine)
{
    const KernelRun vec =
        runKernel(buildVectorizedKernel(GetParam()));
    const DynTrace scalar = traceKernel(GetParam());
    ScoreboardSim cray(ScoreboardConfig::crayLike(), configM11BR5());
    const ClockCycle v_cycles = cray.run(vec.trace).cycles;
    const ClockCycle s_cycles = cray.run(scalar).cycles;
    EXPECT_GT(double(s_cycles) / double(v_cycles), 5.0)
        << "loop " << GetParam();
}

TEST_P(VectorizedKernel, ChainingHelps)
{
    const KernelRun vec =
        runKernel(buildVectorizedKernel(GetParam()));
    ScoreboardConfig chained = ScoreboardConfig::crayLike();
    ScoreboardConfig unchained = ScoreboardConfig::crayLike();
    unchained.vectorChaining = false;
    const MachineConfig cfg = configM11BR5();
    const ClockCycle with_chain =
        ScoreboardSim(chained, cfg).run(vec.trace).cycles;
    const ClockCycle without =
        ScoreboardSim(unchained, cfg).run(vec.trace).cycles;
    EXPECT_LT(with_chain, without) << "loop " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Loops, VectorizedKernel,
                         ::testing::Values(1, 7, 12));

// ---- timing goldens ---------------------------------------------------

TEST(VectorTiming, OccupancyHoldsTheUnit)
{
    // Two independent 16-element vfadds: the FP add unit streams one
    // element per cycle, so the second starts 16 cycles later.
    const DynTrace trace = traceOf({
        vop(Op::kVFAdd, V1, V2, V3, 16),
        vop(Op::kVFAdd, regV(4), regV(5), regV(6), 16),
    });
    ScoreboardSim cray(ScoreboardConfig::crayLike(), configM11BR5());
    // First: issue 0, last element at 0+6+15 = 21.  Second: unit
    // free at 16, last element at 16+6+15 = 37.
    EXPECT_EQ(cray.run(trace).cycles, 37u);
}

TEST(VectorTiming, ChainedConsumerStartsAfterFirstElement)
{
    // vload (VL=16) feeding vfadd: chained, the vfadd starts when
    // the first loaded element arrives.
    const DynTrace trace = traceOf({
        vop(Op::kVLoad, V1, A1, kNoReg, 16),
        vop(Op::kVFAdd, V2, V1, V1, 16),
    });
    const MachineConfig cfg = configM11BR5();
    ScoreboardConfig chained = ScoreboardConfig::crayLike();
    // Load: issue 0, first element 11+1 = 12, last 0+11+15 = 26.
    // Chained vfadd: issue 12, last element 12+6+15 = 33.
    EXPECT_EQ(ScoreboardSim(chained, cfg).run(trace).cycles, 33u);

    ScoreboardConfig unchained = ScoreboardConfig::crayLike();
    unchained.vectorChaining = false;
    // Unchained: vfadd waits for the full load (26), ends 26+6+15=47.
    EXPECT_EQ(ScoreboardSim(unchained, cfg).run(trace).cycles, 47u);
}

TEST(VectorTiming, SimpleMachineSerializesElements)
{
    const DynTrace trace = traceOf({
        vop(Op::kVFAdd, V1, V2, V3, 64),
    });
    SimpleSim sim(configM11BR5());
    // 6-cycle latency + 63 further elements.
    EXPECT_EQ(sim.run(trace).cycles, 69u);
}

TEST(VectorTiming, DataflowLimitCountsElements)
{
    // One 64-element vfadd: resource time = 64 elements + 6 latency.
    const DynTrace trace = traceOf({
        vop(Op::kVFAdd, V1, V2, V3, 64),
    });
    const LimitResult limit = computeLimits(trace, configM11BR5());
    EXPECT_EQ(limit.resourceCycles, 70u);
    EXPECT_EQ(limit.pseudoCycles, 69u);
}

// ---- scalar-only guards ------------------------------------------------

TEST(VectorGuards, MultiIssueRejectsVectorTraces)
{
    const DynTrace trace = traceOf({
        vop(Op::kVFAdd, V1, V2, V3, 8),
    });
    MultiIssueSim multi({ 4, true, BusKind::kPerUnit, false },
                        configM11BR5());
    EXPECT_THROW(multi.run(trace), SimError);
    RuuSim ruu({ 2, 20, BusKind::kPerUnit }, configM11BR5());
    EXPECT_THROW(ruu.run(trace), SimError);

    // Batched lanes of either issue order refuse it the same way.
    const DecodedTrace decoded(trace, configM11BR5());
    MultiIssueSim seq({ 4, false, BusKind::kPerUnit, false },
                      configM11BR5());
    EXPECT_THROW(runBatch({ { &multi, &decoded }, { &seq, &decoded } }),
                 SimError);
}

} // namespace
} // namespace mfusim
