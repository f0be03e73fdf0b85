/**
 * @file
 * The ",btfn" / ",oracle" machine-spec aliases (pred=btfn:w0 and
 * pred=perfect): golden timings on all three issue organizations,
 * ordering properties across the benchmark traces, and the pinned
 * cycles of the branch policies they replaced.
 */

#include <gtest/gtest.h>

#include "mfusim/codegen/interpreter.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/trace_library.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::traceOf;

DynOp
branch(bool taken, bool backward)
{
    DynOp op = dyn(Op::kBrANZ, kNoReg, A0, kNoReg, taken);
    op.backward = backward;
    return op;
}

/** Cycles of @p trace on machine spec @p machine under M11BR5. */
ClockCycle
cyclesOn(const std::string &machine, const DynTrace &trace)
{
    return parseMachineSpec(machine, configM11BR5())->run(trace).cycles;
}

TEST(BranchPolicy, Names)
{
    // The aliases arm exactly these predictors.
    const auto key = [](const std::string &machine) {
        return parseMachineSpec(machine, configM11BR5())
            ->config()
            .predictor.key();
    };
    EXPECT_EQ(key("ooo:4"), "");
    EXPECT_EQ(key("ooo:4,btfn"), "btfn:w0");
    EXPECT_EQ(key("ooo:4,oracle"), "perfect:w8");
    EXPECT_EQ(parseMachineSpec("ooo:4,oracle", configM11BR5())
                  ->cacheKey(),
              parseMachineSpec("ooo:4,pred=perfect", configM11BR5())
                  ->cacheKey());
}

TEST(BranchPolicy, BtfnPredicts)
{
    EXPECT_TRUE(branch(/*taken=*/true, /*backward=*/true).btfnCorrect());
    EXPECT_TRUE(branch(false, false).btfnCorrect());
    EXPECT_FALSE(branch(false, true).btfnCorrect());
    EXPECT_FALSE(branch(true, false).btfnCorrect());
}

TEST(BranchPolicy, InterpreterMarksBackwardBranches)
{
    Assembler as;
    as.aconst(A0, 2);
    const auto loop = as.here();
    as.aaddi(A0, A0, -1);
    as.branz(loop);             // backward
    as.halt();
    Program p = as.finish();
    Interpreter interp(p, 8);
    const DynTrace trace("t", p.code, interp.run());
    for (const DynOp &op : trace.ops()) {
        if (isBranch(op.op)) {
            EXPECT_TRUE(op.backward);
        }
    }

    Assembler fw;
    const auto skip = fw.newLabel();
    fw.aconst(A0, 0);
    fw.braz(skip);              // forward
    fw.aconst(A1, 1);
    fw.bind(skip);
    fw.halt();
    Program p2 = fw.finish();
    Interpreter interp2(p2, 8);
    const DynTrace trace2("t", p2.code, interp2.run());
    EXPECT_FALSE(trace2[1].backward);
}

TEST(BranchPolicy, ScoreboardOracleRemovesBranchWall)
{
    // aconst A0 (ready 1); branch; aconst A1.
    const DynTrace trace = traceOf({
        dyn(Op::kAConst, A0),
        branch(true, true),
        dyn(Op::kAConst, A1),
    });
    // Blocking: branch at 1, next at 6, done 7.
    EXPECT_EQ(cyclesOn("cray", trace), 7u);
    // Oracle: branch at 1 (one slot), next at 2, done 3.
    EXPECT_EQ(cyclesOn("cray,oracle", trace), 3u);
}

TEST(BranchPolicy, ScoreboardBtfnMatchesOracleWhenCorrect)
{
    const DynTrace correct = traceOf({
        dyn(Op::kAConst, A0),
        branch(/*taken=*/true, /*backward=*/true),  // predicted right
        dyn(Op::kAConst, A1),
    });
    const DynTrace wrong = traceOf({
        dyn(Op::kAConst, A0),
        branch(/*taken=*/false, /*backward=*/true), // predicted wrong
        dyn(Op::kAConst, A1),
    });
    EXPECT_EQ(cyclesOn("cray,btfn", correct), 3u);
    // Mispredicted: behaves like blocking -> 7.
    EXPECT_EQ(cyclesOn("cray,btfn", wrong), 7u);
}

TEST(BranchPolicy, OracleBranchDoesNotWaitForCondition)
{
    // The condition comes from a load (ready 11); oracle branch
    // must not wait for it.
    const DynTrace trace = traceOf({
        dyn(Op::kLoadA, A0, A1),
        branch(true, true),
        dyn(Op::kAConst, A2),
    });
    // load@0 (done 11), branch@1, aconst@2 done 3 -> end 11.
    EXPECT_EQ(cyclesOn("cray,oracle", trace), 11u);
}

TEST(BranchPolicy, MultiIssueOracleKeepsWindowAcrossTakenBranch)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        branch(true, true),
        dyn(Op::kSConst, S2),
        dyn(Op::kSConst, S3),
    });
    // Blocking: squash + floor -> 6 (see MultiIssueSim tests).
    EXPECT_EQ(cyclesOn("seq:4", trace), 6u);
    // Oracle: all four in one window; sconsts at 0, branch at 0,
    // the rest at 0 -> done 1.
    EXPECT_EQ(cyclesOn("seq:4,oracle", trace), 1u);
}

TEST(BranchPolicy, MultiIssueMispredictSquashesBuffer)
{
    // Backward branch that falls through: BTFN predicts taken ->
    // mispredict -> squash and pay the branch time.
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        branch(/*taken=*/false, /*backward=*/true),
        dyn(Op::kSConst, S2),
    });
    // sconst@0, branch@0 (A0 ready) resolves at 0, floor 5, S2@5 ->
    // done 6.
    EXPECT_EQ(cyclesOn("seq:4,btfn", trace), 6u);
}

TEST(BranchPolicy, RuuOracleKeepsInserting)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        branch(true, true),
        dyn(Op::kSConst, S2),
    });
    // Blocking: sconst ins@0; branch waits nothing (A0 ready),
    // blocks until 5; S2 ins@5, disp 6, result 7, commit 7.
    EXPECT_EQ(cyclesOn("ruu:4:10", trace), 7u);
    // Oracle: all three consumed at cycle 0 (branch takes a slot);
    // dispatch at 1, results 2, commits 2.
    EXPECT_EQ(cyclesOn("ruu:4:10,oracle", trace), 2u);
}

TEST(BranchAliases, ReproduceThePinnedLegacyCycles)
{
    const std::vector<test::PinnedCell> cells = test::pinnedAliasCycles();
    // 9 machines x 2 aliases x 4 configs x 14 loops.
    ASSERT_EQ(cells.size(), 1008u);
    for (const test::PinnedCell &cell : cells) {
        const MachineConfig cfg = parseConfigSpec(cell.config);
        const auto sim = parseMachineSpec(cell.machine, cfg);
        EXPECT_EQ(sim->run(TraceLibrary::instance().decoded(cell.loop,
                                                            cfg))
                      .cycles,
                  cell.cycles)
            << cell.machine << " " << cell.config << " LL"
            << cell.loop;
    }
}

TEST(BranchAliases, SimpleTakesNoBranchModel)
{
    // "simple" has no branch overlap to model.
    const MachineConfig cfg = configM11BR5();
    EXPECT_THROW(parseMachineSpec("simple,btfn", cfg), BranchModelError);
    EXPECT_THROW(parseMachineSpec("simple,oracle", cfg),
                 BranchModelError);
    EXPECT_THROW(parseMachineSpec("simple,pred=2bit", cfg),
                 BranchModelError);
}

TEST(BranchAliases, AtMostOneBranchModelPerMachine)
{
    const MachineConfig cfg = configM11BR5();
    EXPECT_THROW(parseMachineSpec("ooo:4,btfn,oracle", cfg),
                 BranchModelError);
    EXPECT_THROW(parseMachineSpec("ooo:4,pred=btfn,pred=2bit", cfg),
                 BranchModelError);
    EXPECT_THROW(parseMachineSpec("ruu:4:50,oracle,pred=perfect", cfg),
                 BranchModelError);
}

TEST(BranchAliases, NoBranchModelOnTopOfAnArmedPredictor)
{
    // The caller armed one already (CLI --predictor, request
    // "predictor" field).
    MachineConfig armed = configM11BR5();
    armed.predictor = PredictorSpec::parse("2bit");
    EXPECT_THROW(parseMachineSpec("ooo:4,pred=btfn", armed),
                 BranchModelError);
    EXPECT_THROW(parseMachineSpec("ooo:4,oracle", armed),
                 BranchModelError);
    EXPECT_NO_THROW(parseMachineSpec("ooo:4", armed));
}

TEST(BranchAliases, SingleIssueMachinesTakeOnlyAZeroWindow)
{
    const MachineConfig cfg = configM11BR5();
    for (const char *machine : { "cray", "cdc", "tomasulo" }) {
        const std::string m = machine;
        EXPECT_NO_THROW(parseMachineSpec(m + ",btfn", cfg)) << m;
        EXPECT_NO_THROW(parseMachineSpec(m + ",oracle", cfg)) << m;
        EXPECT_NO_THROW(parseMachineSpec(m + ",pred=taken:w0", cfg))
            << m;
        EXPECT_THROW(parseMachineSpec(m + ",pred=btfn", cfg),
                     ConfigError)
            << m;
        EXPECT_THROW(parseMachineSpec(m + ",pred=2bit:512:w1", cfg),
                     ConfigError)
            << m;
    }
}

// ---- properties over the benchmark traces --------------------------

class PolicyLoop : public ::testing::TestWithParam<int>
{
};

TEST_P(PolicyLoop, OracleAtLeastBtfnAtLeastBlocking)
{
    const DynTrace &trace =
        TraceLibrary::instance().trace(GetParam());
    const auto rate = [&](const std::string &machine) {
        return parseMachineSpec(machine, configM11BR5())
            ->run(trace)
            .issueRate();
    };
    const double blocking = rate("ruu:4:48");
    const double btfn = rate("ruu:4:48,btfn");
    const double oracle = rate("ruu:4:48,oracle");
    // Speculation inserts younger work earlier, and a greedily
    // dispatched younger op can occupy a functional unit or bus the
    // cycle before an older (critical-path) op wakes -- a Graham
    // list-scheduling anomaly, real in speculative machines too.
    // So per-loop rates may dip a few percent below blocking; they
    // must never collapse.
    EXPECT_GE(btfn, blocking * 0.95);
    EXPECT_GE(oracle, btfn * 0.97);
    EXPECT_GE(oracle, blocking * 0.95);
}

TEST_P(PolicyLoop, BtfnIsAccurateOnLoopCode)
{
    // Loop-closing backward branches dominate these kernels, so the
    // static predictor should be right most of the time.
    const TraceStats stats =
        TraceLibrary::instance().trace(GetParam()).stats();
    EXPECT_GT(stats.btfnAccuracy(), 0.80) << "loop " << GetParam();
}

TEST_P(PolicyLoop, OracleStillBelowDataflowLimitMinusBranches)
{
    // Even with free branches, issue rate cannot exceed the issue
    // width.
    const DynTrace &trace =
        TraceLibrary::instance().trace(GetParam());
    EXPECT_LE(parseMachineSpec("ruu:4:100,oracle", configM11BR5())
                  ->run(trace)
                  .issueRate(),
              4.0);
}

INSTANTIATE_TEST_SUITE_P(AllLoops, PolicyLoop,
                         ::testing::Range(1, 15));

} // namespace
} // namespace mfusim
