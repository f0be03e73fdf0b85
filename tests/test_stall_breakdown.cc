/**
 * @file
 * Stall-attribution tests for the scoreboard machine.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "mfusim/harness/trace_library.hh"
#include "mfusim/obs/run_metrics.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/spec/predictor.hh"
#include "multi_issue_cells.hh"
#include "single_issue_cells.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::traceOf;

SimResult
runCray(const DynTrace &trace,
        const MachineConfig &cfg = configM11BR5())
{
    ScoreboardSim sim(ScoreboardConfig::crayLike(), cfg);
    return sim.run(trace);
}

std::uint64_t
stallOf(const SimResult &r, StallCause cause)
{
    return r.stalls[unsigned(cause)];
}

TEST(StallBreakdown, NoHazardsNoStalls)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kSConst, S2),
        dyn(Op::kSConst, S3),
    });
    const SimResult r = runCray(trace);
    ASSERT_TRUE(r.hasStalls);
    EXPECT_EQ(r.stalls, StallCounts{});
}

TEST(StallBreakdown, RawWaitAttributed)
{
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, S1, A1),
        dyn(Op::kFAdd, S2, S1, S1),
    });
    const SimResult r = runCray(trace);
    // fadd waits cycles 1..10 on the load: 10 RAW stall cycles.
    EXPECT_EQ(stallOf(r, StallCause::kRaw), 10u);
    EXPECT_EQ(stallOf(r, StallCause::kWaw), 0u);
    EXPECT_EQ(stallOf(r, StallCause::kBranch), 0u);
}

TEST(StallBreakdown, WawWaitAttributed)
{
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, S1, A1),
        dyn(Op::kSConst, S1),
    });
    const SimResult r = runCray(trace);
    EXPECT_EQ(stallOf(r, StallCause::kWaw), 10u);
    EXPECT_EQ(stallOf(r, StallCause::kRaw), 0u);
}

TEST(StallBreakdown, StructuralWaitAttributed)
{
    // Serial memory: second load blocked on the memory unit.
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, S1, A1),
        dyn(Op::kLoadS, S2, A2),
    });
    ScoreboardSim sim(ScoreboardConfig::serialMemory(),
                      configM11BR5());
    const SimResult r = sim.run(trace);
    EXPECT_EQ(stallOf(r, StallCause::kFuBusy), 10u);
}

TEST(StallBreakdown, ResultBusConflictAttributed)
{
    const DynTrace trace = traceOf({
        dyn(Op::kFMul, S1, S4, S5),
        dyn(Op::kFAdd, S2, S6, S7),     // would complete with fmul
    });
    const SimResult r = runCray(trace);
    EXPECT_EQ(stallOf(r, StallCause::kBusBusy), 1u);
}

TEST(StallBreakdown, BranchTimeAttributed)
{
    const DynTrace trace = traceOf({
        dyn(Op::kAConst, A0),
        dyn(Op::kBrANZ, kNoReg, A0, kNoReg, true),
        dyn(Op::kAConst, A1),
    });
    const SimResult r = runCray(trace);
    // Branch: no condition wait (A0 ready at its issue slot 1), 4
    // dead issue slots from the 5-cycle branch time.
    EXPECT_EQ(stallOf(r, StallCause::kBranch), 4u);

    // Condition wait also charged to branch:
    const DynTrace wait = traceOf({
        dyn(Op::kLoadA, A0, A1),
        dyn(Op::kBrAZ, kNoReg, A0, kNoReg, false),
    });
    const SimResult r2 = runCray(wait);
    // Branch slot 1, condition at 11: 10 wait + 4 dead slots.
    EXPECT_EQ(stallOf(r2, StallCause::kBranch), 14u);
}

TEST(StallBreakdown, AccountingConsistentOnBenchmarks)
{
    // busy + stalls explains (almost all of) the elapsed cycles:
    // the residue is the final instructions' in-flight latency.
    for (int id = 1; id <= 14; ++id) {
        const SimResult r =
            runCray(TraceLibrary::instance().trace(id));
        const std::uint64_t accounted = std::accumulate(
            r.stalls.begin(), r.stalls.end(), r.instructions);
        EXPECT_LE(accounted, r.cycles) << "loop " << id;
        EXPECT_GT(accounted, r.cycles - 30) << "loop " << id;
    }
}

TEST(StallBreakdown, RawDominatesOnRecurrenceLoop)
{
    const SimResult r = runCray(TraceLibrary::instance().trace(5));
    const std::uint64_t raw = stallOf(r, StallCause::kRaw);
    EXPECT_GT(raw, stallOf(r, StallCause::kWaw));
    EXPECT_GT(raw, stallOf(r, StallCause::kFuBusy));
    EXPECT_GT(raw, stallOf(r, StallCause::kBusBusy));
}

TEST(StallBreakdown, AddStallBreakdownUsesStandardNames)
{
    // The bench table is rendered from a MetricsRegistry; this pins
    // the StallCause -> cycles.stall.* name mapping it relies on, and
    // that repeated adds accumulate.
    const StallCounts stalls = { 3, 5, 7, 11, 13, 17, 19, 23, 29, 31 };
    MetricsRegistry reg;
    addStallCounters(reg, stalls);
    addStallCounters(reg, stalls);
    const char *const names[kNumStallCauses] = {
        "raw", "waw", "fu_busy", "bus_busy", "branch",
        "buffer_drain", "serial", "mispredict", "squash_drain", "other",
    };
    for (unsigned c = 0; c < kNumStallCauses; ++c)
        EXPECT_EQ(reg.counterValue(std::string("cycles.stall.") +
                                   names[c]),
                  2 * stalls[c])
            << names[c];
}

TEST(StallBreakdown, SampledStallsMatchSummaryCounters)
{
    // The per-sample stream a PipeTraceRecorder collects must agree
    // cycle-for-cycle, on every cause, with SimResult::stalls: the
    // scoreboard issue loop adds to both at the same points.  The
    // uninstrumented run, steady state included, counts the same.
    const ScoreboardConfig orgs[] = {
        ScoreboardConfig::serialMemory(),
        ScoreboardConfig::nonSegmented(),
        ScoreboardConfig::crayLike(),
    };
    for (const char *pred : { "", "btfn:w0" }) {
        for (MachineConfig cfg : { configM11BR5(), configM5BR2() }) {
            if (*pred)
                cfg.predictor = PredictorSpec::parse(pred);
            for (int id = 1; id <= 14; ++id) {
                const DecodedTrace &trace =
                    TraceLibrary::instance().decoded(id, cfg);
                for (const ScoreboardConfig &org : orgs) {
                    ScoreboardSim sim(org, cfg);
                    const SimResult fast = sim.run(trace);
                    PipeTraceRecorder recorder;
                    sim.attachAudit(&recorder);
                    const SimResult r = sim.run(trace);
                    sim.attachAudit(nullptr);

                    MetricsRegistry reg;
                    populateRunMetrics(reg, trace, recorder, r, sim);
                    StallCounts sampled{};
                    for (unsigned c = 0; c < kNumStallCauses; ++c)
                        sampled[c] = reg.counterValue(
                            std::string("cycles.stall.") +
                            stallCauseName(StallCause(c)));
                    const std::string what = sim.name() + ' ' +
                        cfg.name() + " loop " + std::to_string(id);
                    EXPECT_EQ(sampled, r.stalls) << what;
                    EXPECT_EQ(sampled, fast.stalls) << what;
                }
            }
        }
    }
}

TEST(StallBreakdown, InterleavingRemovesStructuralStalls)
{
    const DynTrace &trace = TraceLibrary::instance().trace(1);
    ScoreboardSim serial(ScoreboardConfig::serialMemory(),
                         configM11BR5());
    ScoreboardSim inter(ScoreboardConfig::nonSegmented(),
                        configM11BR5());
    EXPECT_GT(stallOf(serial.run(trace), StallCause::kFuBusy),
              stallOf(inter.run(trace), StallCause::kFuBusy) * 2);
}

TEST(StallBreakdown, GoldenCellsChargeOnlyTheFirstFiveCauses)
{
    // golden/*_cells.txt print causes kRaw..kBranch only; that is
    // lossless while no machine's uninstrumented run charges any
    // later cause.  Every cell of both grids is checked.
    const auto expectFirstFive = [](const auto &machine,
                                    const MachineConfig &cfg) {
        for (int loop = 1; loop <= 14; ++loop) {
            const SimResult r = machine.make(cfg)->run(
                TraceLibrary::instance().decoded(loop, cfg));
            for (unsigned c = unsigned(StallCause::kBranch) + 1;
                 c < kNumStallCauses; ++c)
                EXPECT_EQ(r.stalls[c], 0u)
                    << machine.label << ' ' << cfg.name() << " loop "
                    << loop << ' ' << stallCauseName(StallCause(c));
        }
    };
    for (const auto &m : test::singleIssueMachines()) {
        for (const MachineConfig &cfg : standardConfigs())
            expectFirstFive(m, cfg);
    }
    for (const std::string &pred : test::multiIssuePredictors()) {
        for (const auto &m : test::multiIssueMachines()) {
            for (MachineConfig cfg : test::multiIssueConfigs(pred)) {
                if (!pred.empty())
                    cfg.predictor = PredictorSpec::parse(pred);
                expectFirstFive(m, cfg);
            }
        }
    }
}

} // namespace
} // namespace mfusim
