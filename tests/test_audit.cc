/**
 * @file
 * SimAudit coverage.
 *
 *  - Every simulator's schedule passes its own organization's
 *    legality audit on every library loop and machine config, with
 *    bit-identical results to the unaudited run (the audit hook must
 *    not perturb timing).
 *  - The Auditor rejects hand-fed schedules with crafted violations
 *    of each check family with an AuditError naming the check.
 *  - The livelock watchdog converts a stalled simulation into a
 *    diagnostic SimError naming the waiting op.
 *  - The audit-everything flag routes parallel sweeps through
 *    runAudited() without changing rates.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "mfusim/codegen/interpreter.hh"
#include "mfusim/codegen/livermore.hh"
#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/error.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/obs/pipe_trace.hh"
#include "mfusim/sim/audit.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/sim/cdc6600_sim.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/simulator.hh"
#include "mfusim/sim/tomasulo_sim.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::traceOf;

/** One instance of each organization at representative settings. */
std::vector<std::unique_ptr<Simulator>>
allSims(const MachineConfig &cfg)
{
    std::vector<std::unique_ptr<Simulator>> sims;
    sims.push_back(std::make_unique<SimpleSim>(cfg));
    sims.push_back(std::make_unique<ScoreboardSim>(
        ScoreboardConfig::crayLike(), cfg));
    sims.push_back(
        std::make_unique<Cdc6600Sim>(Cdc6600Config{}, cfg));
    sims.push_back(std::make_unique<TomasuloSim>(
        TomasuloConfig{ 3, 1 }, cfg));
    sims.push_back(std::make_unique<MultiIssueSim>(
        MultiIssueConfig{ 4, true, BusKind::kPerUnit, false }, cfg));
    sims.push_back(std::make_unique<RuuSim>(
        RuuConfig{ 2, 20, BusKind::kPerUnit }, cfg));
    return sims;
}

// ---- full-coverage audit: all sims x all loops x all configs ----------

class AuditAllLoops
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(AuditAllLoops, ZeroViolationsAndBitIdenticalResults)
{
    const int loop = std::get<0>(GetParam());
    const MachineConfig cfg =
        standardConfigs()[std::size_t(std::get<1>(GetParam()))];
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(loop, cfg);

    auto plain = allSims(cfg);
    auto audited = allSims(cfg);
    for (std::size_t s = 0; s < plain.size(); ++s) {
        const SimResult base = plain[s]->run(trace);
        SimResult checked;
        ASSERT_NO_THROW(checked = runAudited(*audited[s], trace))
            << plain[s]->name();
        checked.steadyOpsSkipped = base.steadyOpsSkipped;
        test::expectSameResult(checked, base, plain[s]->name());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLoopsAllConfigs, AuditAllLoops,
    ::testing::Combine(::testing::Range(1, 15),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return "LL" + std::to_string(std::get<0>(info.param)) + "_" +
            standardConfigs()[std::size_t(std::get<1>(info.param))]
                .name();
    });

// ---- zero-window predictors: the shared resolve rule ------------------

class AuditZeroWindow : public ::testing::TestWithParam<int>
{};

TEST_P(AuditZeroWindow, BtfnW0PassesOnSpeculativeMachines)
{
    // With nothing fetched past it, a mispredict resolves exactly when
    // its condition exists (PredictorSpec::resolveCycle has no
    // one-cycle minimum at :w0), and the auditor must apply the same
    // rule.  LL8 on ooo:4 under M11BR5 is a cell where a one-cycle
    // minimum would raise a branch-floor violation.
    const MachineConfig cfg = configM11BR5();
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(GetParam(), cfg);
    for (const char *machine :
         { "seq:4,pred=btfn:w0", "ooo:4,pred=btfn:w0",
           "ruu:4:50,pred=btfn:w0" }) {
        const auto plain = parseMachineSpec(machine, cfg);
        const auto audited = parseMachineSpec(machine, cfg);
        SimResult checked;
        ASSERT_NO_THROW(checked = runAudited(*audited, trace)) << machine;
        EXPECT_EQ(checked.cycles, plain->run(trace).cycles) << machine;
        EXPECT_EQ(checked.squashes, plain->run(trace).squashes)
            << machine;
    }
}

INSTANTIATE_TEST_SUITE_P(AllLoops, AuditZeroWindow,
                         ::testing::Range(1, 15));

TEST(Audit, VectorizedKernelPassesOnScoreboard)
{
    // Vector chaining availability (producer's first element) is the
    // subtlest availability rule; the audited vector schedule must
    // still be violation-free and bit-identical.
    const Kernel kernel = buildVectorizedKernel(7);
    KernelRun run = runKernel(kernel, "LL7v");
    ASSERT_EQ(run.mismatches, 0u);
    for (const MachineConfig &cfg : standardConfigs()) {
        const DecodedTrace decoded(run.trace, cfg);
        ScoreboardSim plain(ScoreboardConfig::crayLike(), cfg);
        ScoreboardSim checked(ScoreboardConfig::crayLike(), cfg);
        const SimResult base = plain.run(decoded);
        SimResult audited;
        ASSERT_NO_THROW(audited = runAudited(checked, decoded))
            << cfg.name();
        EXPECT_EQ(audited.cycles, base.cycles) << cfg.name();
    }
}

TEST(Audit, SweepAuditPathMatchesPlainRates)
{
    const SimFactory factory = [](const MachineConfig &c)
        -> std::unique_ptr<Simulator> {
        return std::make_unique<ScoreboardSim>(
            ScoreboardConfig::crayLike(), c);
    };
    const std::vector<int> loops{ 1, 2, 3 };
    const MachineConfig cfg = configM11BR5();
    const std::vector<double> plain =
        parallelPerLoopRates(factory, loops, cfg, 2);
    setAuditRequested(true);
    std::vector<double> audited;
    try {
        audited = parallelPerLoopRates(factory, loops, cfg, 2);
    } catch (...) {
        setAuditRequested(false);
        throw;
    }
    setAuditRequested(false);
    EXPECT_EQ(audited, plain);
}

/**
 * A CRAY-like machine that claims serial execution, which its own
 * overlapped schedule breaks.
 */
class SerialClaimingSim : public ScoreboardSim
{
  public:
    using ScoreboardSim::ScoreboardSim;

    AuditRules
    auditRules() const override
    {
        AuditRules rules = ScoreboardSim::auditRules();
        rules.serialExecution = true;
        return rules;
    }
};

TEST(Audit, MetricsSweepAuditsEveryCell)
{
    // The instrumented (--metrics-out) sweep must audit under
    // --audit too, not only the plain rate sweep.
    const SimFactory factory = [](const MachineConfig &c)
        -> std::unique_ptr<Simulator> {
        return std::make_unique<SerialClaimingSim>(
            ScoreboardConfig::crayLike(), c);
    };
    const std::vector<int> loops{ 1, 2 };
    const MachineConfig cfg = configM11BR5();
    EXPECT_NO_THROW(parallelPerLoopMetrics(factory, loops, cfg, 2));
    setAuditRequested(true);
    std::vector<SweepError::Failure> failures;
    try {
        parallelPerLoopMetrics(factory, loops, cfg, 2);
    } catch (const SweepError &e) {
        failures = e.failures();
    } catch (...) {
        setAuditRequested(false);
        throw;
    }
    setAuditRequested(false);
    ASSERT_EQ(failures.size(), loops.size());
    for (const SweepError::Failure &failure : failures) {
        EXPECT_NE(failure.message.find("serial-overlap violated"),
                  std::string::npos)
            << failure.message;
    }
}

// ---- crafted violations: each check family must fire ------------------

void
feed(OpSchedule &schedule, AuditPhase phase, ClockCycle cycle,
     std::uint64_t op, std::int32_t unit = -1)
{
    schedule.onEvent(AuditEvent{ cycle, op, unit, phase });
}

/** Checking @p schedule must throw an AuditError for @p check. */
void
expectViolation(const DecodedTrace &decoded, const OpSchedule &schedule,
                const AuditRules &rules, const std::string &check)
{
    try {
        Auditor(decoded, schedule, rules).check();
        FAIL() << "no violation raised, expected " << check;
    } catch (const AuditError &e) {
        EXPECT_EQ(e.check(), check) << e.what();
    }
}

TEST(AuditChecks, RawHazardIsCaught)
{
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, regS(1), regA(1)),
        dyn(Op::kFAdd, regS(2), regS(1), regS(1)),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    AuditRules rules;
    rules.rawAt = AuditRules::RawAt::kIssue;
    OpSchedule schedule(decoded.size());
    feed(schedule, AuditPhase::kIssue, 0, 0);
    feed(schedule, AuditPhase::kComplete, 11, 0);
    // The add reads S1 eight cycles before the load produces it.
    feed(schedule, AuditPhase::kIssue, 3, 1);
    feed(schedule, AuditPhase::kComplete, 9, 1);
    expectViolation(decoded, schedule, rules, "raw-hazard");
}

TEST(AuditChecks, InOrderIssueIsCaught)
{
    const DynTrace trace = traceOf({
        dyn(Op::kFAdd, regS(1), regS(2), regS(3)),
        dyn(Op::kFMul, regS(4), regS(5), regS(6)),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    AuditRules rules;
    rules.inOrderFront = true;
    rules.strictSingleFront = true;
    OpSchedule schedule(decoded.size());
    // Two issues in the same cycle on a single-issue machine.
    feed(schedule, AuditPhase::kIssue, 5, 0);
    feed(schedule, AuditPhase::kComplete, 11, 0);
    feed(schedule, AuditPhase::kIssue, 5, 1);
    feed(schedule, AuditPhase::kComplete, 12, 1);
    expectViolation(decoded, schedule, rules, "in-order-issue");
}

TEST(AuditChecks, ResultBusConflictIsCaught)
{
    const DynTrace trace = traceOf({
        dyn(Op::kFAdd, regS(1), regS(2), regS(3)),
        dyn(Op::kFMul, regS(4), regS(5), regS(6)),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    AuditRules rules;
    rules.busCount = 1;
    rules.busKind = BusKind::kSingle;
    OpSchedule schedule(decoded.size());
    // Two results on the single bus in the same cycle.
    feed(schedule, AuditPhase::kIssue, 0, 0);
    feed(schedule, AuditPhase::kComplete, 7, 0, 0);
    feed(schedule, AuditPhase::kIssue, 1, 1);
    feed(schedule, AuditPhase::kComplete, 7, 1, 0);
    expectViolation(decoded, schedule, rules, "result-bus-conflict");
}

TEST(AuditChecks, FuOccupancyIsCaught)
{
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, regS(1), regA(1)),
        dyn(Op::kLoadS, regS(2), regA(2)),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    AuditRules rules;
    rules.checkFuCaps = true;
    rules.memPorts = 1;
    OpSchedule schedule(decoded.size());
    // Two loads through one interleaved memory port in one cycle.
    feed(schedule, AuditPhase::kIssue, 2, 0);
    feed(schedule, AuditPhase::kComplete, 13, 0);
    feed(schedule, AuditPhase::kIssue, 2, 1);
    feed(schedule, AuditPhase::kComplete, 13, 1);
    expectViolation(decoded, schedule, rules, "fu-occupancy");
}

TEST(AuditChecks, RuuCapacityIsCaught)
{
    const DynTrace trace = traceOf({
        dyn(Op::kFAdd, regS(1), regS(2), regS(3)),
        dyn(Op::kFMul, regS(4), regS(5), regS(6)),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    AuditRules rules;
    rules.frontPhase = AuditPhase::kInsert;
    rules.windowCapacity = 1;
    OpSchedule schedule(decoded.size());
    // Overlapping [insert, commit) residency in a 1-entry window.
    feed(schedule, AuditPhase::kInsert, 0, 0);
    feed(schedule, AuditPhase::kComplete, 7, 0);
    feed(schedule, AuditPhase::kCommit, 10, 0);
    feed(schedule, AuditPhase::kInsert, 5, 1);
    feed(schedule, AuditPhase::kComplete, 7, 1);
    feed(schedule, AuditPhase::kCommit, 8, 1);
    expectViolation(decoded, schedule, rules, "ruu-capacity");
}

TEST(AuditChecks, BranchFloorIsCaught)
{
    const DynTrace trace = traceOf({
        dyn(Op::kBrANZ, kNoReg, regA(0), kNoReg, true),
        dyn(Op::kFAdd, regS(1), regS(2), regS(3)),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    AuditRules rules;
    rules.checkBranchFloor = true;
    OpSchedule schedule(decoded.size());
    // The add issues 2 cycles after a BR5 blocking branch.
    feed(schedule, AuditPhase::kIssue, 0, 0);
    feed(schedule, AuditPhase::kIssue, 2, 1);
    feed(schedule, AuditPhase::kComplete, 9, 1);
    expectViolation(decoded, schedule, rules, "branch-floor");
}

TEST(AuditChecks, MissingCompletionIsCaught)
{
    const DynTrace trace = traceOf({
        dyn(Op::kFAdd, regS(1), regS(2), regS(3)),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    const AuditRules rules;
    OpSchedule schedule(decoded.size());
    feed(schedule, AuditPhase::kIssue, 0, 0);
    expectViolation(decoded, schedule, rules, "missing-event");
}

/**
 * Recording @p events into a fresh @p Recording and checking it must
 * raise @p check; returns the error text.
 */
template <typename Recording = OpSchedule>
std::string
expectRecordedViolation(const DecodedTrace &decoded,
                        const std::vector<AuditEvent> &events,
                        const std::string &check)
{
    Recording recording(decoded.size());
    for (const AuditEvent &event : events)
        recording.onEvent(event);
    try {
        Auditor(decoded, recording, AuditRules{}).check();
        ADD_FAILURE() << "no violation raised, expected " << check;
    } catch (const AuditError &e) {
        EXPECT_EQ(e.check(), check) << e.what();
        return e.what();
    }
    return {};
}

TEST(AuditChecks, EventRangeIsCaught)
{
    const DynTrace trace = traceOf({
        dyn(Op::kFAdd, regS(1), regS(2), regS(3)),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    // Op #1 of a one-op trace.
    expectRecordedViolation(decoded,
                            { { 0, 0, -1, AuditPhase::kIssue },
                              { 6, 0, -1, AuditPhase::kComplete },
                              { 3, 1, -1, AuditPhase::kIssue } },
                            "event-range");
}

TEST(AuditChecks, DuplicateEventIsCaught)
{
    const DynTrace trace = traceOf({
        dyn(Op::kFAdd, regS(1), regS(2), regS(3)),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    // A second completion of the same op.
    expectRecordedViolation(decoded,
                            { { 0, 0, -1, AuditPhase::kIssue },
                              { 6, 0, -1, AuditPhase::kComplete },
                              { 7, 0, -1, AuditPhase::kComplete } },
                            "duplicate-event");
}

TEST(AuditChecks, RecorderViolationMatchesHandFed)
{
    // The Auditor reads a PipeTraceRecorder's schedule exactly as a
    // hand-fed OpSchedule: same check, same message.
    const DynTrace trace = traceOf({
        dyn(Op::kFAdd, regS(1), regS(2), regS(3)),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    const std::vector<AuditEvent> duplicate{
        { 0, 0, 2, AuditPhase::kIssue },
        { 6, 0, -1, AuditPhase::kComplete },
        { 1, 0, 3, AuditPhase::kIssue },
    };
    EXPECT_EQ(expectRecordedViolation<PipeTraceRecorder>(
                  decoded, duplicate, "duplicate-event"),
              expectRecordedViolation(decoded, duplicate,
                                      "duplicate-event"));
    const std::vector<AuditEvent> missing{
        { 0, 0, -1, AuditPhase::kIssue },
    };
    EXPECT_EQ(expectRecordedViolation<PipeTraceRecorder>(
                  decoded, missing, "missing-event"),
              expectRecordedViolation(decoded, missing,
                                      "missing-event"));
}

// ---- livelock watchdog -------------------------------------------------

TEST(Watchdog, MultiIssueDiagnosesStalledIssue)
{
    // A load feeding a dependent add stalls issue for the memory
    // latency; a 4-cycle threshold must trip with a diagnostic
    // naming the waiting op and its hazard — in a batch too.
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, regS(1), regA(1)),
        dyn(Op::kFAdd, regS(2), regS(1), regS(1)),
    });
    const MultiIssueConfig org{ 2, false, BusKind::kPerUnit, false,
                                1, 1, 4 };
    const std::string want =
        "MultiIssueSim: no issue for 11 cycles (watchdog 4; cycles "
        "0..11): oldest unissued op #1 (fadd) is waiting for the "
        "result of op #0 (loads, completes at cycle 11)";
    MultiIssueSim sim(org, configM11BR5());
    try {
        sim.run(trace);
        FAIL() << "watchdog did not fire";
    } catch (const SimError &e) {
        EXPECT_EQ(std::string(e.what()), want);
    }

    const DecodedTrace decoded(trace, configM11BR5());
    MultiIssueSim other(org, configM11BR5());
    try {
        runBatch({ { &sim, &decoded }, { &other, &decoded } });
        FAIL() << "batched watchdog did not fire";
    } catch (const SimError &e) {
        EXPECT_EQ(std::string(e.what()), want);
    }
}

TEST(Watchdog, RuuDiagnosesStalledWindow)
{
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, regS(1), regA(1)),
        dyn(Op::kFAdd, regS(2), regS(1), regS(1)),
    });
    RuuSim sim(RuuConfig{ 1, 10, BusKind::kPerUnit, 1, 1, 4 },
               configM11BR5());
    try {
        sim.run(trace);
        FAIL() << "watchdog did not fire";
    } catch (const SimError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("RuuSim"), std::string::npos) << what;
        EXPECT_NE(what.find("watchdog"), std::string::npos) << what;
    }
}

TEST(Watchdog, DefaultThresholdToleratesLegalStalls)
{
    const DynTrace trace = traceOf({
        dyn(Op::kLoadS, regS(1), regA(1)),
        dyn(Op::kFAdd, regS(2), regS(1), regS(1)),
    });
    MultiIssueSim multi(
        MultiIssueConfig{ 2, false, BusKind::kPerUnit, false },
        configM11BR5());
    RuuSim ruu(RuuConfig{ 1, 10, BusKind::kPerUnit }, configM11BR5());
    EXPECT_NO_THROW(multi.run(trace));
    EXPECT_NO_THROW(ruu.run(trace));
}

// ---- error taxonomy ----------------------------------------------------

TEST(Errors, ExitCodesAreDistinct)
{
    EXPECT_EQ(Error("x").exitCode(), 1);
    EXPECT_EQ(ConfigError("x").exitCode(), 3);
    EXPECT_EQ(TraceError("x").exitCode(), 4);
    EXPECT_EQ(SimError("x").exitCode(), 5);
    EXPECT_EQ(AuditError("c", 0, 0, "d").exitCode(), 6);
    EXPECT_EQ(SweepError({}, 0).exitCode(), 7);
}

TEST(Errors, ConfigValidationRejectsGarbage)
{
    EXPECT_THROW((MachineConfig{ 0, 5, {} }.validate()), ConfigError);
    EXPECT_THROW((MachineConfig{ 11, 0, {} }.validate()), ConfigError);
    EXPECT_THROW((MachineConfig{ 1u << 20, 5, {} }.validate()),
                 ConfigError);
    EXPECT_NO_THROW(configM11BR5().validate());
    EXPECT_THROW(RuuSim(RuuConfig{ 4, 2, BusKind::kPerUnit },
                        configM11BR5()),
                 ConfigError);
    EXPECT_THROW(MultiIssueSim(
                     MultiIssueConfig{ 0, false, BusKind::kPerUnit,
                                       false },
                     configM11BR5()),
                 ConfigError);
}

} // namespace
} // namespace mfusim
