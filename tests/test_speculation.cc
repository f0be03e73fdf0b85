/**
 * @file
 * Speculative-execution subsystem coverage (spec/predictor.hh plus
 * the speculative MultiIssue/RUU front ends):
 *
 *  - PredictorSpec parsing, keys, validation, and the shared
 *    prediction replay (2-bit FSM, fixed-accuracy determinism);
 *  - pred=perfect reproduces the pinned cycles of the legacy oracle
 *    branch policy on every Livermore loop and machine;
 *  - audited speculative runs (squash-legality invariants) on every
 *    loop, plus crafted traces for the classic squash shapes: loop
 *    back-edge mispredict, nested mispredicts, squash while the
 *    condition's functional unit is still busy;
 *  - the steady-state fast path stays off under predictors with
 *    history (and on, bit-identical, under the perfect one);
 *  - speculative lanes fall back to the scalar path inside runBatch
 *    with bit-identical results;
 *  - cache keys, config names, machine-spec ",pred=" plumbing, and
 *    the single-issue machines' zero-window rule.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/machine_config.hh"
#include "mfusim/harness/experiment.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/sim/cdc6600_sim.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/steady_state.hh"
#include "mfusim/sim/tomasulo_sim.hh"
#include "mfusim/spec/predictor.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::expectSameResult;
using test::SteadyGuard;
using test::traceOf;

DynOp
branch(bool taken, bool backward)
{
    DynOp op = dyn(Op::kBrANZ, kNoReg, A0, kNoReg, taken);
    op.backward = backward;
    return op;
}

MachineConfig
withPredictor(const MachineConfig &base, const std::string &spec)
{
    MachineConfig cfg = base;
    cfg.predictor = PredictorSpec::parse(spec);
    return cfg;
}

// ---- PredictorSpec parsing / keys ------------------------------------

TEST(PredictorSpec, ParseAndKeyRoundTrip)
{
    for (const char *text :
         { "perfect:w8", "taken:w8", "btfn:w4", "2bit:512:w8",
           "2bit:64:w16", "fixed:90:s1:w8", "fixed:0:s7:w2",
           "btfn:w0", "perfect:w0" }) {
        const PredictorSpec spec = PredictorSpec::parse(text);
        EXPECT_EQ(spec.key(), text);
        EXPECT_TRUE(PredictorSpec::parse(spec.key()) == spec) << text;
    }
    // Defaults fill in: table 512, seed 1, window 8.
    EXPECT_EQ(PredictorSpec::parse("2bit").key(), "2bit:512:w8");
    EXPECT_EQ(PredictorSpec::parse("fixed:95").key(),
              "fixed:95:s1:w8");
    EXPECT_EQ(PredictorSpec::parse("perfect").key(), "perfect:w8");
    EXPECT_EQ(PredictorSpec{}.key(), "");
    EXPECT_FALSE(PredictorSpec{}.armed());
}

TEST(PredictorSpec, ParseRejectsMalformedSpecs)
{
    for (const char *text :
         { "", "bogus", "2bit:500", "2bit:0", "fixed",
           "fixed:101", "fixed:90:x3", "perfect:w",
           "taken:w5000", "2bit:512:junk" }) {
        EXPECT_THROW(PredictorSpec::parse(text), ConfigError) << text;
    }
}

// ---- prediction replay ----------------------------------------------

TEST(PredictorReplay, StaticKindsFollowTheBranchStream)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        branch(/*taken=*/true, /*backward=*/true),   // btfn right
        branch(/*taken=*/false, /*backward=*/true),  // btfn wrong
        branch(/*taken=*/true, /*backward=*/false),  // btfn wrong
        dyn(Op::kSConst, S2),
    });
    const DecodedTrace decoded(trace, configM11BR5());

    const auto perfect =
        precomputePredictions(decoded, PredictorSpec::parse("perfect"));
    EXPECT_EQ(perfect, (std::vector<std::uint8_t>{ 1, 1, 1, 1, 1 }));

    const auto taken =
        precomputePredictions(decoded, PredictorSpec::parse("taken"));
    EXPECT_EQ(taken, (std::vector<std::uint8_t>{ 1, 1, 0, 1, 1 }));

    const auto btfn =
        precomputePredictions(decoded, PredictorSpec::parse("btfn"));
    EXPECT_EQ(btfn, (std::vector<std::uint8_t>{ 1, 1, 0, 0, 1 }));
}

TEST(PredictorReplay, TwoBitCountersSaturateAndRecover)
{
    // One static branch (all dyn() ops share staticIdx 0), direction
    // pattern T T N T.  Counters start weakly taken (2): predict T
    // (right, ->3), T (right, stays 3), N (wrong, ->2), T (right).
    const DynTrace trace = traceOf({
        branch(true, true),
        branch(true, true),
        branch(false, true),
        branch(true, true),
    });
    const DecodedTrace decoded(trace, configM11BR5());
    const auto ok =
        precomputePredictions(decoded, PredictorSpec::parse("2bit"));
    EXPECT_EQ(ok, (std::vector<std::uint8_t>{ 1, 1, 0, 1 }));
}

TEST(PredictorReplay, FixedAccuracyIsSeededAndDeterministic)
{
    const DecodedTrace &decoded = TraceLibrary::instance().decoded(
        3, standardConfigs()[0]);

    // The degenerate accuracies are exact: 100 never mispredicts,
    // 0 mispredicts every branch (and only branches).
    const auto all =
        precomputePredictions(decoded, PredictorSpec::parse("fixed:100"));
    const auto none =
        precomputePredictions(decoded, PredictorSpec::parse("fixed:0"));
    std::size_t branches = 0;
    for (std::size_t i = 0; i < decoded.size(); ++i) {
        EXPECT_EQ(all[i], 1u);
        EXPECT_EQ(none[i], decoded.isBranch(i) ? 0u : 1u);
        branches += decoded.isBranch(i) ? 1 : 0;
    }
    ASSERT_GT(branches, 10u);

    // Same seed -> same stream; the hit count tracks the target.
    const PredictorSpec ninety = PredictorSpec::parse("fixed:90:s1");
    const auto a = precomputePredictions(decoded, ninety);
    const auto b = precomputePredictions(decoded, ninety);
    EXPECT_EQ(a, b);
    std::size_t wrong = 0;
    for (std::size_t i = 0; i < decoded.size(); ++i)
        wrong += a[i] ? 0 : 1;
    EXPECT_GT(wrong, 0u);
    EXPECT_LT(double(wrong), 0.35 * double(branches));
}

// ---- perfect prediction == legacy oracle, every loop, all machines ---

class SpecLoop : public ::testing::TestWithParam<int>
{
};

TEST_P(SpecLoop, PerfectPredictorMatchesOracleBitIdentically)
{
    // The cycles the legacy oracle branch policy produced, pinned
    // before it became the ",oracle" alias: ",pred=perfect" must
    // reproduce every one of this loop's cells.
    const std::string suffix = ",oracle";
    std::size_t checked = 0;
    for (const test::PinnedCell &cell : test::pinnedAliasCycles()) {
        const std::size_t at = cell.machine.size() - suffix.size();
        if (cell.loop != GetParam() ||
            cell.machine.compare(at, suffix.size(), suffix) != 0)
            continue;
        const std::string machine =
            cell.machine.substr(0, at) + ",pred=perfect";
        const MachineConfig cfg = parseConfigSpec(cell.config);
        EXPECT_EQ(parseMachineSpec(machine, cfg)
                      ->run(TraceLibrary::instance().decoded(
                          cell.loop, cfg))
                      .cycles,
                  cell.cycles)
            << machine << " " << cell.config;
        ++checked;
    }
    // 9 machines x 4 configs.
    EXPECT_EQ(checked, 36u);
}

TEST_P(SpecLoop, AuditedTwoBitRunsPassSquashLegality)
{
    const MachineConfig base = configM11BR5();
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(GetParam(), base);
    const MachineConfig pred = withPredictor(base, "2bit");

    MultiIssueSim ooo({ 4, true, BusKind::kPerUnit, false }, pred);
    const SimResult a = runAudited(ooo, trace);
    EXPECT_GT(a.issueRate(), 0.0);

    RuuSim ruu({ 4, 50, BusKind::kPerUnit }, pred);
    const SimResult b = runAudited(ruu, trace);
    EXPECT_GT(b.issueRate(), 0.0);

    // The audited (complete-event) path and the plain path agree.
    MultiIssueSim fresh({ 4, true, BusKind::kPerUnit, false }, pred);
    SteadyGuard off(false);
    expectSameResult(a, fresh.run(trace), "audited vs plain");
}

INSTANTIATE_TEST_SUITE_P(AllLoops, SpecLoop, ::testing::Range(1, 15));

TEST(Speculation, TwoBitMispredictsSomewhereAcrossTheSuite)
{
    // Loop-closing branches are easy, but every loop's final
    // not-taken branch (at least) breaks a saturated counter, so the
    // suite as a whole must squash.
    const MachineConfig pred = withPredictor(configM11BR5(), "2bit");
    std::uint64_t squashes = 0;
    for (int loop = 1; loop <= 14; ++loop) {
        RuuSim sim({ 4, 50, BusKind::kPerUnit }, pred);
        squashes += sim.run(TraceLibrary::instance().decoded(
                                loop, configM11BR5()))
                        .squashes;
    }
    EXPECT_GT(squashes, 0u);
}

// ---- crafted squash shapes -------------------------------------------

TEST(Speculation, LoopBackEdgeMispredictSquashesOnce)
{
    // Three taken back edges (BTFN right) then the loop exit (BTFN
    // wrong): exactly one squash, on both machines, under audit.
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        branch(true, true),
        dyn(Op::kSConst, S2),
        branch(true, true),
        dyn(Op::kSConst, S3),
        branch(true, true),
        dyn(Op::kSConst, S1),
        branch(/*taken=*/false, /*backward=*/true),
        dyn(Op::kSConst, S2),
        dyn(Op::kSConst, S3),
    });
    const MachineConfig pred = withPredictor(configM11BR5(), "btfn");
    const DecodedTrace decoded(trace, pred);

    MultiIssueSim ooo({ 4, true, BusKind::kPerUnit, false }, pred);
    const SimResult a = runAudited(ooo, decoded);
    EXPECT_EQ(a.squashes, 1u);

    RuuSim ruu({ 4, 10, BusKind::kPerUnit }, pred);
    const SimResult b = runAudited(ruu, decoded);
    EXPECT_EQ(b.squashes, 1u);
}

TEST(Speculation, NestedMispredictsSquashSeparately)
{
    // fixed:0 mispredicts every branch: two branches -> two precise
    // squashes, each confirmed legal by the auditor.
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        branch(true, true),
        dyn(Op::kSConst, S2),
        branch(false, false),
        dyn(Op::kSConst, S3),
        dyn(Op::kSConst, S1),
    });
    const MachineConfig pred = withPredictor(configM11BR5(), "fixed:0");
    const DecodedTrace decoded(trace, pred);

    MultiIssueSim ooo({ 4, true, BusKind::kPerUnit, false }, pred);
    EXPECT_EQ(runAudited(ooo, decoded).squashes, 2u);

    RuuSim ruu({ 4, 10, BusKind::kPerUnit }, pred);
    EXPECT_EQ(runAudited(ruu, decoded).squashes, 2u);
}

TEST(Speculation, WrongPathFetchesWhileConditionUnitIsBusy)
{
    // The branch condition comes from a load (long latency), so the
    // mispredicted branch stays unresolved for many cycles while the
    // front end pushes wrong-path work into real resources; the
    // squash must still be precise and the run no faster than the
    // blocking machine.
    const DynTrace trace = traceOf({
        dyn(Op::kLoadA, A0, A1),
        branch(/*taken=*/false, /*backward=*/true), // "taken" wrong
        dyn(Op::kSConst, S1),
        dyn(Op::kSConst, S2),
        dyn(Op::kSConst, S3),
        dyn(Op::kSConst, S1),
    });
    const MachineConfig base = configM11BR5();
    const MachineConfig pred = withPredictor(base, "taken");
    const DecodedTrace specDecoded(trace, pred);
    const DecodedTrace baseDecoded(trace, base);

    MultiIssueSim ooo({ 4, true, BusKind::kPerUnit, false }, pred);
    const SimResult a = runAudited(ooo, specDecoded);
    EXPECT_EQ(a.squashes, 1u);
    EXPECT_GT(a.wrongPathOps, 0u);

    RuuSim ruu({ 4, 10, BusKind::kPerUnit }, pred);
    const SimResult b = runAudited(ruu, specDecoded);
    EXPECT_EQ(b.squashes, 1u);
    EXPECT_GT(b.wrongPathOps, 0u);

    // A mispredict can never beat the blocking front end: same
    // redirect floor plus wrong-path pollution.
    MultiIssueSim blockingOoo({ 4, true, BusKind::kPerUnit, false },
                              base);
    EXPECT_GE(a.cycles, blockingOoo.run(baseDecoded).cycles);
    RuuSim blockingRuu({ 4, 10, BusKind::kPerUnit }, base);
    EXPECT_GE(b.cycles, blockingRuu.run(baseDecoded).cycles);
}

TEST(Speculation, WrongPathRespectsTheConfiguredWindow)
{
    // A one-op wrong-path window bounds the pollution per squash.
    const DynTrace trace = traceOf({
        dyn(Op::kLoadA, A0, A1),
        branch(false, true),
        dyn(Op::kSConst, S1),
        dyn(Op::kSConst, S2),
        dyn(Op::kSConst, S3),
    });
    const MachineConfig pred =
        withPredictor(configM11BR5(), "taken:w1");
    const DecodedTrace decoded(trace, pred);
    MultiIssueSim ooo({ 4, true, BusKind::kPerUnit, false }, pred);
    const SimResult a = runAudited(ooo, decoded);
    EXPECT_EQ(a.squashes, 1u);
    EXPECT_LE(a.wrongPathOps, 1u);

    RuuSim ruu({ 4, 10, BusKind::kPerUnit }, pred);
    const SimResult b = runAudited(ruu, decoded);
    EXPECT_LE(b.wrongPathOps, 1u);
}

TEST(Speculation, PerfectPredictorNeverSquashes)
{
    const MachineConfig pred =
        withPredictor(configM11BR5(), "perfect");
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(5, configM11BR5());
    RuuSim ruu({ 4, 50, BusKind::kPerUnit }, pred);
    const SimResult r = ruu.run(trace);
    EXPECT_EQ(r.squashes, 0u);
    EXPECT_EQ(r.wrongPathOps, 0u);
}

// ---- steady-state interaction ----------------------------------------

TEST(Speculation, NonPerfectPredictorDisablesSteadyState)
{
    const MachineConfig pred = withPredictor(configM11BR5(), "2bit");
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(5, configM11BR5());

    SimResult on, off;
    {
        SteadyGuard steady(true);
        MultiIssueSim ooo({ 4, true, BusKind::kPerUnit, false }, pred);
        on = ooo.run(trace);
        RuuSim ruu({ 4, 50, BusKind::kPerUnit }, pred);
        EXPECT_EQ(ruu.run(trace).steadyOpsSkipped, 0u);
    }
    EXPECT_EQ(on.steadyOpsSkipped, 0u);
    {
        SteadyGuard steady(false);
        MultiIssueSim ooo({ 4, true, BusKind::kPerUnit, false }, pred);
        off = ooo.run(trace);
    }
    expectSameResult(on, off, "steady on/off under 2bit");
}

TEST(Speculation, PerfectPredictorKeepsSteadyState)
{
    // The perfect predictor never mispredicts, so the fast path stays
    // armed and matches the plain path.
    const MachineConfig base = configM11BR5();
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(5, base);
    const MachineConfig pred = withPredictor(base, "perfect");
    SimResult on, off;
    {
        SteadyGuard steady(true);
        on = MultiIssueSim({ 4, true, BusKind::kPerUnit }, pred)
                 .run(trace);
    }
    {
        SteadyGuard steady(false);
        off = MultiIssueSim({ 4, true, BusKind::kPerUnit }, pred)
                  .run(trace);
    }
    EXPECT_GT(on.steadyOpsSkipped, 0u);
    on.steadyOpsSkipped = off.steadyOpsSkipped;
    expectSameResult(on, off, "steady on/off under perfect");
}

// ---- monotone issue rate vs predictor accuracy -----------------------

TEST(Speculation, IssueRateClimbsWithPredictorAccuracy)
{
    const auto rate = [](const std::string &spec) {
        return meanIssueRate(
            [&spec](const MachineConfig &c)
                -> std::unique_ptr<Simulator> {
                return std::make_unique<RuuSim>(
                    RuuConfig{ 4, 50, BusKind::kPerUnit },
                    withPredictor(c, spec));
            },
            LoopClass::kScalar, configM11BR5());
    };
    const double r60 = rate("fixed:60");
    const double r80 = rate("fixed:80");
    const double r95 = rate("fixed:95");
    const double perfect = rate("perfect");
    // Graham list-scheduling anomalies allow small local dips; the
    // trend must be monotone within a 2% band and strict end to end.
    EXPECT_GE(r80, r60 * 0.98);
    EXPECT_GE(r95, r80 * 0.98);
    EXPECT_GE(perfect, r95 * 0.98);
    EXPECT_GT(perfect, r60);
}

// ---- batched sweeps --------------------------------------------------

TEST(Speculation, SpeculativeSeqLanesRunLockstepInsideBatches)
{
    const MachineConfig base = standardConfigs()[0];
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(5, base);
    const MachineConfig pred = withPredictor(base, "2bit");

    // Plain and speculative lanes share a batch; each returns its
    // own run() result.
    MultiIssueSim seq1(MultiIssueConfig{ 4, false }, base);
    MultiIssueSim seq2(MultiIssueConfig{ 8, false }, base);
    MultiIssueSim specSeq(MultiIssueConfig{ 4, false }, pred);
    RuuSim specRuu({ 4, 50, BusKind::kPerUnit },
                   withPredictor(base, "perfect"));
    const BatchOutcome out = runBatch({ { &seq1, &trace },
                                        { &seq2, &trace },
                                        { &specSeq, &trace },
                                        { &specRuu, &trace } });
    ASSERT_EQ(out.results.size(), 4u);

    MultiIssueSim freshSeq1(MultiIssueConfig{ 4, false }, base);
    expectSameResult(out.results.at(0), freshSeq1.run(trace),
                     "plain seq lane, width 4");
    MultiIssueSim freshSeq2(MultiIssueConfig{ 8, false }, base);
    expectSameResult(out.results.at(1), freshSeq2.run(trace),
                     "plain seq lane, width 8");
    MultiIssueSim freshSeq(MultiIssueConfig{ 4, false }, pred);
    expectSameResult(out.results.at(2), freshSeq.run(trace),
                     "speculative seq lane");
    RuuSim freshRuu({ 4, 50, BusKind::kPerUnit },
                    withPredictor(base, "perfect"));
    expectSameResult(out.results.at(3), freshRuu.run(trace),
                     "speculative ruu lane");
}

// ---- identity plumbing: cache keys, names, machine specs -------------

TEST(Speculation, PredictorJoinsCacheKeyAndConfigName)
{
    const MachineConfig base = configM11BR5();
    const MachineConfig pred = withPredictor(base, "2bit");
    EXPECT_EQ(pred.name(), base.name() + "+2bit:512:w8");

    MultiIssueSim plain({ 4, true, BusKind::kPerUnit, false }, base);
    MultiIssueSim spec({ 4, true, BusKind::kPerUnit, false }, pred);
    EXPECT_NE(plain.cacheKey(), spec.cacheKey());
    EXPECT_NE(spec.cacheKey().find("pred=2bit:512:w8"),
              std::string::npos);

    RuuSim ruu({ 4, 50, BusKind::kPerUnit }, pred);
    EXPECT_NE(ruu.cacheKey().find("pred=2bit:512:w8"),
              std::string::npos);
}

TEST(Speculation, MachineSpecPredOptionArmsThePredictor)
{
    const MachineConfig base = configM11BR5();
    const auto ooo = parseMachineSpec("ooo:4,pred=2bit", base);
    EXPECT_NE(ooo->cacheKey().find("pred=2bit:512:w8"),
              std::string::npos);
    const auto ruu = parseMachineSpec("ruu:4:50,pred=fixed:90", base);
    EXPECT_NE(ruu->cacheKey().find("pred=fixed:90:s1:w8"),
              std::string::npos);

    EXPECT_THROW(parseMachineSpec("simple,pred=2bit", base),
                 ConfigError);
    EXPECT_THROW(parseMachineSpec("ooo:4,pred=bogus", base),
                 ConfigError);
}

TEST(Speculation, NonSpeculativeMachinesRejectAnArmedPredictor)
{
    // The single-issue machines fetch no wrong path: a predictor that
    // can mispredict needs a zero window there.  SimpleSim takes none.
    const MachineConfig pred = withPredictor(configM11BR5(), "2bit");
    EXPECT_THROW(SimpleSim{ pred }, ConfigError);
    EXPECT_THROW(Cdc6600Sim(Cdc6600Config{}, pred), ConfigError);
    EXPECT_THROW(ScoreboardSim(ScoreboardConfig::crayLike(), pred),
                 ConfigError);
    EXPECT_THROW(TomasuloSim(TomasuloConfig{}, pred), ConfigError);

    const MachineConfig w0 = withPredictor(configM11BR5(), "2bit:512:w0");
    EXPECT_THROW(SimpleSim{ w0 }, ConfigError);
    EXPECT_NO_THROW(Cdc6600Sim(Cdc6600Config{}, w0));
    EXPECT_NO_THROW(ScoreboardSim(ScoreboardConfig::crayLike(), w0));
    EXPECT_NO_THROW(TomasuloSim(TomasuloConfig{}, w0));
}

TEST(Speculation, TelemetryAccumulatesAcrossRuns)
{
    const SpecTelemetry before = specTelemetry();
    const MachineConfig pred =
        withPredictor(configM11BR5(), "fixed:50");
    RuuSim sim({ 4, 50, BusKind::kPerUnit }, pred);
    const SimResult r =
        sim.run(TraceLibrary::instance().decoded(2, configM11BR5()));
    ASSERT_GT(r.squashes, 0u);
    const SpecTelemetry after = specTelemetry();
    EXPECT_GE(after.squashes, before.squashes + r.squashes);
    EXPECT_GE(after.wrongPathOps, before.wrongPathOps + r.wrongPathOps);
    EXPECT_GT(after.mispredictCycles, before.mispredictCycles);
}

} // namespace
} // namespace mfusim
