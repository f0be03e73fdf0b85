/**
 * @file
 * Steady-state fast path coverage (sim/steady_state.hh).
 *
 *  - Every simulator produces bit-identical results (instructions,
 *    cycles, full stall breakdown, speculation counters) with the
 *    fast path on and off, on every library loop and machine config,
 *    with and without a static branch predictor armed.
 *  - The audited path matches too (auditing bypasses the fast path,
 *    so its event stream stays complete).
 *  - Crafted aperiodic and too-short traces never extrapolate.
 *  - The long loops actually exercise the fast path (skip > 0), also
 *    under static predictors; predictors with history never do.
 *  - PeriodDetector finds the right segment shape on a hand-built
 *    periodic trace and stays silent on aperiodic ones, and the
 *    once-per-body analysis reproduces the segments pinned in
 *    golden/periodicity.txt for every loop and configuration.
 */

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/dataflow/period_detector.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/audit.hh"
#include "mfusim/sim/cdc6600_sim.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/simulator.hh"
#include "mfusim/sim/steady_state.hh"
#include "mfusim/sim/tomasulo_sim.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::expectSameResult;
using test::SteadyGuard;
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

/**
 * The static predictors (perfect, taken, btfn) on every machine that
 * takes one: at :w0 and at the default window on MultiIssue and RUU,
 * at :w0 on the single-issue machines (the only window they accept).
 */
std::vector<std::string>
staticPredictorMachines()
{
    std::vector<std::string> specs;
    for (const char *pred : { "perfect", "taken", "btfn" }) {
        for (const char *machine : { "ooo:4", "ruu:2:20" }) {
            specs.push_back(std::string(machine) + ",pred=" + pred);
            specs.push_back(std::string(machine) + ",pred=" + pred +
                            ":w0");
        }
        for (const char *machine : { "cray", "cdc", "tomasulo:3:1" })
            specs.push_back(std::string(machine) + ",pred=" + pred +
                            ":w0");
    }
    return specs;
}

// ---- bit identity: all sims x all loops x all configs -----------------

class SteadyBitIdentity
    : public ::testing::TestWithParam<std::tuple<int, int>>
{};

TEST_P(SteadyBitIdentity, FastPathMatchesPlainPath)
{
    const int loop = std::get<0>(GetParam());
    const MachineConfig cfg =
        standardConfigs()[std::size_t(std::get<1>(GetParam()))];
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(loop, cfg);

    auto fastSims = allSims(cfg);
    auto plainSims = allSims(cfg);
    for (const std::string &spec : staticPredictorMachines()) {
        fastSims.push_back(parseMachineSpec(spec, cfg));
        plainSims.push_back(parseMachineSpec(spec, cfg));
    }
    for (std::size_t s = 0; s < fastSims.size(); ++s) {
        SimResult plain;
        {
            SteadyGuard off(false);
            plain = plainSims[s]->run(trace);
            EXPECT_EQ(plain.steadyOpsSkipped, 0u)
                << plainSims[s]->name();
        }
        SimResult fast;
        {
            SteadyGuard on(true);
            fast = fastSims[s]->run(trace);
        }
        fast.steadyOpsSkipped = plain.steadyOpsSkipped;
        expectSameResult(fast, plain,
                         fastSims[s]->name() + " " +
                             fastSims[s]->config().name());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLoopsAllConfigs, SteadyBitIdentity,
    ::testing::Combine(::testing::Range(1, 15),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return "LL" + std::to_string(std::get<0>(info.param)) + "_" +
            standardConfigs()[std::size_t(std::get<1>(info.param))]
                .name();
    });

// ---- audit path stays complete and identical --------------------------

TEST(SteadyState, AuditedRunMatchesPlainRun)
{
    // Auditing bypasses the fast path (the audit event stream must
    // cover every op), so an audited run with the fast path enabled
    // must still match a plain unaudited baseline.
    SteadyGuard on(true);
    const MachineConfig cfg = configM11BR5();
    for (const int loop : { 6, 7, 13 }) {
        const DecodedTrace &trace =
            TraceLibrary::instance().decoded(loop, cfg);
        auto baseSims = allSims(cfg);
        auto auditSims = allSims(cfg);
        for (std::size_t s = 0; s < baseSims.size(); ++s) {
            const SimResult base = baseSims[s]->run(trace);
            SimResult audited;
            ASSERT_NO_THROW(
                audited = runAudited(*auditSims[s], trace))
                << baseSims[s]->name() << " LL" << loop;
            const std::string what =
                baseSims[s]->name() + " LL" + std::to_string(loop);
            EXPECT_EQ(audited.steadyOpsSkipped, 0u) << what;
            audited.steadyOpsSkipped = base.steadyOpsSkipped;
            expectSameResult(audited, base, what);
        }
    }
}

// ---- the long loops actually take the fast path -----------------------

TEST(SteadyState, LongLoopsSkipOps)
{
    SteadyGuard on(true);
    const MachineConfig cfg = configM11BR5();
    for (const int loop : { 6, 7, 13 }) {
        const DecodedTrace &trace =
            TraceLibrary::instance().decoded(loop, cfg);
        for (auto &sim : allSims(cfg)) {
            const SimResult r = sim->run(trace);
            EXPECT_GT(r.steadyOpsSkipped, 0u)
                << sim->name() << " LL" << loop;
            EXPECT_LT(r.steadyOpsSkipped, r.instructions)
                << sim->name() << " LL" << loop;
        }
    }
}

TEST(SteadyState, StaticPredictorsKeepTheFastPath)
{
    // A static predictor's mispredicts repeat with the loop period,
    // so the fast path stays on; 2-bit counters and fixed-accuracy
    // hashes carry history across iterations and keep it off.
    SteadyGuard on(true);
    const MachineConfig cfg = configM11BR5();
    for (const int loop : { 6, 7, 13 }) {
        const DecodedTrace &trace =
            TraceLibrary::instance().decoded(loop, cfg);
        for (const std::string &spec : staticPredictorMachines()) {
            EXPECT_GT(parseMachineSpec(spec, cfg)
                          ->run(trace)
                          .steadyOpsSkipped,
                      0u)
                << spec << " LL" << loop;
        }
        for (const char *spec :
             { "ooo:4,pred=2bit", "ooo:4,pred=fixed:90",
               "ruu:2:20,pred=2bit", "ruu:2:20,pred=fixed:90",
               "cray,pred=2bit:512:w0", "cdc,pred=fixed:90:w0",
               "tomasulo:3:1,pred=2bit:512:w0" }) {
            EXPECT_EQ(parseMachineSpec(spec, cfg)
                          ->run(trace)
                          .steadyOpsSkipped,
                      0u)
                << spec << " LL" << loop;
        }
    }
}

TEST(SteadyState, DisabledSwitchReportsZeroSkips)
{
    SteadyGuard off(false);
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(7, configM11BR5());
    for (auto &sim : allSims(configM11BR5()))
        EXPECT_EQ(sim->run(trace).steadyOpsSkipped, 0u)
            << sim->name();
}

// ---- crafted traces: aperiodic and short never extrapolate ------------

/** n iterations of a 3-op loop body behind a 2-op preamble:
 *  load S2, fadd S3 = S1 + S2, taken back-edge branch. */
DynTrace
periodicTrace(std::size_t iterations)
{
    DynTrace trace("periodic");
    trace.append(dyn(Op::kSConst, S1));
    trace.append(dyn(Op::kAConst, A1));
    for (std::size_t i = 0; i < iterations; ++i) {
        trace.append(dyn(Op::kLoadS, S2, A1));
        trace.append(dyn(Op::kFAdd, S3, S1, S2));
        trace.append(dyn(Op::kBrANZ, kNoReg, A0, kNoReg, true));
    }
    return trace;
}

/** Runs of fadds with strictly growing lengths between taken
 *  branches: no two inter-branch spans match, so no period exists. */
DynTrace
aperiodicTrace()
{
    DynTrace trace("aperiodic");
    trace.append(dyn(Op::kSConst, S1));
    trace.append(dyn(Op::kSConst, S2));
    for (std::size_t run = 1; run <= 10; ++run) {
        for (std::size_t i = 0; i < run; ++i)
            trace.append(dyn(Op::kFAdd, S3, S1, S2));
        trace.append(dyn(Op::kBrANZ, kNoReg, A0, kNoReg, true));
    }
    return trace;
}

TEST(SteadyState, AperiodicTraceNeverSkips)
{
    SteadyGuard on(true);
    const DynTrace trace = aperiodicTrace();
    for (const MachineConfig &cfg : standardConfigs()) {
        const DecodedTrace decoded(trace, cfg);
        EXPECT_TRUE(detectPeriods(decoded).segments.empty())
            << cfg.name();
        for (auto &sim : allSims(cfg))
            EXPECT_EQ(sim->run(decoded).steadyOpsSkipped, 0u)
                << sim->name() << " " << cfg.name();
    }
}

TEST(SteadyState, ShortTraceNeverSkips)
{
    // Three periods are detected (the minimum is two), but a
    // standalone short segment still cannot skip: confirmation takes
    // two consecutive matches, and by then only the never-skipped
    // final period remains.  Only a previously confirmed *family*
    // could waive the warm-up, and this trace has a single segment.
    SteadyGuard on(true);
    const DynTrace trace = periodicTrace(3);
    const MachineConfig cfg = configM11BR5();
    const DecodedTrace decoded(trace, cfg);
    EXPECT_FALSE(detectPeriods(decoded).segments.empty());
    for (auto &sim : allSims(cfg))
        EXPECT_EQ(sim->run(decoded).steadyOpsSkipped, 0u)
            << sim->name();
}

TEST(SteadyState, CraftedPeriodicTraceIsBitIdentical)
{
    const DynTrace trace = periodicTrace(200);
    for (const MachineConfig &cfg : standardConfigs()) {
        const DecodedTrace decoded(trace, cfg);
        auto fastSims = allSims(cfg);
        auto plainSims = allSims(cfg);
        for (std::size_t s = 0; s < fastSims.size(); ++s) {
            SimResult plain;
            {
                SteadyGuard off(false);
                plain = plainSims[s]->run(decoded);
            }
            SimResult fast;
            {
                SteadyGuard on(true);
                fast = fastSims[s]->run(decoded);
            }
            fast.steadyOpsSkipped = plain.steadyOpsSkipped;
            expectSameResult(fast, plain,
                             fastSims[s]->name() + std::string(" ") +
                                 cfg.name());
        }
    }
}

// ---- period detector unit coverage ------------------------------------

TEST(PeriodDetector, FindsHandBuiltLoop)
{
    const DynTrace trace = periodicTrace(10);
    const DecodedTrace decoded(trace, configM11BR5());
    const TracePeriodicity periods = detectPeriods(decoded);
    ASSERT_EQ(periods.segments.size(), 1u);
    const TraceSegment &seg = periods.segments.front();
    EXPECT_EQ(seg.period, 3u);
    EXPECT_GE(seg.count, 8u);
    EXPECT_LE(seg.end(), decoded.size());
    EXPECT_GE(seg.lookback, seg.period);
    EXPECT_EQ(seg.inserts, 2u); // load + fadd; the branch is not one
    // The preamble constants feed every period (loop-invariant S1
    // and the A1 address), so they are the segment's ancients.
    ASSERT_FALSE(seg.ancients.empty());
    for (const std::uint32_t a : seg.ancients)
        EXPECT_LT(a, seg.base);
}

/** @p seg as a golden/periodicity.txt line. */
std::string
segmentLine(const MachineConfig &cfg, int loop, const TraceSegment &seg)
{
    std::ostringstream out;
    out << cfg.name() << ' ' << loop << ' ' << seg.base << ' '
        << seg.period << ' ' << seg.count << ' ' << seg.lookback << ' '
        << seg.inserts << ' ' << seg.family << ' ';
    if (seg.ancients.empty())
        out << '-';
    for (std::size_t k = 0; k < seg.ancients.size(); ++k)
        out << (k > 0 ? "," : "") << seg.ancients[k];
    return out.str();
}

TEST(PeriodDetector, ReproducesPinnedSegments)
{
    // The fixture was recorded while every (loop, configuration)
    // decode ran its own analysis, latencies included.  The analysis
    // of the shared body, and that of a standalone decode, must
    // reproduce it under every configuration.
    const std::vector<std::string> pinned =
        test::goldenLines("periodicity.txt");
    ASSERT_EQ(pinned.size(), 332u);
    std::vector<std::string> shared;
    std::vector<std::string> standalone;
    for (const MachineConfig &cfg : standardConfigs()) {
        for (int loop = 1; loop <= 14; ++loop) {
            const DecodedTrace &view =
                TraceLibrary::instance().decoded(loop, cfg);
            for (const TraceSegment &seg : view.periodicity().segments)
                shared.push_back(segmentLine(cfg, loop, seg));
            const DecodedTrace own(TraceLibrary::instance().trace(loop),
                                   cfg);
            for (const TraceSegment &seg : detectPeriods(own).segments)
                standalone.push_back(segmentLine(cfg, loop, seg));
        }
    }
    ASSERT_EQ(shared.size(), pinned.size());
    ASSERT_EQ(standalone.size(), pinned.size());
    for (std::size_t i = 0; i < pinned.size(); ++i) {
        EXPECT_EQ(shared[i], pinned[i]) << "fixture line " << i;
        EXPECT_EQ(standalone[i], pinned[i]) << "fixture line " << i;
    }
}

TEST(PeriodDetector, CoversMostOfLivermoreLoops)
{
    // The long library loops are overwhelmingly periodic; the
    // detector should cover the bulk of their ops.
    for (const int loop : { 6, 7, 13 }) {
        const DecodedTrace &trace =
            TraceLibrary::instance().decoded(loop, configM11BR5());
        const TracePeriodicity periods = detectPeriods(trace);
        ASSERT_FALSE(periods.segments.empty()) << "LL" << loop;
        EXPECT_GT(periods.coveredOps, trace.size() / 2)
            << "LL" << loop;
        std::size_t prevEnd = 0;
        for (const TraceSegment &seg : periods.segments) {
            EXPECT_GE(seg.base, prevEnd) << "LL" << loop;
            EXPECT_GE(seg.count, 2u) << "LL" << loop;
            prevEnd = seg.end();
        }
        EXPECT_LE(prevEnd, trace.size()) << "LL" << loop;
    }
}

TEST(PeriodDetector, HierarchicalLl6CoverageAndFamilies)
{
    // LL6's triangular nest decomposes into many short inner-run
    // segments.  With the two-period minimum the structural coverage
    // clears its old ~78% cap, and every inner run carries the same
    // body — one family — so the steady-state tracker's family trust
    // applies across the whole nest.
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(6, configM11BR5());
    const TracePeriodicity periods = detectPeriods(trace);
    EXPECT_GT(periods.coveredOps, trace.size() * 85 / 100);
    ASSERT_GT(periods.segments.size(), 10u);
    for (const TraceSegment &seg : periods.segments)
        EXPECT_EQ(seg.family, periods.segments.front().family);
    // Family trust turns into real skips: with the fast path on,
    // every simulator closes a large part of LL6 by extrapolation.
    SteadyGuard on(true);
    const MachineConfig cfg = configM11BR5();
    for (auto &sim : allSims(cfg)) {
        EXPECT_GT(sim->run(trace).steadyOpsSkipped,
                  std::uint64_t(trace.size()) / 2)
            << sim->name();
    }
}

} // namespace
} // namespace mfusim
