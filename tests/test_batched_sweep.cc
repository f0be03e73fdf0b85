/**
 * @file
 * Batched sweep coverage (sim/batched.hh).
 *
 *  - Bit identity: every sim (Simple, Scoreboard orgs, MultiIssue in
 *    both issue orders across widths, bus kinds, replicated units
 *    and predictors) batched over the Table 1/3 latency axis and the
 *    organization axes matches its own run() on every Livermore
 *    loop, with the steady-state fast path on and off — every
 *    SimResult field, including steadyOpsSkipped.
 *  - Single-cell batches, mixed issue orders, audited lanes and
 *    lanes over different traces each return their own run() result.
 *  - An audited lane inside a batch produces the same timing as the
 *    plain path and a complete event stream (the Auditor accepts it).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/error.hh"
#include "mfusim/core/machine_config.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/audit.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/steady_state.hh"
#include "mfusim/spec/predictor.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::expectSameResult;
using test::SteadyGuard;

/**
 * The sweep variants one batch advances over a single loop: the full
 * Table 1/3 latency axis (all standard configs) for each machine
 * organization, plus replicated-unit and predictor-armed lanes of
 * the scoreboard and both multiple-issue orders.  Mirrors how
 * runGrid / the table benches batch.
 */
struct Variant
{
    std::unique_ptr<Simulator> sim;
    const DecodedTrace *trace;
    std::string label;
};

std::vector<Variant>
sweepVariants(int loop)
{
    std::vector<Variant> v;
    TraceLibrary &lib = TraceLibrary::instance();
    for (const MachineConfig &cfg : standardConfigs()) {
        const DecodedTrace &trace = lib.decoded(loop, cfg);
        v.push_back({ std::make_unique<SimpleSim>(cfg), &trace,
                      "Simple/" + cfg.name() });
        for (const auto &org :
             { ScoreboardConfig::serialMemory(),
               ScoreboardConfig::nonSegmented(),
               ScoreboardConfig::crayLike() }) {
            v.push_back(
                { std::make_unique<ScoreboardSim>(org, cfg), &trace,
                  "Scoreboard/" + cfg.name() });
        }
        ScoreboardConfig fuc = ScoreboardConfig::crayLike();
        fuc.fuCopies = 2;
        ScoreboardConfig mp = ScoreboardConfig::nonSegmented();
        mp.memPorts = 2;
        for (const auto &org : { fuc, mp }) {
            v.push_back(
                { std::make_unique<ScoreboardSim>(org, cfg), &trace,
                  "Scoreboard(replicated)/" + cfg.name() });
        }
        for (const char *pred : { "btfn:w0", "2bit:w0", "perfect" }) {
            MachineConfig armed = cfg;
            armed.predictor = PredictorSpec::parse(pred);
            v.push_back({ std::make_unique<ScoreboardSim>(
                              ScoreboardConfig::crayLike(), armed),
                          &trace,
                          std::string("Scoreboard(") + pred + ")/" +
                              cfg.name() });
        }
        for (const bool ooo : { false, true }) {
            const std::string family = ooo ? "ooo:" : "seq:";
            for (const unsigned width : { 1u, 2u, 4u, 8u }) {
                for (const BusKind bus :
                     { BusKind::kPerUnit, BusKind::kSingle }) {
                    v.push_back({ std::make_unique<MultiIssueSim>(
                                      MultiIssueConfig{ width, ooo, bus },
                                      cfg),
                                  &trace,
                                  family + std::to_string(width) + "/" +
                                      busKindName(bus) + "/" +
                                      cfg.name() });
                }
            }
            MultiIssueConfig replicated{ 4, ooo, BusKind::kPerUnit };
            replicated.fuCopies = 2;
            replicated.memPorts = 2;
            v.push_back({ std::make_unique<MultiIssueSim>(replicated, cfg),
                          &trace, family + "4/fuc2mp2/" + cfg.name() });
            for (const char *pred : { "btfn:w0", "2bit", "perfect" }) {
                MachineConfig armed = cfg;
                armed.predictor = PredictorSpec::parse(pred);
                v.push_back({ std::make_unique<MultiIssueSim>(
                                  MultiIssueConfig{ 4, ooo,
                                                    BusKind::kPerUnit },
                                  armed),
                              &trace,
                              family + "4," + pred + "/" + cfg.name() });
            }
        }
    }
    return v;
}

// ---- bit identity: covered sims x loops x axes, steady on/off ---------

class BatchedBitIdentity
    : public ::testing::TestWithParam<std::tuple<int, bool>>
{};

TEST_P(BatchedBitIdentity, MatchesScalarPath)
{
    const int loop = std::get<0>(GetParam());
    SteadyGuard steady(std::get<1>(GetParam()));

    std::vector<Variant> variants = sweepVariants(loop);
    std::vector<BatchLane> lanes;
    for (const Variant &v : variants)
        lanes.push_back({ v.sim.get(), v.trace });
    const BatchOutcome out = runBatch(lanes);

    ASSERT_EQ(out.results.size(), variants.size());

    std::vector<Variant> fresh = sweepVariants(loop);
    for (std::size_t i = 0; i < variants.size(); ++i) {
        const SimResult scalar = fresh[i].sim->run(*fresh[i].trace);
        expectSameResult(out.results[i], scalar, variants[i].label);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLoops, BatchedBitIdentity,
    ::testing::Combine(::testing::Range(1, 15), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>> &info) {
        return "LL" + std::to_string(std::get<0>(info.param)) +
            (std::get<1>(info.param) ? "_steady" : "_plain");
    });

// ---- lanes run alone ---------------------------------------------------

TEST(BatchedSweep, SingleCellBatchTakesScalarPath)
{
    const MachineConfig cfg = standardConfigs()[0];
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(3, cfg);
    ScoreboardSim sim(ScoreboardConfig::crayLike(), cfg);
    const BatchOutcome out = runBatch({ { &sim, &trace } });
    ASSERT_EQ(out.results.size(), 1u);

    ScoreboardSim fresh(ScoreboardConfig::crayLike(), cfg);
    expectSameResult(out.results.at(0), fresh.run(trace),
                     "single-cell");
}

TEST(BatchedSweep, NullLaneIsConfigError)
{
    const MachineConfig cfg = standardConfigs()[0];
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(3, cfg);
    ScoreboardSim sim(ScoreboardConfig::crayLike(), cfg);
    const BatchTelemetry before = batchTelemetry();
    EXPECT_THROW(runBatch({ { &sim, &trace }, { nullptr, &trace } }),
                 ConfigError);
    EXPECT_THROW(runBatch({ { &sim, &trace }, { &sim, nullptr } }),
                 ConfigError);
    const BatchTelemetry after = batchTelemetry();
    EXPECT_EQ(after.batches, before.batches);
    EXPECT_EQ(after.lanes, before.lanes);
}

TEST(BatchedSweep, OutOfOrderLanesRunLockstep)
{
    // Both issue orders and two widths in one batch: each lane
    // returns its own run() result.
    const MachineConfig cfg = standardConfigs()[0];
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(5, cfg);
    MultiIssueSim ooo1(MultiIssueConfig{ 4, true }, cfg);
    MultiIssueSim ooo2(MultiIssueConfig{ 8, true }, cfg);
    MultiIssueSim seq1(MultiIssueConfig{ 4, false }, cfg);
    MultiIssueSim seq2(MultiIssueConfig{ 8, false }, cfg);
    const BatchOutcome out = runBatch({ { &ooo1, &trace },
                                        { &ooo2, &trace },
                                        { &seq1, &trace },
                                        { &seq2, &trace } });
    ASSERT_EQ(out.results.size(), 4u);

    for (const unsigned width : { 4u, 8u }) {
        for (const bool ooo : { true, false }) {
            MultiIssueSim fresh(MultiIssueConfig{ width, ooo }, cfg);
            const std::size_t idx =
                (ooo ? 0 : 2) + (width == 8 ? 1 : 0);
            expectSameResult(out.results.at(idx), fresh.run(trace),
                             "w=" + std::to_string(width) +
                                 (ooo ? " ooo" : " seq"));
        }
    }
}

TEST(BatchedSweep, AuditedLaneFallsBackScalarWithCleanAudit)
{
    const MachineConfig cfg = standardConfigs()[0];
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(7, cfg);

    ScoreboardSim audited(ScoreboardConfig::crayLike(), cfg);
    ScoreboardSim plain1(ScoreboardConfig::crayLike(), cfg);
    ScoreboardSim plain2(ScoreboardConfig::serialMemory(), cfg);
    OpSchedule schedule(trace.size());
    audited.attachAudit(&schedule);

    const BatchOutcome out = runBatch({ { &audited, &trace },
                                        { &plain1, &trace },
                                        { &plain2, &trace } });
    audited.attachAudit(nullptr);
    ASSERT_EQ(out.results.size(), 3u);
    EXPECT_NO_THROW(Auditor(trace, schedule, audited.auditRules(),
                            audited.name())
                        .check());
    EXPECT_EQ(out.results.at(0).steadyOpsSkipped, 0u);

    ScoreboardSim fresh(ScoreboardConfig::crayLike(), cfg);
    expectSameResult(out.results.at(1), fresh.run(trace),
                     "plain lane next to audited lane");
    ScoreboardSim freshSerial(ScoreboardConfig::serialMemory(), cfg);
    expectSameResult(out.results.at(2), freshSerial.run(trace),
                     "serial-memory lane next to audited lane");
    SteadyGuard off(false);
    ScoreboardSim freshPlain(ScoreboardConfig::crayLike(), cfg);
    SimResult base = freshPlain.run(trace);
    EXPECT_EQ(out.results.at(0).cycles, base.cycles);
    EXPECT_EQ(out.results.at(0).instructions, base.instructions);
}

TEST(BatchedSweep, StructurallyDifferentTracesSplitGroups)
{
    // Lanes over different traces return their own run() results:
    // two loops, and one loop decoded under two configurations —
    // from the library's shared body and standalone.
    TraceLibrary &lib = TraceLibrary::instance();
    const MachineConfig &cfg = standardConfigs()[0];
    const MachineConfig &slow = standardConfigs()[1];
    const DecodedTrace &a = lib.decoded(1, cfg);
    const DecodedTrace &b = lib.decoded(2, cfg);
    const DecodedTrace &a2 = lib.decoded(1, slow);
    const DecodedTrace own(lib.trace(1), slow);
    const std::vector<const DecodedTrace *> traces = { &a, &b, &a2,
                                                       &own, &a };

    std::vector<std::unique_ptr<ScoreboardSim>> sims;
    std::vector<BatchLane> lanes;
    for (const DecodedTrace *trace : traces) {
        sims.push_back(std::make_unique<ScoreboardSim>(
            ScoreboardConfig::crayLike(), trace->config()));
        lanes.push_back({ sims.back().get(), trace });
    }
    const BatchOutcome out = runBatch(lanes);
    ASSERT_EQ(out.results.size(), traces.size());
    EXPECT_NE(out.results[0].cycles, out.results[1].cycles);
    EXPECT_NE(out.results[0].cycles, out.results[2].cycles);
    for (std::size_t i = 0; i < traces.size(); ++i) {
        ScoreboardSim fresh(ScoreboardConfig::crayLike(),
                            traces[i]->config());
        expectSameResult(out.results[i], fresh.run(*traces[i]),
                         "lane " + std::to_string(i));
    }
}

} // namespace
} // namespace mfusim
