/**
 * @file
 * Batched lockstep sweep coverage (sim/batched.hh).
 *
 *  - Bit identity: every covered sim (Simple, Scoreboard orgs,
 *    MultiIssue in both issue orders across widths, bus kinds,
 *    replicated units and predictors) batched over the Table 1/3
 *    latency axis and the organization axes matches the scalar path
 *    on every Livermore loop, with the steady-state fast path on and
 *    off — every SimResult field, including steadyOpsSkipped.
 *  - The covered groups really run lockstep (lockstepLanes > 0) —
 *    lanes with replicated units or an armed predictor included —
 *    and uncovered lanes (audited, single-cell batches, structurally
 *    different traces) fall back to the scalar path with identical
 *    results.
 *  - An audited lane inside a batch produces the same timing as the
 *    plain path and a complete event stream (the Auditor accepts it).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/machine_config.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/audit.hh"
#include "mfusim/sim/batched.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/steady_state.hh"
#include "mfusim/spec/predictor.hh"

namespace mfusim
{
namespace
{

class SteadyGuard
{
  public:
    explicit SteadyGuard(bool on) : prev_(steadyStateEnabled())
    {
        setSteadyStateEnabled(on);
    }
    ~SteadyGuard() { setSteadyStateEnabled(prev_); }

  private:
    bool prev_;
};

void
expectSameResult(const SimResult &got, const SimResult &want,
                 const std::string &what)
{
    EXPECT_EQ(got.instructions, want.instructions) << what;
    EXPECT_EQ(got.cycles, want.cycles) << what;
    EXPECT_EQ(got.steadyOpsSkipped, want.steadyOpsSkipped) << what;
    EXPECT_EQ(got.squashes, want.squashes) << what;
    EXPECT_EQ(got.wrongPathOps, want.wrongPathOps) << what;
    ASSERT_EQ(got.hasStalls, want.hasStalls) << what;
    if (want.hasStalls) {
        EXPECT_EQ(got.stalls.raw, want.stalls.raw) << what;
        EXPECT_EQ(got.stalls.waw, want.stalls.waw) << what;
        EXPECT_EQ(got.stalls.structural, want.stalls.structural)
            << what;
        EXPECT_EQ(got.stalls.resultBus, want.stalls.resultBus)
            << what;
        EXPECT_EQ(got.stalls.branch, want.stalls.branch) << what;
    }
}

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
    // Every covered lane must actually run lockstep — replicated-unit
    // and predictor-armed lanes too: the library loops are scalar and
    // each (kind, loop) group holds >= 2 lanes.
    EXPECT_EQ(out.lockstepLanes, variants.size());
    EXPECT_EQ(out.scalarLanes, 0u);

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

// ---- fallback lanes ---------------------------------------------------

TEST(BatchedSweep, SingleCellBatchTakesScalarPath)
{
    const MachineConfig cfg = standardConfigs()[0];
    const DecodedTrace &trace =
        TraceLibrary::instance().decoded(3, cfg);
    ScoreboardSim sim(ScoreboardConfig::crayLike(), cfg);
    const BatchOutcome out = runBatch({ { &sim, &trace } });
    EXPECT_EQ(out.lockstepLanes, 0u);
    EXPECT_EQ(out.scalarLanes, 1u);

    ScoreboardSim fresh(ScoreboardConfig::crayLike(), cfg);
    expectSameResult(out.results.at(0), fresh.run(trace),
                     "single-cell");
}

TEST(BatchedSweep, OutOfOrderLanesRunLockstep)
{
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
    EXPECT_EQ(out.lockstepLanes, 4u);
    EXPECT_EQ(out.scalarLanes, 0u);

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
    Auditor auditor(trace, audited.auditRules(), audited.name());
    audited.attachAudit(&auditor);

    const BatchOutcome out = runBatch({ { &audited, &trace },
                                        { &plain1, &trace },
                                        { &plain2, &trace } });
    audited.attachAudit(nullptr);
    EXPECT_EQ(out.lockstepLanes, 2u);
    EXPECT_EQ(out.scalarLanes, 1u);
    EXPECT_NO_THROW(auditor.finish());
    EXPECT_EQ(out.results.at(0).steadyOpsSkipped, 0u);

    ScoreboardSim fresh(ScoreboardConfig::crayLike(), cfg);
    expectSameResult(out.results.at(1), fresh.run(trace),
                     "lockstep lane next to audited lane");
    SteadyGuard off(false);
    ScoreboardSim freshPlain(ScoreboardConfig::crayLike(), cfg);
    SimResult base = freshPlain.run(trace);
    EXPECT_EQ(out.results.at(0).cycles, base.cycles);
    EXPECT_EQ(out.results.at(0).instructions, base.instructions);
}

TEST(BatchedSweep, StructurallyDifferentTracesSplitGroups)
{
    const MachineConfig cfg = standardConfigs()[0];
    TraceLibrary &lib = TraceLibrary::instance();
    const DecodedTrace &a = lib.decoded(1, cfg);
    const DecodedTrace &b = lib.decoded(2, cfg);
    EXPECT_FALSE(structurallyIdentical(a, b));
    EXPECT_TRUE(structurallyIdentical(a, a));
    // Same loop decoded under different configs: different latencies,
    // same structure — one shared body in the library, two separate
    // bodies (compared field by field) when decoded standalone.
    const DecodedTrace &a2 = lib.decoded(1, standardConfigs()[1]);
    EXPECT_EQ(&a.body(), &a2.body());
    EXPECT_TRUE(structurallyIdentical(a, a2));
    const DecodedTrace own(lib.trace(1), standardConfigs()[1]);
    EXPECT_NE(&own.body(), &a.body());
    EXPECT_TRUE(structurallyIdentical(a, own));
    EXPECT_FALSE(structurallyIdentical(own, b));

    ScoreboardSim s1(ScoreboardConfig::crayLike(), cfg);
    ScoreboardSim s2(ScoreboardConfig::crayLike(), cfg);
    ScoreboardSim s3(ScoreboardConfig::crayLike(), cfg);
    const BatchOutcome out = runBatch(
        { { &s1, &a }, { &s2, &b }, { &s3, &a } });
    // The two LL1 lanes form a lockstep group; the lone LL2 lane
    // falls back.
    EXPECT_EQ(out.lockstepLanes, 2u);
    EXPECT_EQ(out.scalarLanes, 1u);
    for (int i = 0; i < 3; ++i) {
        ScoreboardSim fresh(ScoreboardConfig::crayLike(), cfg);
        expectSameResult(
            out.results.at(std::size_t(i)),
            fresh.run(i == 1 ? b : a),
            "lane " + std::to_string(i));
    }
}

} // namespace
} // namespace mfusim
