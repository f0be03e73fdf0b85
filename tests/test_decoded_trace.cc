/**
 * @file
 * DecodedTrace: every decoded field must equal the trait lookup it
 * caches, for every op of every Livermore trace under all four
 * machine configurations — in a standalone decode and in the
 * library's shared-body view alike — and running a simulator on the
 * decoded form must give exactly the run(DynTrace) result.  The
 * library builds one body and one periodicity analysis per loop,
 * shared by every configuration, also under concurrent first use,
 * and keeps no DynTrace unless trace() is asked for one.  A body
 * decoded straight from the interpreter's execution log equals the
 * decode of the DynTrace expanded from it, op for op, and a trace
 * with more distinct rows than 16 bits can count decodes exactly.
 * Links interned as distances (up to kLinkHorizon) and as absolute
 * indices (farther) decode to the same producers.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <stdexcept>
#include <tuple>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/dataflow/period_detector.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

class DecodedTraceAllLoops
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
  protected:
    int loopId() const { return std::get<0>(GetParam()); }

    const MachineConfig &
    config() const
    {
        return standardConfigs()[std::size_t(std::get<1>(GetParam()))];
    }
};

/** Every field of @p decoded equals the trait lookup it caches. */
void
expectFieldsMatch(const DynTrace &trace, const MachineConfig &cfg,
                  const DecodedTrace &decoded)
{
    ASSERT_EQ(decoded.size(), trace.size());
    EXPECT_EQ(decoded.name(), trace.name());
    EXPECT_TRUE(decoded.config() == cfg);

    std::array<std::uint32_t, kNumRegs> last_writer;
    last_writer.fill(DecodedTrace::kNoProducer);

    bool any_vector = false;
    const auto &ops = trace.ops();
    for (std::size_t i = 0; i < ops.size(); ++i) {
        const DynOp &op = ops[i];
        ASSERT_EQ(decoded.op(i), op.op) << "op " << i;
        EXPECT_EQ(decoded.fu(i), traitsOf(op.op).fu) << "op " << i;
        EXPECT_EQ(decoded.latency(i), latencyOf(op.op, cfg))
            << "op " << i;
        EXPECT_EQ(decoded.occupancy(i), vectorOccupancy(op))
            << "op " << i;
        EXPECT_EQ(decoded.isBranch(i), isBranch(op.op)) << "op " << i;
        EXPECT_EQ(decoded.isVector(i), isVector(op.op)) << "op " << i;
        EXPECT_EQ(decoded.isMemory(i),
                  traitsOf(op.op).fu == FuClass::kMemory)
            << "op " << i;
        EXPECT_EQ(decoded.isTransfer(i),
                  traitsOf(op.op).fu == FuClass::kTransfer)
            << "op " << i;
        EXPECT_EQ(decoded.producesResult(i), producesResult(op.op))
            << "op " << i;
        EXPECT_EQ(decoded.taken(i), op.taken) << "op " << i;
        EXPECT_EQ(decoded.btfnCorrect(i), op.btfnCorrect())
            << "op " << i;
        EXPECT_EQ(decoded.dst(i), op.dst) << "op " << i;
        EXPECT_EQ(decoded.srcA(i), op.srcA) << "op " << i;
        EXPECT_EQ(decoded.srcB(i), op.srcB) << "op " << i;

        // Dependence links against an independent recomputation.
        const std::uint32_t expectA = op.srcA == kNoReg
            ? DecodedTrace::kNoProducer : last_writer[op.srcA];
        const std::uint32_t expectB = op.srcB == kNoReg
            ? DecodedTrace::kNoProducer : last_writer[op.srcB];
        const std::uint32_t expectW = op.dst == kNoReg
            ? DecodedTrace::kNoProducer : last_writer[op.dst];
        EXPECT_EQ(decoded.prodA(i), expectA) << "op " << i;
        EXPECT_EQ(decoded.prodB(i), expectB) << "op " << i;
        EXPECT_EQ(decoded.prevWriter(i), expectW) << "op " << i;
        if (op.dst != kNoReg)
            last_writer[op.dst] = std::uint32_t(i);

        any_vector = any_vector || isVector(op.op);
    }
    EXPECT_EQ(decoded.hasVector(), any_vector);
}

void
expectStatsMatch(const TraceStats &expect, const TraceStats &got)
{
    EXPECT_EQ(got.totalOps, expect.totalOps);
    EXPECT_EQ(got.parcels, expect.parcels);
    EXPECT_EQ(got.branches, expect.branches);
    EXPECT_EQ(got.takenBranches, expect.takenBranches);
    EXPECT_EQ(got.btfnCorrectBranches, expect.btfnCorrectBranches);
    EXPECT_EQ(got.loads, expect.loads);
    EXPECT_EQ(got.stores, expect.stores);
    EXPECT_EQ(got.vectorOps, expect.vectorOps);
    EXPECT_EQ(got.vectorElements, expect.vectorElements);
    for (unsigned fu = 0; fu < kNumFuClasses; ++fu) {
        EXPECT_EQ(got.perFu[fu], expect.perFu[fu]) << "fu " << fu;
        EXPECT_EQ(got.vectorOpsPerFu[fu], expect.vectorOpsPerFu[fu])
            << "fu " << fu;
        EXPECT_EQ(got.vectorElementsPerFu[fu],
                  expect.vectorElementsPerFu[fu])
            << "fu " << fu;
    }
}

TEST_P(DecodedTraceAllLoops, FieldsMatchTraitLookups)
{
    const DynTrace &trace = TraceLibrary::instance().trace(loopId());
    const MachineConfig &cfg = config();
    const DecodedTrace standalone(trace, cfg);
    const DecodedTrace &view =
        TraceLibrary::instance().decoded(loopId(), cfg);
    for (const DecodedTrace *form : { &standalone, &view }) {
        SCOPED_TRACE(form == &view ? "library view" : "standalone");
        expectFieldsMatch(trace, cfg, *form);
    }
}

TEST_P(DecodedTraceAllLoops, StatsMatchDynTrace)
{
    const DynTrace &trace = TraceLibrary::instance().trace(loopId());
    const DecodedTrace standalone(trace, config());
    const DecodedTrace &view =
        TraceLibrary::instance().decoded(loopId(), config());
    for (const DecodedTrace *form : { &standalone, &view }) {
        SCOPED_TRACE(form == &view ? "library view" : "standalone");
        expectStatsMatch(trace.stats(), form->stats());
    }
}

TEST_P(DecodedTraceAllLoops, SimulatorsMatchDynTracePath)
{
    // run(DynTrace) decodes internally, so both paths must agree
    // cycle for cycle.
    const DynTrace &trace = TraceLibrary::instance().trace(loopId());
    const MachineConfig &cfg = config();
    const DecodedTrace decoded(trace, cfg);

    {
        ScoreboardSim sim(ScoreboardConfig::crayLike(), cfg);
        EXPECT_EQ(sim.run(trace).cycles, sim.run(decoded).cycles);
    }
    {
        MultiIssueSim sim({ 4, true, BusKind::kPerUnit, false }, cfg);
        EXPECT_EQ(sim.run(trace).cycles, sim.run(decoded).cycles);
    }
    {
        RuuSim sim({ 2, 20, BusKind::kPerUnit }, cfg);
        EXPECT_EQ(sim.run(trace).cycles, sim.run(decoded).cycles);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllLoopsAllConfigs, DecodedTraceAllLoops,
    ::testing::Combine(::testing::Range(1, 15),
                       ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &info) {
        return "LL" + std::to_string(std::get<0>(info.param)) + "_" +
            standardConfigs()[std::size_t(std::get<1>(info.param))]
                .name();
    });

TEST(DecodedTrace, ConfigMismatchThrows)
{
    const DynTrace &trace = TraceLibrary::instance().trace(1);
    const DecodedTrace decoded(trace, configM11BR5());
    SimpleSim sim(configM5BR2());
    EXPECT_THROW(sim.run(decoded), ConfigError);
}

TEST(DecodedTrace, LibraryCacheReturnsSameObject)
{
    const DecodedTrace &a =
        TraceLibrary::instance().decoded(3, configM11BR5());
    const DecodedTrace &b =
        TraceLibrary::instance().decoded(3, configM11BR5());
    EXPECT_EQ(&a, &b);
    const DecodedTrace &c =
        TraceLibrary::instance().decoded(3, configM5BR2());
    EXPECT_NE(&a, &c);
}

TEST(DecodedTrace, LibraryViewsShareOneBodyPerLoop)
{
    for (int loop = 1; loop <= 14; ++loop) {
        const DecodedTrace &first = TraceLibrary::instance().decoded(
            loop, standardConfigs().front());
        EXPECT_EQ(&first.body(), TraceLibrary::instance().body(loop).get())
            << "LL" << loop;
        for (const MachineConfig &cfg : standardConfigs()) {
            const DecodedTrace &view =
                TraceLibrary::instance().decoded(loop, cfg);
            EXPECT_EQ(&view.body(), &first.body())
                << "LL" << loop << " " << cfg.name();
            EXPECT_EQ(&view.periodicity(), &first.periodicity())
                << "LL" << loop << " " << cfg.name();
            EXPECT_EQ(&view.writtenRegs(), &first.writtenRegs())
                << "LL" << loop << " " << cfg.name();
        }
    }
}

TEST(DecodedTrace, DecodeConfigDisarmsThePredictor)
{
    // The first caller of a (loop, config) view asks with a 2-bit
    // predictor; the cached view must not report it to later callers.
    TraceLibrary lib;
    MachineConfig armed = configM11BR5();
    armed.predictor = PredictorSpec::parse("2bit");
    ASSERT_TRUE(armed.predictor.armed());

    const DecodedTrace &view = lib.decoded(5, armed);
    EXPECT_FALSE(view.config().predictor.armed());
    EXPECT_EQ(view.config().name(), "M11BR5");
    EXPECT_EQ(&lib.decoded(5, configM11BR5()), &view);

    const DecodedTrace standalone(lib.trace(5), armed);
    EXPECT_FALSE(standalone.config().predictor.armed());
    EXPECT_EQ(standalone.config().name(), "M11BR5");
}

TEST(DecodedTrace, FreshLibraryBuildsOneBodyAndAnalysisPerLoop)
{
    TraceLibrary lib;
    const std::uint64_t bodies = TraceBody::bodiesBuilt();
    const std::uint64_t analyses = TraceBody::periodAnalyses();
    std::set<const TraceBody *> seen;
    for (int loop = 1; loop <= 14; ++loop) {
        for (const MachineConfig &cfg : standardConfigs()) {
            const DecodedTrace &view = lib.decoded(loop, cfg);
            EXPECT_FALSE(view.periodicity().segments.empty())
                << "LL" << loop << " " << cfg.name();
            seen.insert(&view.body());
        }
    }
    EXPECT_EQ(seen.size(), 14u);
    EXPECT_EQ(TraceBody::bodiesBuilt() - bodies, 14u);
    EXPECT_EQ(TraceBody::periodAnalyses() - analyses, 14u);
}

TEST(DecodedTrace, FreshLibraryHoldsBodiesNotTraces)
{
    // Building every view leaves one body per loop and no DynTrace,
    // and each view's latency(i), read from its per-opcode table, is
    // latencyOf(op, cfg).  A later trace() generates the loop again,
    // op for op the ops the body was decoded from.
    TraceLibrary lib;
    const std::uint64_t bodies = TraceBody::bodiesBuilt();
    for (int loop = 1; loop <= 14; ++loop) {
        for (const MachineConfig &cfg : standardConfigs()) {
            const DecodedTrace &view = lib.decoded(loop, cfg);
            for (std::size_t i = 0; i < view.size(); ++i)
                ASSERT_EQ(view.latency(i), latencyOf(view.op(i), cfg))
                    << "LL" << loop << " " << cfg.name() << " op " << i;
        }
    }
    EXPECT_EQ(TraceBody::bodiesBuilt() - bodies, 14u);
    EXPECT_EQ(lib.tracesHeld(), 0u);

    for (int loop = 1; loop <= 14; ++loop) {
        SCOPED_TRACE("LL" + std::to_string(loop));
        const TraceBody &body = *lib.body(loop);
        const DynTrace &trace = lib.trace(loop);
        EXPECT_EQ(body.name(), trace.name());
        ASSERT_EQ(body.size(), trace.size());
        for (std::size_t i = 0; i < body.size(); ++i) {
            const DynOp &op = trace.ops()[i];
            ASSERT_EQ(body.op(i), op.op) << "op " << i;
            ASSERT_EQ(body.dst(i), op.dst) << "op " << i;
            ASSERT_EQ(body.srcA(i), op.srcA) << "op " << i;
            ASSERT_EQ(body.srcB(i), op.srcB) << "op " << i;
            ASSERT_EQ(body.staticIdx(i), std::uint32_t(op.staticIdx))
                << "op " << i;
            ASSERT_EQ(body.taken(i), op.taken) << "op " << i;
            ASSERT_EQ(body.occupancy(i), vectorOccupancy(op))
                << "op " << i;
        }
    }
    EXPECT_EQ(lib.tracesHeld(), 14u);
    EXPECT_EQ(TraceBody::bodiesBuilt() - bodies, 14u);
}

TEST(DecodedTrace, LogDecodeMatchesTraceDecode)
{
    // The library's bodies (and bodyForLoopSpec()'s) are decoded from
    // the execution log, never from a DynTrace; decoding the expanded
    // trace instead must give the same body.
    std::vector<std::string> specs;
    for (int loop = 1; loop <= 14; ++loop)
        specs.push_back(std::to_string(loop));
    specs.push_back("1x4");
    specs.push_back("7v");
    specs.push_back("12v");
    for (const std::string &spec : specs) {
        SCOPED_TRACE("LL" + spec);
        const LoopSpec loop = parseLoopSpec(spec);
        const std::shared_ptr<const TraceBody> fromLog =
            loop.isLibrary() ? TraceLibrary::instance().body(loop.id)
                             : bodyForLoopSpec(loop);
        const TraceBody fromTrace(traceForLoopSpec(loop));
        const TraceBody &a = *fromLog;
        const TraceBody &b = fromTrace;

        EXPECT_EQ(a.name(), b.name());
        EXPECT_EQ(a.hasVector(), b.hasVector());
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(a.numRows(), b.numRows());
        EXPECT_EQ(a.numShapes(), b.numShapes());
        for (std::size_t i = 0; i < a.size(); ++i) {
            ASSERT_EQ(a.shapeId(i), b.shapeId(i)) << "op " << i;
            ASSERT_EQ(a.rowId(i), b.rowId(i)) << "op " << i;
            ASSERT_EQ(a.signature(i), b.signature(i)) << "op " << i;
            ASSERT_EQ(a.op(i), b.op(i)) << "op " << i;
            ASSERT_EQ(a.fu(i), b.fu(i)) << "op " << i;
            ASSERT_EQ(a.flags(i), b.flags(i)) << "op " << i;
            ASSERT_EQ(a.occupancy(i), b.occupancy(i)) << "op " << i;
            ASSERT_EQ(a.dst(i), b.dst(i)) << "op " << i;
            ASSERT_EQ(a.srcA(i), b.srcA(i)) << "op " << i;
            ASSERT_EQ(a.srcB(i), b.srcB(i)) << "op " << i;
            ASSERT_EQ(a.staticIdx(i), b.staticIdx(i)) << "op " << i;
            ASSERT_EQ(a.prodA(i), b.prodA(i)) << "op " << i;
            ASSERT_EQ(a.prodB(i), b.prodB(i)) << "op " << i;
            ASSERT_EQ(a.prevWriter(i), b.prevWriter(i)) << "op " << i;
        }
        expectStatsMatch(b.stats(), a.stats());

        const TracePeriodicity &pa = a.periodicity();
        const TracePeriodicity &pb = b.periodicity();
        EXPECT_EQ(pa.coveredOps, pb.coveredOps);
        ASSERT_EQ(pa.segments.size(), pb.segments.size());
        for (std::size_t k = 0; k < pa.segments.size(); ++k) {
            const TraceSegment &sa = pa.segments[k];
            const TraceSegment &sb = pb.segments[k];
            EXPECT_EQ(sa.base, sb.base) << "segment " << k;
            EXPECT_EQ(sa.period, sb.period) << "segment " << k;
            EXPECT_EQ(sa.count, sb.count) << "segment " << k;
            EXPECT_EQ(sa.lookback, sb.lookback) << "segment " << k;
            EXPECT_EQ(sa.inserts, sb.inserts) << "segment " << k;
            EXPECT_EQ(sa.family, sb.family) << "segment " << k;
            EXPECT_EQ(sa.ancients, sb.ancients) << "segment " << k;
        }
    }
}

TEST(DecodedTrace, WideRowTableKeepsEveryOp)
{
    // More distinct rows than a 16-bit row id could name: a distinct
    // static index on every op, cycling opcodes, registers, vector
    // lengths and branch outcomes.  Every accessor must return the
    // op's own field, the links must match a recount, and two ops
    // must share a signature exactly when all but their static
    // indices agree.
    constexpr std::size_t kOps = 70000;
    DynTrace trace("wide");
    trace.reserve(kOps);
    for (std::size_t i = 0; i < kOps; ++i) {
        DynOp op;
        op.op = Op(i % kNumOps);
        op.dst = i % 11 == 0 ? kNoReg : RegId(i % kNumRegs);
        op.srcA = i % 5 == 0 ? kNoReg : RegId((i * 7 + 3) % kNumRegs);
        op.srcB = i % 3 == 0 ? kNoReg : RegId((i * 13 + 1) % kNumRegs);
        op.staticIdx = StaticIndex(i);
        op.taken = isBranch(op.op) && (i / kNumOps) % 2 == 0;
        op.backward = isBranch(op.op) && (i / kNumOps) % 3 == 0;
        op.vl = isVector(op.op) ? std::uint8_t(1 + i % 64) : 0;
        trace.append(op);
    }
    const MachineConfig &cfg = standardConfigs()[1];
    const DecodedTrace decoded(trace, cfg);
    const TraceBody &body = decoded.body();
    ASSERT_EQ(body.size(), kOps);
    EXPECT_EQ(body.numRows(), kOps);
    EXPECT_GT(body.numRows(), std::size_t(1) << 16);

    std::array<std::uint32_t, kNumRegs> lastWriter;
    lastWriter.fill(DecodedOps::kNoProducer);
    const auto writerOf = [&](RegId r) {
        return r == kNoReg ? DecodedOps::kNoProducer : lastWriter[r];
    };
    std::map<std::tuple<Op, RegId, RegId, RegId, unsigned, bool, bool>,
             std::uint32_t>
        sigOf;
    for (std::size_t i = 0; i < kOps; ++i) {
        const DynOp &op = trace[i];
        ASSERT_EQ(body.op(i), op.op) << "op " << i;
        ASSERT_EQ(body.fu(i), traitsOf(op.op).fu) << "op " << i;
        ASSERT_EQ(body.occupancy(i), vectorOccupancy(op)) << "op " << i;
        ASSERT_EQ(body.isBranch(i), isBranch(op.op)) << "op " << i;
        ASSERT_EQ(body.isVector(i), isVector(op.op)) << "op " << i;
        ASSERT_EQ(body.isMemory(i), traitsOf(op.op).fu == FuClass::kMemory)
            << "op " << i;
        ASSERT_EQ(body.isTransfer(i),
                  traitsOf(op.op).fu == FuClass::kTransfer)
            << "op " << i;
        ASSERT_EQ(body.producesResult(i), producesResult(op.op))
            << "op " << i;
        ASSERT_EQ(body.taken(i), op.taken) << "op " << i;
        ASSERT_EQ(body.btfnCorrect(i), op.btfnCorrect()) << "op " << i;
        ASSERT_EQ(body.dst(i), op.dst) << "op " << i;
        ASSERT_EQ(body.srcA(i), op.srcA) << "op " << i;
        ASSERT_EQ(body.srcB(i), op.srcB) << "op " << i;
        ASSERT_EQ(body.staticIdx(i), op.staticIdx) << "op " << i;
        ASSERT_EQ(body.rowId(i), i) << "op " << i;
        ASSERT_EQ(decoded.latency(i), latencyOf(op.op, cfg)) << "op " << i;

        ASSERT_EQ(body.prodA(i), writerOf(op.srcA)) << "op " << i;
        ASSERT_EQ(body.prodB(i), writerOf(op.srcB)) << "op " << i;
        ASSERT_EQ(body.prevWriter(i), writerOf(op.dst)) << "op " << i;
        if (op.dst != kNoReg)
            lastWriter[op.dst] = std::uint32_t(i);

        const auto [at, added] = sigOf.try_emplace(
            std::tuple(op.op, op.dst, op.srcA, op.srcB,
                       vectorOccupancy(op), op.taken, op.btfnCorrect()),
            body.signature(i));
        ASSERT_EQ(body.signature(i), at->second) << "op " << i;
        if (added) {
            ASSERT_EQ(body.signature(i), sigOf.size() - 1) << "op " << i;
        }
    }
}

TEST(DecodedTrace, LinksAcrossTheHorizonDecodeExactly)
{
    // Producers 1, kLinkHorizon - 1, kLinkHorizon, kLinkHorizon + 1
    // and 70,000 ops before their readers, among stores that all read
    // one loop invariant, S7, written by op 0.  A link at most
    // kLinkHorizon back is interned as a distance and a farther one as
    // an absolute index; both must decode to the last writer.
    constexpr std::uint32_t kHorizon = DecodedOps::kLinkHorizon;
    static_assert(kHorizon == 256);
    constexpr std::size_t kOps = 70100;
    const std::vector<std::tuple<RegId, std::size_t, std::size_t>>
        pairs = { { S1, 1000, 1 },
                  { S2, 2000, kHorizon - 1 },
                  { S3, 3000, kHorizon },
                  { S4, 4000, kHorizon + 1 },
                  { S5, 1, 70000 } };

    // The loop body: a store of the invariant (A1 is never written).
    DynOp store = test::dyn(Op::kStoreS, kNoReg, A1, S7);
    store.staticIdx = 1;
    std::vector<DynOp> ops(kOps, store);
    ops[0] = test::dyn(Op::kSConst, S7);
    std::set<std::size_t> special = { 0 };
    for (const auto &[reg, producer, distance] : pairs) {
        ops[producer] = test::dyn(Op::kSConst, reg);
        ops[producer].staticIdx = StaticIndex(2 + reg);
        ops[producer + distance] = test::dyn(Op::kFAdd, S6, reg, S7);
        ops[producer + distance].staticIdx = StaticIndex(20 + reg);
        special.insert(producer);
        special.insert(producer + distance);
    }
    ASSERT_EQ(special.size(), 1 + 2 * pairs.size());
    DynTrace trace("horizon");
    trace.reserve(kOps);
    for (const DynOp &op : ops)
        trace.append(op);

    const TraceBody body(trace);
    ASSERT_EQ(body.size(), kOps);
    std::array<std::uint32_t, kNumRegs> lastWriter;
    lastWriter.fill(DecodedOps::kNoProducer);
    const auto writerOf = [&](RegId r) {
        return r == kNoReg ? DecodedOps::kNoProducer : lastWriter[r];
    };
    for (std::size_t i = 0; i < kOps; ++i) {
        const DynOp &op = trace[i];
        ASSERT_EQ(body.prodA(i), writerOf(op.srcA)) << "op " << i;
        ASSERT_EQ(body.prodB(i), writerOf(op.srcB)) << "op " << i;
        ASSERT_EQ(body.prevWriter(i), writerOf(op.dst)) << "op " << i;
        if (op.dst != kNoReg)
            lastWriter[op.dst] = std::uint32_t(i);
    }
    for (const auto &[reg, producer, distance] : pairs)
        EXPECT_EQ(body.prodA(producer + distance), producer)
            << "distance " << distance;

    // Every store past the horizon reads S7 from op 0 and interns to
    // one shape; nearer ones each see their own distance.
    std::set<std::uint32_t> far;
    std::set<std::uint32_t> near;
    for (std::size_t i = 1; i < kOps; ++i) {
        if (special.count(i) == 0)
            (i > kHorizon ? far : near).insert(body.shapeId(i));
    }
    EXPECT_EQ(far.size(), 1u);
    EXPECT_EQ(near.size(), kHorizon - 1);   // op 1 writes S5
    EXPECT_EQ(far.count(*near.begin()), 0u);
    EXPECT_LE(body.numShapes(), kHorizon + 2 * special.size());
}

TEST(DecodedTrace, ConcurrentFirstUseBuildsOneBody)
{
    // Eight workers race to the first use of one loop under four
    // configurations: one body, one analysis, four views of it.
    TraceLibrary lib;
    const std::uint64_t bodies = TraceBody::bodiesBuilt();
    const std::uint64_t analyses = TraceBody::periodAnalyses();
    std::array<const DecodedTrace *, 8> views{};
    runGrid(views.size(), [&](std::size_t i) {
        const DecodedTrace &view = lib.decoded(
            7, standardConfigs()[i % standardConfigs().size()]);
        view.periodicity();
        views[i] = &view;
    }, 8);
    EXPECT_EQ(TraceBody::bodiesBuilt() - bodies, 1u);
    EXPECT_EQ(TraceBody::periodAnalyses() - analyses, 1u);
    for (std::size_t i = 0; i < views.size(); ++i) {
        EXPECT_EQ(&views[i]->body(), &views[0]->body()) << "job " << i;
        EXPECT_EQ(views[i], views[i % 4]) << "job " << i;
        EXPECT_TRUE(views[i]->config() ==
                    standardConfigs()[i % standardConfigs().size()])
            << "job " << i;
    }
}

} // namespace
} // namespace mfusim
