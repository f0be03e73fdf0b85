/**
 * @file
 * Trace analysis tests: dependence distances, basic blocks, width
 * profiles on hand-built and benchmark traces.
 */

#include <gtest/gtest.h>

#include "mfusim/dataflow/limits.hh"
#include "mfusim/dataflow/trace_analysis.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/trace_library.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::traceOf;

/** @p trace decoded under M11BR5. */
DecodedTrace
decode(const DynTrace &trace)
{
    return DecodedTrace(trace, configM11BR5());
}

/** The hand-built vector op @p op of length @p vl. */
DynOp
vop(Op op, RegId dst, RegId srcA, RegId srcB, unsigned vl)
{
    DynOp d = dyn(op, dst, srcA, srcB);
    d.vl = std::uint8_t(vl);
    return d;
}

TEST(DependenceDistances, AdjacentChain)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kSMovS, S2, S1),        // distance 1
        dyn(Op::kSMovS, S3, S2),        // distance 1
    });
    const DependenceStats deps = dependenceDistances(decode(trace));
    EXPECT_EQ(deps.totalDeps, 2u);
    EXPECT_EQ(deps.histogram[0], 2u);
    EXPECT_DOUBLE_EQ(deps.adjacentFraction(), 1.0);
    EXPECT_DOUBLE_EQ(deps.meanDistance, 1.0);
}

TEST(DependenceDistances, FarDependence)
{
    DynTrace trace("far");
    trace.append(dyn(Op::kSConst, S1));
    for (int i = 0; i < 20; ++i)
        trace.append(dyn(Op::kAConst, A1));
    trace.append(dyn(Op::kSMovS, S2, S1));      // distance 21
    const DependenceStats deps = dependenceDistances(decode(trace));
    EXPECT_EQ(deps.totalDeps, 1u);
    EXPECT_EQ(deps.longer, 1u);
    EXPECT_DOUBLE_EQ(deps.meanDistance, 21.0);
}

TEST(DependenceDistances, TwoSourcesCountSeparately)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kSConst, S2),
        dyn(Op::kFAdd, S3, S1, S2),     // distances 2 and 1
    });
    const DependenceStats deps = dependenceDistances(decode(trace));
    EXPECT_EQ(deps.totalDeps, 2u);
    EXPECT_EQ(deps.histogram[0], 1u);
    EXPECT_EQ(deps.histogram[1], 1u);
    EXPECT_DOUBLE_EQ(deps.meanDistance, 1.5);
}

TEST(DependenceDistances, ArchitecturalValuesExcluded)
{
    // A source never written inside the trace contributes nothing.
    const DynTrace trace = traceOf({
        dyn(Op::kSMovS, S2, S1),
    });
    EXPECT_EQ(dependenceDistances(decode(trace)).totalDeps, 0u);
}

TEST(BasicBlocks, CountsRunsBetweenBranches)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kSConst, S2),
        dyn(Op::kBrANZ, kNoReg, A0, kNoReg, true),      // block of 3
        dyn(Op::kSConst, S3),
        dyn(Op::kBrANZ, kNoReg, A0, kNoReg, false),     // block of 2
        dyn(Op::kSConst, S4),                           // tail block
    });
    const BasicBlockStats blocks = basicBlocks(decode(trace));
    EXPECT_EQ(blocks.blocks, 3u);
    EXPECT_EQ(blocks.totalOps, 6u);
    EXPECT_EQ(blocks.maxLength, 3u);
    EXPECT_DOUBLE_EQ(blocks.meanLength(), 2.0);
}

TEST(WidthProfile, IndependentOpsAllStartAtOnce)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kSConst, S2),
        dyn(Op::kSConst, S3),
    });
    const WidthProfile profile = widthProfile(decode(trace));
    EXPECT_EQ(profile.peakWidth, 3u);
    EXPECT_EQ(profile.levels, 1u);
    EXPECT_DOUBLE_EQ(profile.meanWidth, 3.0);
}

TEST(WidthProfile, ChainIsNarrow)
{
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kSMovS, S2, S1),
        dyn(Op::kSMovS, S3, S2),
    });
    const WidthProfile profile = widthProfile(decode(trace));
    EXPECT_EQ(profile.peakWidth, 1u);
    EXPECT_EQ(profile.levels, 3u);
    EXPECT_DOUBLE_EQ(profile.meanWidth, 1.0);
}

TEST(WidthProfile, MeanWidthMatchesPseudoDataflowRate)
{
    // The profile reads the limit's own schedule: levels is its
    // critical path and meanWidth its pseudo-dataflow issue rate,
    // vector element streaming and chaining included.
    for (const char *spec : { "1", "5", "7", "1v", "7v", "12v" }) {
        const std::shared_ptr<const TraceBody> body =
            bodyForLoopSpec(parseLoopSpec(spec));
        for (const MachineConfig &cfg : standardConfigs()) {
            const DecodedTrace trace(body, cfg);
            const WidthProfile profile = widthProfile(trace);
            const LimitResult limit = computeLimits(trace);
            EXPECT_EQ(profile.levels, limit.pseudoCycles)
                << "loop " << spec << ", " << cfg.name();
            EXPECT_NEAR(profile.meanWidth, limit.pseudoRate, 1e-12)
                << "loop " << spec << ", " << cfg.name();
        }
    }
}

TEST(TraceAnalysis, ConsecutiveInstructionsAreRarelyIndependent)
{
    // The paper: "It is rare that 2 consecutive instructions are
    // independent and can issue simultaneously without blocking."
    // Every benchmark trace must show a substantial fraction of
    // adjacent (distance-1) dependences and a short mean distance.
    // (Note this measures expression-chain density, not loop-level
    // parallelism: the wide vector loop LL7 has *more* adjacent
    // dependences than the recurrence LL5 -- its iterations are
    // independent but its long expressions are serial chains.
    // Class parallelism shows up in the width profile instead.)
    for (int id = 1; id <= 14; ++id) {
        const DependenceStats deps =
            dependenceDistances(*TraceLibrary::instance().body(id));
        EXPECT_GT(deps.adjacentFraction(), 0.10) << "loop " << id;
        // Most dependences are short-range (within 15 dynamic ops);
        // the mean is skewed arbitrarily high by loop-invariant
        // constants read thousands of ops after their single write,
        // so assert on the bucketed fraction instead.
        std::uint64_t within = 0;
        for (std::uint64_t count : deps.histogram)
            within += count;
        EXPECT_GT(double(within), 0.5 * double(deps.totalDeps))
            << "loop " << id;
    }
}

TEST(TraceAnalysis, VectorLoopsAreWiderThanScalarLoops)
{
    const MachineConfig cfg = configM11BR5();
    const WidthProfile wide =
        widthProfile(TraceLibrary::instance().decoded(7, cfg));
    const WidthProfile narrow =
        widthProfile(TraceLibrary::instance().decoded(11, cfg));
    EXPECT_GT(wide.meanWidth, narrow.meanWidth);
    EXPECT_GT(wide.peakWidth, narrow.peakWidth);
}

TEST(TraceAnalysis, ReportMentionsKeyNumbers)
{
    const std::string report = analyzeTrace(
        TraceLibrary::instance().decoded(1, configM11BR5()));
    EXPECT_NE(report.find("LL1"), std::string::npos);
    EXPECT_NE(report.find("mix:"), std::string::npos);
    EXPECT_NE(report.find("branches:"), std::string::npos);
    EXPECT_NE(report.find("dataflow width"), std::string::npos);
}

TEST(TraceAnalysis, EmptyTraceIsSafe)
{
    const DecodedTrace empty = decode(DynTrace());
    EXPECT_EQ(dependenceDistances(empty).totalDeps, 0u);
    EXPECT_EQ(basicBlocks(empty).blocks, 0u);
    EXPECT_EQ(widthProfile(empty).levels, 0u);
    EXPECT_EQ(bufferDemand(empty).peakLiveValues, 0u);
}

TEST(BufferDemand, SerialChainNeedsOneBuffer)
{
    // Each value is consumed the moment it exists.
    DynTrace trace("chain");
    for (int i = 0; i < 50; ++i)
        trace.append(dyn(Op::kFAdd, S1, S1, S2));
    const BufferDemand demand = bufferDemand(decode(trace));
    EXPECT_EQ(demand.peakLiveValues, 1u);
}

TEST(BufferDemand, IndependentOpsAllLiveAtOnce)
{
    // n values produced at the same dataflow instant, none consumed.
    DynTrace trace("indep");
    for (int i = 0; i < 40; ++i)
        trace.append(dyn(Op::kFAdd, regS(1 + unsigned(i) % 7), S0,
                         S0));
    const BufferDemand demand = bufferDemand(decode(trace));
    EXPECT_EQ(demand.peakLiveValues, 40u);
}

TEST(BufferDemand, VectorValuesLiveFromTheirFirstElement)
{
    // M11BR5, elementwise: a vector's consumers can read it from its
    // first element, one cycle after start + latency.  Each comment
    // is the value's live range: ready time to last consumer start.
    const BufferDemand demand = bufferDemand(decode(traceOf({
        dyn(Op::kAConst, A2),                           // [1, 1]
        dyn(Op::kLoadS, S3, A2),                        // [12, 12]
        dyn(Op::kLoadS, S1, A1),                        // [11, 12]
        vop(Op::kVLoad, regV(1), A1, kNoReg, 8),        // [12, 12]
        vop(Op::kVFMulSV, regV(2), S1, regV(1), 8),     // [20, 20]
    })));
    // S3, S1 and V1 are all live in cycle 12.  Were V1 ready at
    // start + latency, as a scalar, it and S1 would die in cycle 11
    // and the peak would be 2.
    EXPECT_EQ(demand.peakLiveValues, 3u);
    // 6 value-cycles over the critical path: V2 completes at
    // 12 + 7 + 8 - 1 = 26.
    EXPECT_DOUBLE_EQ(demand.meanLiveValues, 6.0 / 26.0);
}

TEST(BufferDemand, PredictsRuuSaturationScale)
{
    // The paper's Table 7/8 RUU sizes saturate around 40-50 entries;
    // the dataflow schedule's own buffering demand for the
    // vectorizable loops sits in the same range.
    const BufferDemand ll7 = bufferDemand(
        TraceLibrary::instance().decoded(7, configM11BR5()));
    EXPECT_GE(ll7.peakLiveValues, 15u);
    EXPECT_LE(ll7.peakLiveValues, 120u);
    // A recurrence loop needs far less buffering.
    const BufferDemand ll11 = bufferDemand(
        TraceLibrary::instance().decoded(11, configM11BR5()));
    EXPECT_LT(ll11.peakLiveValues, ll7.peakLiveValues);
}

} // namespace
} // namespace mfusim
