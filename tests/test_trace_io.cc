/**
 * @file
 * Trace serialization tests: format round trips and error handling.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "mfusim/core/trace_io.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/trace_library.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

using test::dyn;
using test::traceOf;

DynTrace
roundTrip(const DynTrace &trace)
{
    std::stringstream buffer;
    saveTrace(buffer, trace);
    return loadTrace(buffer);
}

TEST(TraceIo, SmallRoundTrip)
{
    DynOp br = dyn(Op::kBrANZ, kNoReg, A0, kNoReg, true);
    br.backward = true;
    br.staticIdx = 7;
    const DynTrace trace = traceOf({
        dyn(Op::kSConst, S1),
        dyn(Op::kLoadS, S2, A1),
        dyn(Op::kFAdd, S3, S1, S2),
        dyn(Op::kStoreS, kNoReg, A1, S3),
        br,
    });

    const DynTrace loaded = roundTrip(trace);
    ASSERT_EQ(loaded.size(), trace.size());
    EXPECT_EQ(loaded.name(), trace.name());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_EQ(loaded[i].op, trace[i].op) << i;
        EXPECT_EQ(loaded[i].dst, trace[i].dst) << i;
        EXPECT_EQ(loaded[i].srcA, trace[i].srcA) << i;
        EXPECT_EQ(loaded[i].srcB, trace[i].srcB) << i;
        EXPECT_EQ(loaded[i].staticIdx, trace[i].staticIdx) << i;
        EXPECT_EQ(loaded[i].taken, trace[i].taken) << i;
        EXPECT_EQ(loaded[i].backward, trace[i].backward) << i;
    }
}

TEST(TraceIo, BenchmarkTraceRoundTrip)
{
    const DynTrace &original = TraceLibrary::instance().trace(5);
    const DynTrace loaded = roundTrip(original);
    ASSERT_EQ(loaded.size(), original.size());
    // Aggregate stats must be identical.
    const TraceStats a = original.stats();
    const TraceStats b = loaded.stats();
    EXPECT_EQ(a.branches, b.branches);
    EXPECT_EQ(a.takenBranches, b.takenBranches);
    EXPECT_EQ(a.btfnCorrectBranches, b.btfnCorrectBranches);
    EXPECT_EQ(a.loads, b.loads);
    EXPECT_EQ(a.stores, b.stores);
    EXPECT_EQ(a.parcels, b.parcels);
}

TEST(TraceDigestGolden, ExpandedTracesMatchFixture)
{
    // The saved text of every Livermore trace and of two kernel
    // variants, pinned while the interpreter still emitted DynTraces
    // directly: expanding them from the execution log must change no
    // op, operand, branch outcome or vector length.
    const std::vector<std::string> pinned =
        test::goldenLines("trace_digests.txt");
    ASSERT_EQ(pinned.size(), 16u)
        << "missing or truncated golden/trace_digests.txt";
    std::vector<std::string> got;
    for (int loop = 1; loop <= 14; ++loop) {
        got.push_back(test::traceDigestLine(
            std::to_string(loop), TraceLibrary::instance().trace(loop)));
    }
    for (const char *spec : { "1x4", "7v" })
        got.push_back(test::traceDigestLine(
            spec, traceForLoopSpec(parseLoopSpec(spec))));
    EXPECT_EQ(got, pinned);
}

TEST(TraceIo, SaveRegisterNamesRoundTrip)
{
    const DynTrace trace = traceOf({
        dyn(Op::kTMovS, regT(63), S7),
        dyn(Op::kBMovA, regB(12), A3),
    });
    const DynTrace loaded = roundTrip(trace);
    EXPECT_EQ(loaded[0].dst, regT(63));
    EXPECT_EQ(loaded[1].dst, regB(12));
}

TEST(TraceIo, EmptyTrace)
{
    const DynTrace loaded = roundTrip(DynTrace("empty"));
    EXPECT_EQ(loaded.size(), 0u);
    EXPECT_EQ(loaded.name(), "empty");
}

TEST(TraceIo, BadHeaderThrows)
{
    std::istringstream input("not-a-trace\n");
    EXPECT_THROW(loadTrace(input), std::runtime_error);
}

TEST(TraceIo, UnknownMnemonicThrows)
{
    std::istringstream input(
        "mfusim-trace v1\nname t\nops 1\nbogus -- -- -- 0 - -\n");
    EXPECT_THROW(loadTrace(input), std::runtime_error);
}

TEST(TraceIo, BadRegisterThrows)
{
    std::istringstream input(
        "mfusim-trace v1\nname t\nops 1\nfadd S9 S1 S2 0 - -\n");
    EXPECT_THROW(loadTrace(input), std::runtime_error);
}

TEST(TraceIo, CountMismatchThrows)
{
    std::istringstream input(
        "mfusim-trace v1\nname t\nops 2\nsconst S1 -- -- 0 - -\n");
    EXPECT_THROW(loadTrace(input), std::runtime_error);
}

} // namespace
} // namespace mfusim
