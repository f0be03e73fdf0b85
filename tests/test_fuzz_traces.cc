/**
 * @file
 * Randomized-trace robustness tests.
 *
 * Seeded pseudo-random traces (arbitrary hazard mixes, branches at
 * arbitrary positions, dense register reuse) are run through every
 * simulator and the limit analyzers, checking the model invariants
 * that must hold for *any* trace, not just compiled loop code:
 *
 *  - every simulator terminates and yields a positive finite rate;
 *  - no machine beats the pure dataflow limit;
 *  - WAW-blocking machines respect the serial limit;
 *  - width-1 buffer issue == the CRAY-like scoreboard;
 *  - organizational orderings (Simple lowest; N-Bus >= 1-Bus);
 *  - serialization round trips.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mfusim/core/error.hh"
#include "mfusim/core/trace_io.hh"
#include "mfusim/dataflow/limits.hh"
#include "mfusim/sim/cdc6600_sim.hh"
#include "mfusim/sim/multi_issue_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/tomasulo_sim.hh"
#include "test_util.hh"

namespace mfusim
{
namespace
{

class FuzzTrace : public ::testing::TestWithParam<int>
{
  protected:
    DynTrace trace_ = test::randomTrace(
        0xabcd0000u + unsigned(GetParam()), 400 + 37 * unsigned(GetParam()));
};

TEST_P(FuzzTrace, AllSimulatorsTerminateWithSaneRates)
{
    for (const MachineConfig &cfg : standardConfigs()) {
        SimpleSim simple(cfg);
        ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
        Cdc6600Sim cdc({}, cfg);
        TomasuloSim tom({ 3, 1 }, cfg);
        MultiIssueSim ooo({ 4, true, BusKind::kPerUnit, false }, cfg);
        RuuSim ruu({ 2, 20, BusKind::kPerUnit }, cfg);

        for (Simulator *sim :
             std::initializer_list<Simulator *>{
                 &simple, &cray, &cdc, &tom, &ooo, &ruu }) {
            const SimResult r = sim->run(trace_);
            EXPECT_EQ(r.instructions, trace_.size());
            EXPECT_GT(r.cycles, 0u) << sim->name();
            EXPECT_GT(r.issueRate(), 0.0) << sim->name();
            EXPECT_LE(r.issueRate(), 4.0) << sim->name();
        }
    }
}

TEST_P(FuzzTrace, DataflowLimitDominatesEverything)
{
    const MachineConfig cfg = configM11BR5();
    const double bound =
        computeLimits(trace_, cfg, false).actualRate + 1e-9;

    SimpleSim simple(cfg);
    ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
    MultiIssueSim ooo({ 8, true, BusKind::kCrossbar, false }, cfg);
    RuuSim ruu({ 4, 100, BusKind::kPerUnit }, cfg);

    EXPECT_LE(simple.run(trace_).issueRate(), bound);
    EXPECT_LE(cray.run(trace_).issueRate(), bound);
    EXPECT_LE(ooo.run(trace_).issueRate(), bound);
    EXPECT_LE(ruu.run(trace_).issueRate(), bound);
}

TEST_P(FuzzTrace, SerialLimitBoundsWawBlockingMachines)
{
    const MachineConfig cfg = configM11BR2();
    const double bound =
        computeLimits(trace_, cfg, true).actualRate + 1e-9;
    ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
    MultiIssueSim ooo({ 8, true, BusKind::kPerUnit, false }, cfg);
    EXPECT_LE(cray.run(trace_).issueRate(), bound);
    EXPECT_LE(ooo.run(trace_).issueRate(), bound);
}

TEST_P(FuzzTrace, WidthOneEqualsScoreboard)
{
    for (const MachineConfig &cfg : standardConfigs()) {
        MultiIssueSim multi({ 1, false, BusKind::kSingle, false },
                            cfg);
        ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
        EXPECT_EQ(multi.run(trace_).cycles, cray.run(trace_).cycles)
            << cfg.name();
    }
}

TEST_P(FuzzTrace, MachineOrdering)
{
    const MachineConfig cfg = configM5BR5();
    SimpleSim simple(cfg);
    ScoreboardSim serial(ScoreboardConfig::serialMemory(), cfg);
    ScoreboardSim cray(ScoreboardConfig::crayLike(), cfg);
    const double r_simple = simple.run(trace_).issueRate();
    const double r_serial = serial.run(trace_).issueRate();
    const double r_cray = cray.run(trace_).issueRate();
    EXPECT_LE(r_simple, r_serial + 1e-12);
    EXPECT_LE(r_serial, r_cray + 1e-12);
}

TEST_P(FuzzTrace, BusOrdering)
{
    const MachineConfig cfg = configM11BR5();
    for (unsigned w : { 2u, 4u }) {
        MultiIssueSim nbus({ w, true, BusKind::kPerUnit, false },
                           cfg);
        MultiIssueSim onebus({ w, true, BusKind::kSingle, false },
                             cfg);
        MultiIssueSim xbar({ w, true, BusKind::kCrossbar, false },
                           cfg);
        const double r_n = nbus.run(trace_).issueRate();
        const double r_1 = onebus.run(trace_).issueRate();
        const double r_x = xbar.run(trace_).issueRate();
        EXPECT_GE(r_n, r_1 - 1e-12) << "w=" << w;
        EXPECT_GE(r_x, r_n - 1e-12) << "w=" << w;
    }
}

TEST_P(FuzzTrace, SerializationRoundTrips)
{
    std::stringstream buffer;
    saveTrace(buffer, trace_);
    const DynTrace loaded = loadTrace(buffer);
    ASSERT_EQ(loaded.size(), trace_.size());
    // Timing must be identical on the round-tripped trace.
    ScoreboardSim cray(ScoreboardConfig::crayLike(), configM11BR5());
    EXPECT_EQ(cray.run(trace_).cycles, cray.run(loaded).cycles);
}

TEST_P(FuzzTrace, RuuMonotoneInBuffering)
{
    const MachineConfig cfg = configM11BR5();
    RuuSim small({ 2, 8, BusKind::kPerUnit }, cfg);
    RuuSim large({ 2, 64, BusKind::kPerUnit }, cfg);
    EXPECT_GE(large.run(trace_).issueRate(),
              small.run(trace_).issueRate() * 0.98);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzTrace, ::testing::Range(0, 25));

// ---- corrupted-input corpus --------------------------------------------
//
// loadTrace() must never crash, hang, or throw anything but
// TraceError, whatever bytes it is fed.  Each helper returns true if
// the input parsed (some corruptions are benign), false if it threw
// TraceError; anything else propagates and fails the test.

bool
loadSurvives(const std::string &text)
{
    std::istringstream in(text);
    try {
        loadTrace(in);
        return true;
    } catch (const TraceError &) {
        return false;
    }
}

TEST(CorruptTraces, TruncationsAlwaysRejectOrParse)
{
    std::stringstream buffer;
    saveTrace(buffer, test::randomTrace(0xfeed, 120));
    const std::string whole = buffer.str();
    for (std::size_t len = 0; len < whole.size();
         len += 1 + len / 8) {
        loadSurvives(whole.substr(0, len));
    }
    // A clean truncation at a line boundary is an op-count mismatch.
    const std::size_t cut = whole.find('\n', whole.size() / 2);
    ASSERT_NE(cut, std::string::npos);
    EXPECT_FALSE(loadSurvives(whole.substr(0, cut + 1)));
}

TEST(CorruptTraces, ByteFlipsNeverEscapeTraceError)
{
    std::stringstream buffer;
    saveTrace(buffer, test::randomTrace(0xbeef, 80));
    const std::string whole = buffer.str();
    test::Rng rng(0x51ab);
    for (int trial = 0; trial < 400; ++trial) {
        std::string mutated = whole;
        const std::size_t pos = rng.below(mutated.size());
        switch (rng.below(3)) {
          case 0:
            mutated[pos] = char(rng.below(256));
            break;
          case 1:
            mutated[pos] ^= char(1u << rng.below(7));
            break;
          default:
            mutated.erase(pos, 1 + rng.below(9));
            break;
        }
        loadSurvives(mutated);
    }
}

TEST(CorruptTraces, HugeOpCountsRejectedBeforeAllocation)
{
    // A corrupted header count must throw, not reserve gigabytes.
    const std::string body = "mfusim-trace v1\nname x\nops ";
    EXPECT_FALSE(loadSurvives(body + "999999999999\n"));
    EXPECT_FALSE(loadSurvives(body + "18446744073709551615\n"));
    EXPECT_FALSE(loadSurvives(body + "99999999999999999999999999\n"));
    EXPECT_FALSE(loadSurvives(body + "-3\n"));
    EXPECT_FALSE(loadSurvives(body + "12abc\n"));
}

TEST(CorruptTraces, StrictFieldValidation)
{
    const std::string header = "mfusim-trace v1\nname x\nops 1\n";
    // Non-branch ops must carry "- -" outcome fields.
    EXPECT_FALSE(
        loadSurvives(header + "fadd S1 S2 S3 0 T F 0\n"));
    // Branches must carry T|N and B|F.
    EXPECT_FALSE(
        loadSurvives(header + "branz -- A0 -- 0 - - 0\n"));
    // Vector length is 8-bit.
    EXPECT_FALSE(
        loadSurvives(header + "fadd S1 S2 S3 0 - - 300\n"));
    // Register indices are bounded.
    EXPECT_FALSE(
        loadSurvives(header + "fadd S99 S2 S3 0 - - 0\n"));
    // Extra ops beyond the header count are rejected.
    EXPECT_FALSE(loadSurvives(header + "fadd S1 S2 S3 0 - - 0\n" +
                              "fadd S1 S2 S3 0 - - 0\n"));
    // The well-formed version parses.
    EXPECT_TRUE(loadSurvives(header + "fadd S1 S2 S3 0 - - 0\n"));
}

} // namespace
} // namespace mfusim
