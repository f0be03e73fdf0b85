/**
 * @file
 * The machine-spec and predictor-spec grammars drop no input: each
 * option kind appears at most once, no option is empty, and a field
 * or option the machine does not read is an error, not ignored.  A
 * loop spec is exactly <id>, <id>x<factor> or <id>v, and every
 * spelling of one loop has one canonical name.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/trace_library.hh"

namespace mfusim
{
namespace
{

/** The ConfigError message @p spec raises; "" if it parses. */
std::string
rejection(const std::string &spec)
{
    try {
        parseMachineSpec(spec, configM11BR5());
    } catch (const BranchModelError &e) {
        return std::string("branch model error: ") + e.what();
    } catch (const ConfigError &e) {
        return e.what();
    }
    return "";
}

TEST(MachineSpecGrammar, RejectsASecondBusOption)
{
    // Each message names both options, as the branch-model error
    // names both models.
    EXPECT_NE(rejection("seq:4,xbar,1bus").find("'xbar' and '1bus'"),
              std::string::npos);
    EXPECT_NE(rejection("seq:4,1bus,xbar").find("'1bus' and 'xbar'"),
              std::string::npos);
    EXPECT_NE(rejection("ruu:4:50,1bus,1bus").find("'1bus' and '1bus'"),
              std::string::npos);
}

TEST(MachineSpecGrammar, RejectsEmptyOptions)
{
    for (const char *spec : { "seq:4,", "seq:4,,xbar", "ruu:4:50,1bus," })
        EXPECT_NE(rejection(spec).find("empty option"), std::string::npos)
            << spec;
}

TEST(MachineSpecGrammar, RejectsFieldsTheMachineDoesNotRead)
{
    for (const char *spec : { "seq:4:99", "ruu:4:50:7", "cray:3",
                              "simple:9", "tomasulo:2:1:5", "cdc:1",
                              "ooo:4:", "nonseg:" })
        EXPECT_NE(rejection(spec).find("extra field"), std::string::npos)
            << spec;
    EXPECT_EQ(rejection("tomasulo:2:1"), "");
}

TEST(MachineSpecGrammar, RejectsABusOptionOnMachinesWithoutOne)
{
    for (const char *spec : { "cray,1bus", "simple,xbar", "serialmem,1bus",
                              "nonseg,xbar", "tomasulo:2,xbar" })
        EXPECT_NE(rejection(spec).find("has no bus choice"),
                  std::string::npos)
            << spec;
    // cdc reads the bus kind: ",xbar" lifts its result-bus model.
    EXPECT_EQ(rejection("cdc,xbar"), "");
    EXPECT_EQ(rejection("cdc,1bus"), "");
}

TEST(MachineSpecGrammar, GrammarErrorsAreNotBranchModelErrors)
{
    // The CLI exits 2 for these, and 3 only for a branch-model
    // conflict.
    for (const char *spec : { "seq:4,xbar,1bus", "seq:4,", "cray:3",
                              "cray,1bus" })
        EXPECT_EQ(rejection(spec).rfind("config: ", 0), 0u) << spec;
}

TEST(MachineSpecGrammar, OptionOrderDoesNotChangeTheCacheKey)
{
    const MachineConfig cfg = configM11BR5();
    const auto key = [&](const char *spec) {
        return parseMachineSpec(spec, cfg)->cacheKey();
    };
    EXPECT_EQ(key("seq:4,xbar,btfn"), key("seq:4,btfn,xbar"));
    EXPECT_EQ(key("ruu:4:50,1bus,pred=2bit"),
              key("ruu:4:50,pred=2bit,1bus"));
    EXPECT_EQ(key("cdc,xbar,oracle"), key("cdc,oracle,xbar"));
    EXPECT_NE(key("seq:4,xbar,btfn"), key("seq:4,1bus,btfn"));
}

TEST(MachineSpecGrammar, EqualKeysGiveEqualResults)
{
    // Spellings of one machine (leading zeros, option order, the
    // branch-model aliases) are one cache cell, so they must time a
    // loop identically.
    const MachineConfig cfg = configM11BR5();
    const DecodedTrace &trace = TraceLibrary::instance().decoded(5, cfg);
    const std::vector<std::pair<const char *, const char *>> pairs = {
        { "ruu:4:050,oracle,1bus", "ruu:4:50,1bus,pred=perfect" },
        { "seq:04,btfn", "seq:4,pred=btfn:w0" },
        { "tomasulo:03:01", "tomasulo:3:1" },
        { "ooo:8,pred=2bit:0512:w08", "ooo:8,pred=2bit:512:w8" },
    };
    for (const auto &[a, b] : pairs) {
        const auto simA = parseMachineSpec(a, cfg);
        const auto simB = parseMachineSpec(b, cfg);
        ASSERT_EQ(simA->cacheKey(), simB->cacheKey()) << a << " vs " << b;
        const SimResult ra = simA->run(trace);
        const SimResult rb = simB->run(trace);
        EXPECT_EQ(ra.instructions, rb.instructions) << a;
        EXPECT_EQ(ra.cycles, rb.cycles) << a;
        EXPECT_EQ(ra.stalls, rb.stalls) << a;
        EXPECT_EQ(ra.squashes, rb.squashes) << a;
        EXPECT_EQ(ra.wrongPathOps, rb.wrongPathOps) << a;
    }
}

TEST(PredictorSpecGrammar, RejectsARepeatedOption)
{
    for (const char *text : { "2bit:512:w8:w4", "fixed:90:s1:s2",
                              "btfn:w0:w0", "fixed:90:s1:w2:s1" }) {
        try {
            PredictorSpec::parse(text);
            ADD_FAILURE() << text << " parsed";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("' and '"),
                      std::string::npos)
                << e.what();
        }
    }
    EXPECT_EQ(PredictorSpec::parse("fixed:90:s2:w4").key(),
              PredictorSpec::parse("fixed:90:w4:s2").key());
}

TEST(LoopSpecGrammar, CanonicalNames)
{
    const auto name = [](const char *text) {
        return parseLoopSpec(text).name;
    };
    EXPECT_EQ(name("5"), "5");
    EXPECT_EQ(name("05"), "5");
    EXPECT_EQ(name("0014"), "14");
    EXPECT_EQ(name("1x4"), "1x4");
    EXPECT_EQ(name("01x04"), "1x4");
    EXPECT_EQ(name("7v"), "7v");
    EXPECT_EQ(name("07v"), "7v");

    const LoopSpec plain = parseLoopSpec("05");
    EXPECT_EQ(plain.id, 5);
    EXPECT_TRUE(plain.isLibrary());
    const LoopSpec unrolled = parseLoopSpec("12x8");
    EXPECT_EQ(unrolled.id, 12);
    EXPECT_EQ(unrolled.unroll, 8);
    EXPECT_FALSE(unrolled.isLibrary());
    const LoopSpec vector = parseLoopSpec("12v");
    EXPECT_TRUE(vector.vectorized);
    EXPECT_FALSE(vector.isLibrary());
}

TEST(LoopSpecGrammar, RejectsEverythingElse)
{
    for (const char *text :
         { "", "5zz", "+5", "-5", " 5", "5 ", "1x4junk", "1x+4",
           "7vv", "0", "15", "99", "4294967301", "x4", "1x", "1x4x2",
           "1xv", "v", "1x3", "1x0", "1x16", "2x4", "5v", "0x10" }) {
        EXPECT_THROW(parseLoopSpec(text), ConfigError)
            << '"' << text << '"';
    }
}

TEST(LoopSpecGrammar, TraceNameIsCanonical)
{
    EXPECT_EQ(traceForLoopSpec(parseLoopSpec("01x04")).name(), "LL1x4");
    EXPECT_EQ(bodyForLoopSpec(parseLoopSpec("007v"))->name(), "LL7v");
}

} // namespace
} // namespace mfusim
