/**
 * @file
 * The machine-spec and predictor-spec grammars drop no input: each
 * option kind appears at most once, no option is empty, and a field
 * or option the machine does not read is an error, not ignored.
 */

#include <gtest/gtest.h>

#include "mfusim/harness/spec_parse.hh"

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

} // namespace
} // namespace mfusim
