/**
 * @file
 * FaultRegistry: spec grammar, deterministic trigger schedules, and
 * the inert-when-unset guarantee the production build relies on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/core/faultpoint.hh"

// Tests that need a probe to actually fire cannot run when the
// probes are compiled down to constant false.
#ifdef MFUSIM_NO_FAULT_INJECTION
#define SKIP_WITHOUT_FAULT_INJECTION() \
    GTEST_SKIP() << "built with MFUSIM_NO_FAULT_INJECTION"
#else
#define SKIP_WITHOUT_FAULT_INJECTION() (void)0
#endif

namespace mfusim
{
namespace
{

/** Every test leaves the global registry disarmed. */
class FaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { FaultRegistry::instance().reset(); }
    void TearDown() override { FaultRegistry::instance().reset(); }
};

TEST_F(FaultTest, InertWhenUnset)
{
    EXPECT_FALSE(FaultRegistry::instance().armed());
    EXPECT_FALSE(faultAt("persist.write"));
    EXPECT_FALSE(faultAt("http.read"));
    EXPECT_EQ(faultMode("http.read"), "");
    // Disarmed evaluations are not even counted.
    EXPECT_TRUE(FaultRegistry::instance().stats().empty());
}

TEST_F(FaultTest, EmptySpecDisarms)
{
    FaultRegistry::instance().configure("worker.die:once");
    EXPECT_TRUE(FaultRegistry::instance().armed());
    FaultRegistry::instance().configure("");
    EXPECT_FALSE(FaultRegistry::instance().armed());
    EXPECT_FALSE(faultAt("worker.die"));
}

TEST_F(FaultTest, BarePointFiresEveryEvaluation)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    FaultRegistry::instance().configure("http.read:short");
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(faultAt("http.read"));
    EXPECT_EQ(faultMode("http.read"), "short");
    // Other points stay untouched.
    EXPECT_FALSE(faultAt("http.write"));
}

TEST_F(FaultTest, OnceFiresExactlyOnce)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    FaultRegistry::instance().configure("worker.die:once");
    EXPECT_TRUE(faultAt("worker.die"));
    for (int i = 0; i < 10; ++i)
        EXPECT_FALSE(faultAt("worker.die"));
}

TEST_F(FaultTest, EveryNFiresOnSchedule)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    FaultRegistry::instance().configure("persist.fsync:every=3");
    std::vector<int> fired;
    for (int eval = 1; eval <= 9; ++eval)
        if (faultAt("persist.fsync"))
            fired.push_back(eval);
    EXPECT_EQ(fired, (std::vector<int>{ 3, 6, 9 }));
}

TEST_F(FaultTest, TriggersCompose)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    // The doc-comment example: fires on evaluations 13 and 16 only.
    FaultRegistry::instance().configure(
        "persist.write:after=10:every=3:times=2");
    std::vector<int> fired;
    for (int eval = 1; eval <= 30; ++eval)
        if (faultAt("persist.write"))
            fired.push_back(eval);
    EXPECT_EQ(fired, (std::vector<int>{ 13, 16 }));
}

TEST_F(FaultTest, ProbIsDeterministicForASeed)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    const auto schedule = [](const std::string &spec) {
        FaultRegistry::instance().configure(spec);
        std::vector<bool> out;
        for (int i = 0; i < 64; ++i)
            out.push_back(faultAt("http.write"));
        return out;
    };
    const std::vector<bool> a =
        schedule("seed=42,http.write:prob=0.5");
    const std::vector<bool> b =
        schedule("seed=42,http.write:prob=0.5");
    EXPECT_EQ(a, b);
    // Something fired and something didn't — it is a schedule, not a
    // constant.
    EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
    EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST_F(FaultTest, ModeAndTriggersMix)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    FaultRegistry::instance().configure("http.read:fail:every=2");
    EXPECT_FALSE(faultAt("http.read"));
    EXPECT_TRUE(faultAt("http.read"));
    EXPECT_EQ(faultMode("http.read"), "fail");
}

TEST_F(FaultTest, StatsCountEvaluationsAndFires)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    FaultRegistry::instance().configure("worker.overrun:every=2");
    for (int i = 0; i < 6; ++i)
        faultAt("worker.overrun");
    const std::vector<FaultPointStats> stats =
        FaultRegistry::instance().stats();
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].point, "worker.overrun");
    EXPECT_EQ(stats[0].evaluations, 6u);
    EXPECT_EQ(stats[0].fires, 3u);
}

TEST_F(FaultTest, SpecIsReadable)
{
    const std::string spec = "persist.write:torn:once,http.read:short";
    FaultRegistry::instance().configure(spec);
    EXPECT_EQ(FaultRegistry::instance().spec(), spec);
    // Stats come back in spec order.
    const std::vector<FaultPointStats> stats =
        FaultRegistry::instance().stats();
    ASSERT_EQ(stats.size(), 2u);
    EXPECT_EQ(stats[0].point, "persist.write");
    EXPECT_EQ(stats[0].mode, "torn");
    EXPECT_EQ(stats[1].point, "http.read");
}

TEST_F(FaultTest, UnknownPointIsAConfigError)
{
    EXPECT_THROW(FaultRegistry::instance().configure("persist.wrte"),
                 ConfigError);
    // A failed configure must not leave half a spec armed.
    EXPECT_FALSE(FaultRegistry::instance().armed());
}

TEST_F(FaultTest, GrammarErrorsAreConfigErrors)
{
    FaultRegistry &reg = FaultRegistry::instance();
    EXPECT_THROW(reg.configure("persist.write:every=0"), ConfigError);
    EXPECT_THROW(reg.configure("persist.write:every=x"), ConfigError);
    EXPECT_THROW(reg.configure("persist.write:prob=1.5"), ConfigError);
    EXPECT_THROW(reg.configure("persist.write:prob=nan"), ConfigError);
    // A probability is digits[.digits]: strtod alone once armed these.
    for (const char *spec :
         { "persist.write:prob= 0.5", "persist.write:prob=+0.5",
           "persist.write:prob=0x1p-1" })
        EXPECT_THROW(reg.configure(spec), ConfigError) << spec;
    // Counts are decimal digits within 64 bits: 2^64 + 3 once wrapped
    // to every=3.
    for (const char *spec :
         { "worker.die:every=18446744073709551619",
           "worker.die:after=18446744073709551616",
           "seed=18446744073709551616,worker.die:once",
           "worker.die:times=+3", "worker.die:every= 3",
           "worker.die:every=3z" })
        EXPECT_THROW(reg.configure(spec), ConfigError) << spec;
    EXPECT_THROW(reg.configure("persist.write:bogus=1"), ConfigError);
    EXPECT_THROW(
        reg.configure("persist.write:once,persist.write:once"),
        ConfigError);
}

TEST_F(FaultTest, KnownPointsAllParse)
{
    for (const FaultPointInfo &info : knownFaultPoints()) {
        FaultRegistry::instance().configure(std::string(info.point) +
                                            ":once");
        EXPECT_TRUE(FaultRegistry::instance().armed()) << info.point;
    }
}

} // namespace
} // namespace mfusim
