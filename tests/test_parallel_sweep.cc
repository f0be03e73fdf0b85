/**
 * @file
 * Parallel sweep runner: runGrid must visit every cell exactly once
 * and propagate errors, and the parallel per-loop rates must be
 * bit-identical to the serial computation for the paper's table
 * cells (determinism by construction).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "mfusim/core/error.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"

namespace mfusim
{
namespace
{

TEST(RunGrid, VisitsEveryCellOnce)
{
    for (const unsigned jobs : { 1u, 2u, 4u, 32u }) {
        const std::size_t cells = 100;
        std::vector<std::atomic<int>> visits(cells);
        runGrid(cells, [&](std::size_t i) { visits[i]++; }, jobs);
        for (std::size_t i = 0; i < cells; ++i)
            EXPECT_EQ(visits[i].load(), 1)
                << "cell " << i << " with " << jobs << " jobs";
    }
}

TEST(RunGrid, EmptyGridIsANoop)
{
    bool ran = false;
    runGrid(0, [&](std::size_t) { ran = true; }, 4);
    EXPECT_FALSE(ran);
}

TEST(RunGrid, PropagatesBodyException)
{
    EXPECT_THROW(
        runGrid(16, [](std::size_t i) {
            if (i == 7)
                throw std::runtime_error("cell 7 failed");
        }, 4),
        std::runtime_error);
}

TEST(RunGrid, AggregatesAllFailures)
{
    // Two independently failing cells must BOTH appear in the
    // SweepError (not just whichever a worker hit first), and the
    // healthy cells must still all run.
    for (const unsigned jobs : { 1u, 4u }) {
        std::vector<std::atomic<int>> visits(16);
        try {
            runGrid(16, [&](std::size_t i) {
                visits[i]++;
                if (i == 3)
                    throw std::runtime_error("cell three broke");
                if (i == 11)
                    throw std::runtime_error("cell eleven broke");
            }, jobs);
            FAIL() << "no SweepError with " << jobs << " jobs";
        } catch (const SweepError &e) {
            ASSERT_EQ(e.failures().size(), 2u) << e.what();
            EXPECT_EQ(e.failures()[0].cell, 3u);
            EXPECT_EQ(e.failures()[1].cell, 11u);
            EXPECT_NE(e.failures()[0].message.find("three"),
                      std::string::npos);
            EXPECT_NE(e.failures()[1].message.find("eleven"),
                      std::string::npos);
            const std::string what = e.what();
            EXPECT_NE(what.find("cell 3"), std::string::npos) << what;
            EXPECT_NE(what.find("cell 11"), std::string::npos)
                << what;
        }
        for (std::size_t i = 0; i < visits.size(); ++i)
            EXPECT_EQ(visits[i].load(), 1)
                << "cell " << i << " with " << jobs << " jobs";
    }
}

TEST(RunGrid, StopOnFailurePolicyDrainsEarly)
{
    // Serial grid, stop-on-failure: nothing past the failing cell
    // runs, and the one failure is still reported as a SweepError.
    std::vector<int> visits(8, 0);
    try {
        runGrid(8, [&](std::size_t i) {
            visits[i]++;
            if (i == 2)
                throw std::runtime_error("boom");
        }, 1, GridFailurePolicy::kStopOnFailure);
        FAIL() << "no SweepError";
    } catch (const SweepError &e) {
        ASSERT_EQ(e.failures().size(), 1u);
        EXPECT_EQ(e.failures()[0].cell, 2u);
    }
    EXPECT_EQ(visits[2], 1);
    for (std::size_t i = 3; i < visits.size(); ++i)
        EXPECT_EQ(visits[i], 0) << "cell " << i;
}

TEST(ParallelPerLoopRates, FailuresNameTheLoop)
{
    // A simulator that rejects the trace of loops 2 and 5: the sweep
    // must attempt every loop and report both failures keyed by loop
    // id, not by opaque cell index.
    class PickySim : public Simulator
    {
      public:
        explicit PickySim(const MachineConfig &cfg) : cfg_(cfg) {}

        using Simulator::run;
        SimResult
        run(const DecodedTrace &trace) override
        {
            if (trace.name() == "LL2" || trace.name() == "LL5")
                throw SimError("unsupported trace " + trace.name());
            SimResult r;
            r.instructions = trace.size();
            r.cycles = ClockCycle(trace.size());
            return r;
        }
        std::string name() const override { return "Picky"; }
        const MachineConfig &config() const override { return cfg_; }

      private:
        MachineConfig cfg_;
    };

    const SimFactory factory = [](const MachineConfig &c)
        -> std::unique_ptr<Simulator> {
        return std::make_unique<PickySim>(c);
    };
    const std::vector<int> loops{ 1, 2, 3, 4, 5 };
    try {
        parallelPerLoopRates(factory, loops, configM11BR5(), 2);
        FAIL() << "no SweepError";
    } catch (const SweepError &e) {
        ASSERT_EQ(e.failures().size(), 2u) << e.what();
        const std::string what = e.what();
        EXPECT_NE(what.find("loop 2 (M11BR5)"), std::string::npos)
            << what;
        EXPECT_NE(what.find("loop 5 (M11BR5)"), std::string::npos)
            << what;
    }
}

TEST(RunGrid, NestedCallsRunInline)
{
    // A grid body may itself call runGrid (table drivers call
    // parallel helpers); the nested grid must run inline on the
    // worker rather than spawning a second pool.
    std::vector<std::atomic<int>> visits(64);
    runGrid(8, [&](std::size_t outer) {
        runGrid(8, [&](std::size_t inner) {
            visits[outer * 8 + inner]++;
        }, 8);
    }, 4);
    for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "cell " << i;
}

TEST(RunGrid, DefaultJobsOverride)
{
    setDefaultSweepJobs(3);
    EXPECT_EQ(defaultSweepJobs(), 3u);
    setDefaultSweepJobs(0);
    EXPECT_GE(defaultSweepJobs(), 1u);
}

TEST(RunGrid, JobsEnvironmentTakesDigitsOnly)
{
    // Restores MFUSIM_JOBS as the test found it.
    struct JobsEnv
    {
        const char *saved = std::getenv("MFUSIM_JOBS");
        std::string value = saved != nullptr ? saved : "";
        ~JobsEnv()
        {
            if (saved != nullptr)
                setenv("MFUSIM_JOBS", value.c_str(), 1);
            else
                unsetenv("MFUSIM_JOBS");
        }
    } restore;
    setDefaultSweepJobs(0);
    unsetenv("MFUSIM_JOBS");
    const unsigned hardware = defaultSweepJobs();
    EXPECT_GE(hardware, 1u);
    setenv("MFUSIM_JOBS", "0", 1);
    EXPECT_EQ(defaultSweepJobs(), hardware);
    setenv("MFUSIM_JOBS", "3", 1);
    EXPECT_EQ(defaultSweepJobs(), 3u);
    for (const char *bad : { "3junk", "4294967296", "-1", "+3", " 3",
                             "" }) {
        setenv("MFUSIM_JOBS", bad, 1);
        try {
            defaultSweepJobs();
            ADD_FAILURE() << "MFUSIM_JOBS='" << bad << "' was read";
        } catch (const ConfigError &e) {
            EXPECT_NE(std::string(e.what()).find("MFUSIM_JOBS"),
                      std::string::npos)
                << e.what();
        }
    }
    // An explicit override never reads the environment.
    setDefaultSweepJobs(2);
    EXPECT_EQ(defaultSweepJobs(), 2u);
    setDefaultSweepJobs(0);
}

/** Serial reference: fresh simulator per loop, DynTrace path. */
std::vector<double>
serialRates(const SimFactory &factory, const std::vector<int> &loops,
            const MachineConfig &cfg)
{
    std::vector<double> rates;
    for (int loop : loops) {
        auto sim = factory(cfg);
        rates.push_back(
            sim->run(TraceLibrary::instance().trace(loop))
                .issueRate());
    }
    return rates;
}

class ParallelDeterminism
    : public ::testing::TestWithParam<LoopClass>
{};

TEST_P(ParallelDeterminism, Table1CrayLikeCellsBitIdentical)
{
    const SimFactory factory = [](const MachineConfig &c)
        -> std::unique_ptr<Simulator> {
        return std::make_unique<ScoreboardSim>(
            ScoreboardConfig::crayLike(), c);
    };
    const std::vector<int> &loops = loopsOf(GetParam());
    for (const MachineConfig &cfg : standardConfigs()) {
        const std::vector<double> serial =
            serialRates(factory, loops, cfg);
        for (const unsigned jobs : { 1u, 2u, 4u }) {
            const std::vector<double> parallel =
                parallelPerLoopRates(factory, loops, cfg, jobs);
            ASSERT_EQ(parallel.size(), serial.size());
            for (std::size_t i = 0; i < serial.size(); ++i)
                EXPECT_EQ(parallel[i], serial[i])
                    << cfg.name() << " loop " << loops[i] << " with "
                    << jobs << " jobs";
        }
    }
}

TEST_P(ParallelDeterminism, Table7RuuCellsBitIdentical)
{
    const SimFactory factory = [](const MachineConfig &c)
        -> std::unique_ptr<Simulator> {
        return std::make_unique<RuuSim>(
            RuuConfig{ 2, 20, BusKind::kPerUnit }, c);
    };
    const std::vector<int> &loops = loopsOf(GetParam());
    const MachineConfig cfg = configM11BR5();
    const std::vector<double> serial =
        serialRates(factory, loops, cfg);
    const std::vector<double> parallel =
        parallelPerLoopRates(factory, loops, cfg, 4);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i]) << "loop " << loops[i];
}

INSTANTIATE_TEST_SUITE_P(
    BothClasses, ParallelDeterminism,
    ::testing::Values(LoopClass::kScalar, LoopClass::kVectorizable),
    [](const ::testing::TestParamInfo<LoopClass> &info) {
        return loopClassName(info.param);
    });

} // namespace
} // namespace mfusim
