/**
 * @file
 * ResultCache: correctness of the memo keys (no aliasing between
 * organization variants), hit/miss accounting, concurrency, the
 * sweep-runner integration, and cooperative shutdown of runGrid.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <memory>
#include <thread>
#include <vector>

#include "mfusim/core/shutdown.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/sim/cdc6600_sim.hh"
#include "mfusim/sim/ruu_sim.hh"
#include "mfusim/sim/scoreboard_sim.hh"
#include "mfusim/sim/simple_sim.hh"
#include "mfusim/sim/tomasulo_sim.hh"

namespace mfusim
{
namespace
{

/** A private cache per test: the singleton would couple tests. */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override { ResultCache::instance().clear(); }
    void TearDown() override { ResultCache::instance().clear(); }
};

SimResult
fakeResult(std::uint64_t instructions, ClockCycle cycles)
{
    SimResult r;
    r.instructions = instructions;
    r.cycles = cycles;
    return r;
}

TEST_F(ResultCacheTest, MissThenHit)
{
    ResultCache &cache = ResultCache::instance();
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return fakeResult(100, 50);
    };

    bool hit = true;
    const SimResult first = cache.getOrCompute(
        "simple", "LL1", configM11BR5(), false, compute, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(first.instructions, 100u);
    EXPECT_EQ(computes, 1);

    const SimResult second = cache.getOrCompute(
        "simple", "LL1", configM11BR5(), false, compute, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(second.instructions, 100u);
    EXPECT_EQ(second.cycles, first.cycles);
    EXPECT_EQ(computes, 1) << "hit must not recompute";

    const ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST_F(ResultCacheTest, KeyComponentsAreAllDiscriminating)
{
    // Every key component changed in isolation must miss: machine
    // key, trace, config, audit mode.
    ResultCache &cache = ResultCache::instance();
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return fakeResult(1, 1);
    };

    cache.getOrCompute("simple", "LL1", configM11BR5(), false,
                       compute);
    cache.getOrCompute("cray", "LL1", configM11BR5(), false, compute);
    cache.getOrCompute("simple", "LL2", configM11BR5(), false,
                       compute);
    cache.getOrCompute("simple", "LL1", configM5BR2(), false,
                       compute);
    cache.getOrCompute("simple", "LL1", configM11BR5(), true,
                       compute);
    EXPECT_EQ(computes, 5);
    EXPECT_EQ(cache.stats().misses, 5u);
    EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(ResultCacheTest, KeyCannotBeSpoofedAcrossFields)
{
    // The composed key is newline-separated; a machine key that
    // *contains* the would-be separator content must not alias a
    // different (machine, trace) split.  cacheKey() values never
    // contain newlines, so composition is injective.
    ResultCache &cache = ResultCache::instance();
    int computes = 0;
    const auto compute = [&] {
        ++computes;
        return fakeResult(1, 1);
    };
    cache.getOrCompute("a|x", "LL1", configM11BR5(), false, compute);
    cache.getOrCompute("a", "|xLL1", configM11BR5(), false, compute);
    EXPECT_EQ(computes, 2);
}

TEST_F(ResultCacheTest, SimulatorCacheKeysDistinguishVariants)
{
    // The aliasing hazard that motivated cacheKey(): ScoreboardSim's
    // name() is "CRAY-like" for every branch model, so keys must
    // come from cacheKey(), which serializes every organization knob.
    const MachineConfig cfg = configM11BR5();
    MachineConfig oracle = cfg;
    oracle.predictor = PredictorSpec::parse("perfect");

    const ScoreboardSim a(ScoreboardConfig::crayLike(), cfg),
        b(ScoreboardConfig::crayLike(), oracle);
    EXPECT_EQ(a.name(), b.name()) << "precondition: names alias";
    EXPECT_NE(a.cacheKey(), b.cacheKey());

    Cdc6600Config busOn, busOff;
    busOff.modelResultBus = false;
    EXPECT_NE(Cdc6600Sim(busOn, cfg).cacheKey(),
              Cdc6600Sim(busOff, cfg).cacheKey());

    TomasuloConfig rs3, rs4;
    rs3.stationsPerFu = 3;
    rs4.stationsPerFu = 4;
    EXPECT_NE(TomasuloSim(rs3, cfg).cacheKey(),
              TomasuloSim(rs4, cfg).cacheKey());

    EXPECT_NE(RuuSim(RuuConfig{ 4, 50, BusKind::kPerUnit }, cfg)
                  .cacheKey(),
              RuuSim(RuuConfig{ 4, 51, BusKind::kPerUnit }, cfg)
                  .cacheKey());
}

TEST_F(ResultCacheTest, ClearDropsEntriesAndStats)
{
    ResultCache &cache = ResultCache::instance();
    cache.getOrCompute("simple", "LL1", configM11BR5(), false,
                       [] { return fakeResult(1, 1); });
    cache.clear();
    const ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_FALSE(cache.lookup("simple", "LL1", configM11BR5(), false,
                              nullptr));
}

TEST_F(ResultCacheTest, ThrowingComputeStoresNothing)
{
    ResultCache &cache = ResultCache::instance();
    EXPECT_THROW(cache.getOrCompute(
                     "simple", "LL1", configM11BR5(), false,
                     []() -> SimResult {
                         throw SimError("cell failed");
                     }),
                 SimError);
    EXPECT_EQ(cache.stats().entries, 0u);
    // The failed cell is re-attempted (and re-diagnosed), not served
    // a phantom result.
    EXPECT_THROW(cache.getOrCompute(
                     "simple", "LL1", configM11BR5(), false,
                     []() -> SimResult {
                         throw SimError("cell failed again");
                     }),
                 SimError);
}

TEST_F(ResultCacheTest, ConcurrentGetOrComputeIsCoherent)
{
    // Many threads hammering a small key space: every returned
    // result must match its key's canonical value, and the entry
    // count must equal the key count.
    ResultCache &cache = ResultCache::instance();
    constexpr int kThreads = 8, kIterations = 50, kKeys = 5;
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{ 0 };
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIterations; ++i) {
                const int k = i % kKeys;
                const SimResult r = cache.getOrCompute(
                    "sim" + std::to_string(k), "LL1", configM11BR5(),
                    false, [&] {
                        return fakeResult(std::uint64_t(k) + 1,
                                          ClockCycle(k) + 1);
                    });
                if (r.instructions != std::uint64_t(k) + 1)
                    ++mismatches;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_EQ(cache.stats().entries, std::uint64_t(kKeys));
    EXPECT_EQ(cache.stats().hits + cache.stats().misses,
              std::uint64_t(kThreads) * kIterations);
}

TEST_F(ResultCacheTest, AppendMetricsExportsCounters)
{
    ResultCache &cache = ResultCache::instance();
    const auto compute = [] { return fakeResult(1, 1); };
    cache.getOrCompute("simple", "LL1", configM11BR5(), false,
                       compute);
    cache.getOrCompute("simple", "LL1", configM11BR5(), false,
                       compute);

    MetricsRegistry metrics;
    cache.appendMetrics(metrics);
    EXPECT_EQ(metrics.counterValue("result_cache.hits"), 1u);
    EXPECT_EQ(metrics.counterValue("result_cache.misses"), 1u);
    EXPECT_EQ(metrics.gaugeValue("result_cache.entries"), 1.0);
}

TEST_F(ResultCacheTest, SweepSecondRunIsAllHits)
{
    // The satellite: a repeated `rate all`-style sweep within one
    // process must serve every cell from the cache, bit-identically.
    const SimFactory factory = [](const MachineConfig &c)
        -> std::unique_ptr<Simulator> {
        return std::make_unique<ScoreboardSim>(
            ScoreboardConfig::crayLike(), c);
    };
    const std::vector<int> loops{ 1, 2, 3, 4, 5 };
    const MachineConfig cfg = configM5BR2();

    const std::vector<double> first =
        parallelPerLoopRates(factory, loops, cfg, 2);
    const ResultCacheStats after = ResultCache::instance().stats();
    EXPECT_EQ(after.misses, loops.size());
    EXPECT_EQ(after.hits, 0u);

    const std::vector<double> second =
        parallelPerLoopRates(factory, loops, cfg, 2);
    const ResultCacheStats rerun = ResultCache::instance().stats();
    EXPECT_EQ(rerun.misses, loops.size());
    EXPECT_EQ(rerun.hits, loops.size());
    ASSERT_EQ(second.size(), first.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        EXPECT_EQ(second[i], first[i]) << "loop " << loops[i];
}

TEST_F(ResultCacheTest, SweepVariantsDoNotAlias)
{
    // Identical name(), different branch model: the sweeps must not
    // cross-contaminate through the cache (the bug cacheKey() was
    // introduced to prevent).
    const std::vector<int> loops{ 3 };
    const MachineConfig cfg = configM11BR5();
    const auto rateWith = [&](const char *machine) {
        const SimFactory factory = [machine](const MachineConfig &c) {
            return parseMachineSpec(machine, c);
        };
        return parallelPerLoopRates(factory, loops, cfg, 1)[0];
    };
    const double blocking = rateWith("cray");
    const double oracle = rateWith("cray,oracle");
    EXPECT_NE(blocking, oracle)
        << "oracle branching must beat blocking on LL3 — a tie "
           "suggests the cache aliased the two organizations";
    EXPECT_EQ(ResultCache::instance().stats().entries, 2u);
}

TEST(ShutdownGrid, SigintStopsGridAndFlagsPartialResults)
{
    // raise(SIGINT) mid-grid: no cell past the signal may start, the
    // in-flight cells complete, and the signal is recorded for the
    // 128+signo exit path.  The handler is installed for the whole
    // test binary from here on; resetShutdownForTests() clears the
    // flag for later tests.
    installShutdownHandler();
    resetShutdownForTests();
    ASSERT_FALSE(shutdownRequested());

    std::vector<std::atomic<int>> visits(64);
    runGrid(64, [&](std::size_t i) {
        visits[i]++;
        if (i == 10)
            raise(SIGINT);
    }, 1);

    EXPECT_TRUE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), SIGINT);
    int visited = 0;
    for (std::size_t i = 0; i < visits.size(); ++i)
        visited += visits[i].load();
    EXPECT_EQ(visited, 11) << "serial grid must stop at the signal";

    resetShutdownForTests();
    EXPECT_FALSE(shutdownRequested());
    EXPECT_EQ(shutdownSignal(), 0);

    // After the reset the grid runs to completion again.
    std::atomic<int> count{ 0 };
    runGrid(8, [&](std::size_t) { count++; }, 2);
    EXPECT_EQ(count.load(), 8);
}

TEST(ShutdownGrid, InterruptedSweepStillMergesPartialMetrics)
{
    // parallelPerLoopMetrics under SIGTERM: completed cells merge,
    // the output is stamped with the interruption, and nothing
    // crashes or deadlocks.
    installShutdownHandler();
    resetShutdownForTests();
    ResultCache::instance().clear();

    class SignalOnThird : public Simulator
    {
      public:
        explicit SignalOnThird(const MachineConfig &cfg) : cfg_(cfg)
        {}
        using Simulator::run;
        SimResult
        run(const DecodedTrace &trace) override
        {
            if (trace.name() == "LL3")
                raise(SIGTERM);
            SimResult r;
            r.instructions = trace.size();
            r.cycles = ClockCycle(trace.size()) * 2;
            return r;
        }
        std::string name() const override { return "SignalOnThird"; }
        const MachineConfig &config() const override { return cfg_; }

      private:
        MachineConfig cfg_;
    };

    const SimFactory factory = [](const MachineConfig &c)
        -> std::unique_ptr<Simulator> {
        return std::make_unique<SignalOnThird>(c);
    };
    const std::vector<int> loops{ 1, 2, 3, 4, 5, 6, 7 };
    const SweepMetrics sweep = parallelPerLoopMetrics(
        factory, loops, configM11BR5(), 1);

    EXPECT_TRUE(shutdownRequested());
    EXPECT_EQ(sweep.metrics.labels().at("interrupted"), "SIGTERM");
    EXPECT_EQ(sweep.metrics.gaugeValue("sweep.cells_total"),
              double(loops.size()));
    const double completed =
        sweep.metrics.gaugeValue("sweep.cells_completed");
    EXPECT_GE(completed, 3.0);
    EXPECT_LT(completed, double(loops.size()));
    resetShutdownForTests();
}

} // namespace
} // namespace mfusim
