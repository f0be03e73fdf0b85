/**
 * @file
 * ResultCache: correctness of the memo keys (no aliasing between
 * organization variants), hit/miss accounting, concurrency, the one
 * cached-cell path (runCachedCell) under the sweep runner and the
 * serve endpoints, and cooperative shutdown of runGrid.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <memory>
#include <thread>
#include <vector>

#include "mfusim/core/decoded_trace.hh"
#include "mfusim/core/shutdown.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/serve/json.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/serve/sim_service.hh"
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

/** A cacheable simulator that counts its runs, or always throws. */
class CountingSim : public Simulator
{
  public:
    CountingSim(std::string key, int *runs, bool fails = false)
        : key_(std::move(key)), runs_(runs), fails_(fails)
    {}
    using Simulator::run;
    SimResult
    run(const DecodedTrace &trace) override
    {
        ++*runs_;
        if (fails_)
            throw SimError("cell failed");
        return fakeResult(trace.size(), ClockCycle(trace.size()) * 2);
    }
    std::string name() const override { return "Counting"; }
    std::string cacheKey() const override { return key_; }
    const MachineConfig &config() const override { return cfg_; }

  private:
    std::string key_;
    int *runs_;
    bool fails_;
    MachineConfig cfg_ = configM11BR5();
};

std::vector<std::unique_ptr<Simulator>>
countingSims(int *runs, std::vector<bool> fails)
{
    std::vector<std::unique_ptr<Simulator>> sims;
    for (std::size_t i = 0; i < fails.size(); ++i)
        sims.push_back(std::make_unique<CountingSim>(
            "counting" + std::to_string(i), runs, fails[i]));
    return sims;
}

TEST_F(ResultCacheTest, MissThenHit)
{
    ResultCache &cache = ResultCache::instance();
    int runs = 0;
    const auto sims = countingSims(&runs, { false });
    const LoopSpec loop = parseLoopSpec("1");

    const CachedCellResult first =
        runCachedCell(sims, loop, configM11BR5(), false).front();
    EXPECT_FALSE(first.cached);
    EXPECT_GT(first.result.instructions, 0u);
    EXPECT_EQ(runs, 1);

    const CachedCellResult second =
        runCachedCell(sims, loop, configM11BR5(), false).front();
    EXPECT_TRUE(second.cached);
    EXPECT_EQ(second.result.instructions, first.result.instructions);
    EXPECT_EQ(second.result.cycles, first.result.cycles);
    EXPECT_EQ(runs, 1) << "hit must not recompute";

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
    const auto probeThenStore = [&](const char *machine,
                                    const char *trace,
                                    const MachineConfig &cfg,
                                    bool audited) {
        EXPECT_FALSE(cache.probe(machine, trace, cfg, audited, nullptr))
            << machine << " " << trace << " " << cfg.name();
        cache.store(machine, trace, cfg, audited, fakeResult(1, 1));
    };
    probeThenStore("simple", "LL1", configM11BR5(), false);
    probeThenStore("cray", "LL1", configM11BR5(), false);
    probeThenStore("simple", "LL2", configM11BR5(), false);
    probeThenStore("simple", "LL1", configM5BR2(), false);
    probeThenStore("simple", "LL1", configM11BR5(), true);
    EXPECT_EQ(cache.stats().misses, 5u);
    EXPECT_EQ(cache.stats().hits, 0u);
    EXPECT_EQ(cache.stats().entries, 5u);
}

TEST_F(ResultCacheTest, KeyCannotBeSpoofedAcrossFields)
{
    // The composed key is newline-separated; a machine key that
    // *contains* the would-be separator content must not alias a
    // different (machine, trace) split.  cacheKey() values never
    // contain newlines, so composition is injective.
    ResultCache &cache = ResultCache::instance();
    cache.store("a|x", "LL1", configM11BR5(), false, fakeResult(1, 1));
    EXPECT_FALSE(
        cache.probe("a", "|xLL1", configM11BR5(), false, nullptr));
    EXPECT_TRUE(
        cache.probe("a|x", "LL1", configM11BR5(), false, nullptr));
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
    cache.store("simple", "LL1", configM11BR5(), false,
                fakeResult(1, 1));
    EXPECT_TRUE(
        cache.probe("simple", "LL1", configM11BR5(), false, nullptr));
    cache.clear();
    const ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_FALSE(
        cache.probe("simple", "LL1", configM11BR5(), false, nullptr));
}

TEST_F(ResultCacheTest, ThrowingComputeStoresNothing)
{
    // One variant of a two-simulator cell throws: the cell stores
    // nothing, not even the variant that returned, and counts
    // nothing.
    ResultCache &cache = ResultCache::instance();
    int runs = 0;
    const auto sims = countingSims(&runs, { false, true });
    const LoopSpec loop = parseLoopSpec("1");
    EXPECT_THROW(runCachedCell(sims, loop, configM11BR5(), false),
                 SimError);
    EXPECT_EQ(runs, 2);
    ResultCacheStats stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);

    // The failed cell is re-attempted (and re-diagnosed), not served
    // a phantom result.
    EXPECT_THROW(runCachedCell(sims, loop, configM11BR5(), false),
                 SimError);
    EXPECT_EQ(runs, 4);
    stats = cache.stats();
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.hits + stats.misses, 0u);
}

TEST_F(ResultCacheTest, ConcurrentGetOrComputeIsCoherent)
{
    // Many threads running the probe-then-store protocol over a small
    // key space: every result must match its key's canonical value,
    // the entry count must equal the key count, and every probe must
    // count exactly once, as a hit or (by its store) a miss.
    ResultCache &cache = ResultCache::instance();
    constexpr int kThreads = 8, kIterations = 50, kKeys = 5;
    std::vector<std::thread> threads;
    std::atomic<int> mismatches{ 0 };
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int i = 0; i < kIterations; ++i) {
                const int k = i % kKeys;
                const std::string key = "sim" + std::to_string(k);
                SimResult r;
                if (!cache.probe(key, "LL1", configM11BR5(), false,
                                 &r)) {
                    r = fakeResult(std::uint64_t(k) + 1,
                                   ClockCycle(k) + 1);
                    cache.store(key, "LL1", configM11BR5(), false, r);
                }
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
    cache.store("simple", "LL1", configM11BR5(), false,
                fakeResult(1, 1));
    EXPECT_TRUE(
        cache.probe("simple", "LL1", configM11BR5(), false, nullptr));

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

HttpRequest
simulateRequest(const std::string &body)
{
    HttpRequest request;
    request.method = "POST";
    request.target = request.path = "/v1/simulate";
    request.body = body;
    return request;
}

TEST_F(ResultCacheTest, RepeatedSimulateOfUnrolledLoopDecodesOnce)
{
    // The worker path: an unrolled loop is not in the TraceLibrary,
    // so its body is decoded per request, but only on a miss.
    SimService service;
    const HttpRequest request =
        simulateRequest(R"({"loop": "1x4", "machine": "cray"})");
    const std::uint64_t bodies = TraceBody::bodiesBuilt();

    const HttpResponse first = service.handle(request, 10000);
    ASSERT_EQ(first.status, 200) << first.body;
    EXPECT_FALSE(parseJson(first.body).find("cached")->asBool());
    EXPECT_EQ(TraceBody::bodiesBuilt() - bodies, 1u);
    EXPECT_EQ(ResultCache::instance().stats().misses, 1u);
    EXPECT_EQ(ResultCache::instance().stats().hits, 0u);

    const HttpResponse second = service.handle(request, 10000);
    ASSERT_EQ(second.status, 200) << second.body;
    EXPECT_TRUE(parseJson(second.body).find("cached")->asBool());
    EXPECT_EQ(TraceBody::bodiesBuilt() - bodies, 1u)
        << "a hit must decode nothing";
    EXPECT_EQ(ResultCache::instance().stats().misses, 1u);
    EXPECT_EQ(ResultCache::instance().stats().hits, 1u);
}

TEST_F(ResultCacheTest, FastPathMissComputedByWorkerCountsOneMiss)
{
    // The reactor probes first; its miss counts nothing, the worker
    // that then simulates and stores the cell counts the one miss.
    SimService service;
    const HttpRequest request =
        simulateRequest(R"({"loop": 3, "machine": "cray"})");
    HttpResponse fast;
    EXPECT_FALSE(service.tryFastAnswer(request, &fast));
    EXPECT_EQ(ResultCache::instance().stats().misses, 0u);
    EXPECT_EQ(ResultCache::instance().stats().hits, 0u);

    ASSERT_EQ(service.handle(request, 10000).status, 200);
    EXPECT_EQ(ResultCache::instance().stats().misses, 1u);
    EXPECT_EQ(ResultCache::instance().stats().hits, 0u);

    EXPECT_TRUE(service.tryFastAnswer(request, &fast));
    EXPECT_EQ(fast.status, 200);
    EXPECT_EQ(ResultCache::instance().stats().misses, 1u);
    EXPECT_EQ(ResultCache::instance().stats().hits, 1u);
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
