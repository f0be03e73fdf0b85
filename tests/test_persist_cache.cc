/**
 * @file
 * PersistentCache: journal round-trips, torn/corrupt-tail recovery,
 * version invalidation, compaction, injected I/O failures, and the
 * restart-warm bit-identity guarantee through ResultCache.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include <unistd.h>

#include "mfusim/core/faultpoint.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/sweep.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/serve/persist_cache.hh"
#include "mfusim/serve/result_cache.hh"
#include "test_util.hh"

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

using test::expectSameResult;

class PersistCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        FaultRegistry::instance().reset();
        char pattern[] = "/tmp/mfusim_persist_XXXXXX";
        ASSERT_NE(::mkdtemp(pattern), nullptr);
        dir_ = pattern;
    }

    void TearDown() override
    {
        FaultRegistry::instance().reset();
        ResultCache::instance().detachPersist();
        ResultCache::instance().clear();
        ResultCache::instance().setVersion("in-process");
        std::remove((dir_ + "/results.mfuj").c_str());
        std::remove((dir_ + "/results.mfuj.tmp").c_str());
        ::rmdir(dir_.c_str());
    }

    /** Reopen the journal and collect everything it recovers. */
    PersistLoadStats
    recover(const std::string &version,
            std::unordered_map<std::string, SimResult> *out)
    {
        PersistentCache journal(dir_);
        return journal.open(
            version, [out](std::string key, const SimResult &r) {
                out->emplace(std::move(key), r);
            });
    }

    std::string journalPath() const { return dir_ + "/results.mfuj"; }

    std::string dir_;
};

/** A result with a distinct non-zero value in every stored field. */
SimResult
sampleResult(std::uint64_t seed)
{
    SimResult r;
    r.instructions = 1000 + seed;
    r.cycles = 500 + seed * 3;
    for (unsigned c = 0; c < kNumStallCauses; ++c)
        r.stalls[c] = 100 * (seed + 1) + c + 1;
    r.hasStalls = true;
    r.steadyOpsSkipped = seed * 7 + 1;
    r.squashes = 2000 + seed;
    r.wrongPathOps = 3000 + seed;
    return r;
}

/** The machine key of the @p i-th cell of a stream of distinct cells. */
std::string
streamMachine(std::uint64_t i)
{
    std::string key = "m";
    key += std::to_string(i);
    return key;
}

TEST_F(PersistCacheTest, RoundTripIsBitIdentical)
{
    {
        PersistentCache journal(dir_);
        journal.open("v1", [](std::string, const SimResult &) {});
        for (std::uint64_t i = 0; i < 5; ++i)
            EXPECT_TRUE(journal.append("key" + std::to_string(i),
                                       sampleResult(i)));
        EXPECT_EQ(journal.stats().appends, 5u);
        EXPECT_EQ(journal.stats().appendErrors, 0u);
    }
    std::unordered_map<std::string, SimResult> warm;
    const PersistLoadStats load = recover("v1", &warm);
    EXPECT_EQ(load.recovered, 5u);
    EXPECT_EQ(load.discardedCorrupt, 0u);
    EXPECT_EQ(load.discardedVersion, 0u);
    EXPECT_EQ(load.truncatedBytes, 0u);
    EXPECT_FALSE(load.loadFailed);
    ASSERT_EQ(warm.size(), 5u);
    for (std::uint64_t i = 0; i < 5; ++i)
        expectSameResult(warm.at("key" + std::to_string(i)),
                         sampleResult(i), "key" + std::to_string(i));
}

TEST_F(PersistCacheTest, TornTailIsTruncatedNotParsed)
{
    {
        PersistentCache journal(dir_);
        journal.open("v1", [](std::string, const SimResult &) {});
        journal.append("a", sampleResult(1));
        journal.append("b", sampleResult(2));
    }
    // Simulate a SIGKILL mid-append: a few bytes of a record header
    // land on disk and nothing else.
    const char torn[] = { 'M', 'F', 'U', 'R', 0x40 };
    {
        std::ofstream f(journalPath(),
                        std::ios::binary | std::ios::app);
        f.write(torn, sizeof(torn));
    }
    std::unordered_map<std::string, SimResult> warm;
    const PersistLoadStats load = recover("v1", &warm);
    EXPECT_EQ(load.recovered, 2u);
    EXPECT_EQ(load.truncatedBytes, sizeof(torn));
    EXPECT_EQ(warm.size(), 2u);
    expectSameResult(warm.at("a"), sampleResult(1), "a");

    // The tail was physically removed: a second recovery is clean.
    std::unordered_map<std::string, SimResult> again;
    const PersistLoadStats reload = recover("v1", &again);
    EXPECT_EQ(reload.recovered, 2u);
    EXPECT_EQ(reload.truncatedBytes, 0u);
}

TEST_F(PersistCacheTest, ChecksumFailureDiscardsTheRecord)
{
    std::uint64_t goodSize = 0;
    {
        PersistentCache journal(dir_);
        journal.open("v1", [](std::string, const SimResult &) {});
        journal.append("a", sampleResult(1));
        goodSize = journal.stats().fileBytes;
        journal.append("b", sampleResult(2));
    }
    // Corrupt one payload byte of the last record (its
    // steadyOpsSkipped field is a small number, so 0x5a is a flip).
    {
        std::fstream f(journalPath(),
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(-2, std::ios::end);
        const char byte = 0x5a;
        f.write(&byte, 1);
    }
    std::unordered_map<std::string, SimResult> warm;
    const PersistLoadStats load = recover("v1", &warm);
    EXPECT_EQ(load.recovered, 1u);
    EXPECT_EQ(load.discardedCorrupt, 1u);
    EXPECT_GT(load.truncatedBytes, 0u);
    ASSERT_EQ(warm.size(), 1u);
    expectSameResult(warm.at("a"), sampleResult(1), "a");

    // The corrupt record is gone from disk, not skipped over.
    std::unordered_map<std::string, SimResult> again;
    PersistentCache journal(dir_);
    const PersistLoadStats reload = journal.open(
        "v1", [&again](std::string key, const SimResult &r) {
            again.emplace(std::move(key), r);
        });
    EXPECT_EQ(reload.recovered, 1u);
    EXPECT_EQ(reload.discardedCorrupt, 0u);
    EXPECT_EQ(journal.stats().fileBytes, goodSize);
}

TEST_F(PersistCacheTest, VersionMismatchWipesTheFile)
{
    {
        PersistentCache journal(dir_);
        journal.open("build-A", [](std::string, const SimResult &) {});
        journal.append("a", sampleResult(1));
    }
    std::unordered_map<std::string, SimResult> warm;
    const PersistLoadStats load = recover("build-B", &warm);
    EXPECT_EQ(load.recovered, 0u);
    EXPECT_EQ(load.discardedVersion, 1u);
    EXPECT_GT(load.truncatedBytes, 0u);
    EXPECT_TRUE(warm.empty());

    // The wiped journal is immediately usable under the new version.
    {
        PersistentCache journal(dir_);
        journal.open("build-B", [](std::string, const SimResult &) {});
        EXPECT_TRUE(journal.append("b", sampleResult(2)));
    }
    std::unordered_map<std::string, SimResult> again;
    EXPECT_EQ(recover("build-B", &again).recovered, 1u);
    expectSameResult(again.at("b"), sampleResult(2), "b");
}

TEST_F(PersistCacheTest, GarbageFileIsWiped)
{
    {
        std::ofstream f(journalPath(), std::ios::binary);
        f << "this is not a journal at all, not even close";
    }
    std::unordered_map<std::string, SimResult> warm;
    const PersistLoadStats load = recover("v1", &warm);
    EXPECT_EQ(load.recovered, 0u);
    EXPECT_EQ(load.discardedVersion, 1u);
    EXPECT_TRUE(warm.empty());
}

TEST_F(PersistCacheTest, InjectedTornWriteIsCountedAndCompactable)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    PersistentCache journal(dir_);
    journal.open("v1", [](std::string, const SimResult &) {});
    ASSERT_TRUE(journal.append("a", sampleResult(1)));

    FaultRegistry::instance().configure("persist.write:torn:once");
    EXPECT_FALSE(journal.append("b", sampleResult(2)));
    FaultRegistry::instance().reset();
    EXPECT_EQ(journal.stats().appendErrors, 1u);
    EXPECT_GT(journal.stats().deadBytes, 0u);
    ASSERT_TRUE(journal.append("c", sampleResult(3)));

    // Compaction rewrites exactly the live set, shedding the torn
    // bytes (the record appended after the torn one would otherwise
    // be unreachable behind the corruption).
    EXPECT_TRUE(journal.compactNow(
        [](const PersistentCache::RecordSink &sink) {
            sink("a", sampleResult(1));
            sink("b", sampleResult(2));
            sink("c", sampleResult(3));
        }));
    EXPECT_EQ(journal.stats().deadBytes, 0u);
    EXPECT_EQ(journal.stats().compactions, 1u);

    std::unordered_map<std::string, SimResult> warm;
    const PersistLoadStats load = recover("v1", &warm);
    EXPECT_EQ(load.recovered, 3u);
    EXPECT_EQ(load.discardedCorrupt, 0u);
    expectSameResult(warm.at("b"), sampleResult(2), "b");
}

TEST_F(PersistCacheTest, InjectedFsyncFailureIsAbsorbed)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    PersistentCache::Options opts;
    opts.fsyncEvery = 1;
    PersistentCache journal(dir_, opts);
    journal.open("v1", [](std::string, const SimResult &) {});
    FaultRegistry::instance().configure("persist.fsync:once");
    EXPECT_TRUE(journal.append("a", sampleResult(1)));
    EXPECT_EQ(journal.stats().fsyncErrors, 1u);
    FaultRegistry::instance().reset();
    EXPECT_TRUE(journal.append("b", sampleResult(2)));
    EXPECT_GE(journal.stats().fsyncs, 1u);
}

TEST_F(PersistCacheTest, MaybeCompactTriggersOnDeadBytes)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    PersistentCache::Options opts;
    opts.compactMinBytes = 1;       // no size floor for the test
    opts.compactCheckEvery = 1;     // check on every call
    PersistentCache journal(dir_, opts);
    journal.open("v1", [](std::string, const SimResult &) {});
    ASSERT_TRUE(journal.append("a", sampleResult(1)));

    const auto snapshot = [](const PersistentCache::RecordSink &sink) {
        sink("a", sampleResult(1));
    };
    // No dead bytes yet: the heuristic declines.
    EXPECT_FALSE(journal.maybeCompact(snapshot));

    // Tear enough writes that dead bytes dominate the file.
    FaultRegistry::instance().configure("persist.write:torn");
    for (int i = 0; i < 8; ++i)
        journal.append("junk" + std::to_string(i), sampleResult(9));
    FaultRegistry::instance().reset();
    EXPECT_TRUE(journal.maybeCompact(snapshot));
    EXPECT_EQ(journal.stats().compactions, 1u);
    EXPECT_EQ(journal.stats().deadBytes, 0u);

    std::unordered_map<std::string, SimResult> warm;
    EXPECT_EQ(recover("v1", &warm).recovered, 1u);
}

TEST_F(PersistCacheTest, InjectedCompactFailureLeavesJournalUsable)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    PersistentCache journal(dir_);
    journal.open("v1", [](std::string, const SimResult &) {});
    ASSERT_TRUE(journal.append("a", sampleResult(1)));
    FaultRegistry::instance().configure("persist.compact:once");
    EXPECT_FALSE(
        journal.compactNow([](const PersistentCache::RecordSink &) {}));
    FaultRegistry::instance().reset();
    EXPECT_EQ(journal.stats().compactErrors, 1u);
    EXPECT_TRUE(journal.append("b", sampleResult(2)));

    std::unordered_map<std::string, SimResult> warm;
    EXPECT_EQ(recover("v1", &warm).recovered, 2u);
}

TEST_F(PersistCacheTest, RestartWarmIsBitIdenticalToRecompute)
{
    // End-to-end through ResultCache with a real simulation: a
    // daemon restart must answer warm with the exact bits a cold
    // recompute would produce.
    const MachineConfig cfg = configM11BR5();
    std::vector<std::unique_ptr<Simulator>> sims;
    sims.push_back(parseMachineSpec("ruu:4:50", cfg));
    ASSERT_FALSE(sims[0]->cacheKey().empty());
    const SimResult fresh = parseMachineSpec("ruu:4:50", cfg)->run(
        TraceLibrary::instance().decoded(3, cfg));

    ResultCache &cache = ResultCache::instance();
    cache.clear();
    cache.setVersion("test-build");
    cache.attachPersist(std::make_unique<PersistentCache>(dir_));
    const CachedCellResult computed =
        runCachedCell(sims, parseLoopSpec("3"), cfg, false).front();
    EXPECT_FALSE(computed.cached);
    expectSameResult(computed.result, fresh, "cold");

    // "Restart": drop every in-memory entry, then re-attach the
    // journal the first process wrote.
    cache.detachPersist();
    cache.clear();
    const PersistLoadStats load = cache.attachPersist(
        std::make_unique<PersistentCache>(dir_));
    EXPECT_EQ(load.recovered, 1u);

    // A warm restart must not recompute: the cell is a hit.
    const CachedCellResult warm =
        runCachedCell(sims, parseLoopSpec("3"), cfg, false).front();
    EXPECT_TRUE(warm.cached);
    EXPECT_EQ(cache.stats().misses, 0u);
    expectSameResult(warm.result, fresh, "warm");
}

TEST_F(PersistCacheTest, JournalCompactsToTheResidentSet)
{
    // A cache that evicts counts each evicted cell's record as dead
    // journal bytes, so compaction triggers and rewrites the journal
    // to exactly the cells still resident.
    PersistentCache::Options opts;
    opts.compactMinBytes = 1;
    opts.compactCheckEvery = 1;
    const MachineConfig cfg = configM11BR5();
    ResultCache cache(32 * 1024);
    cache.setVersion("v1");
    cache.attachPersist(std::make_unique<PersistentCache>(dir_, opts));
    std::uint64_t stored = 0;
    while (cache.persist()->stats().compactions == 0 && stored < 100000) {
        cache.store(streamMachine(stored), "LL1", cfg, false,
                    sampleResult(stored));
        ++stored;
    }
    ASSERT_EQ(cache.persist()->stats().compactions, 1u);
    const ResultCacheStats stats = cache.stats();
    EXPECT_GT(stats.evictions, 0u);

    std::unordered_map<std::string, SimResult> warm;
    const PersistLoadStats load = recover("v1", &warm);
    EXPECT_EQ(load.discardedCorrupt, 0u);
    EXPECT_EQ(warm.size(), stats.entries);
    for (const auto &[key, result] : warm) {
        const std::string machine = key.substr(0, key.find('\n'));
        SimResult resident;
        ASSERT_TRUE(cache.probe(machine, "LL1", cfg, false, &resident))
            << key;
        expectSameResult(resident, result, machine);
    }
}

TEST_F(PersistCacheTest, WarmLoadPastTheBudgetEvicts)
{
    // A journal written by a cache with a larger budget warm-loads
    // into a small one up to its budget: the overflow is evicted and
    // counted dead on disk, and every resident cell is bit-identical.
    const MachineConfig cfg = configM5BR5();
    constexpr std::uint64_t kCells = 3000;
    {
        ResultCache large;
        large.setVersion("v1");
        large.attachPersist(std::make_unique<PersistentCache>(dir_));
        for (std::uint64_t i = 0; i < kCells; ++i)
            large.store(streamMachine(i), "LL2", cfg, true,
                        sampleResult(i));
    }
    constexpr std::size_t kBudget = 32 * 1024;
    ResultCache small(kBudget);
    small.setVersion("v1");
    const PersistLoadStats load =
        small.attachPersist(std::make_unique<PersistentCache>(dir_));
    EXPECT_EQ(load.recovered, kCells);
    const ResultCacheStats stats = small.stats();
    EXPECT_LE(stats.residentBytes, kBudget);
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_EQ(stats.entries + stats.evictions, kCells);
    EXPECT_EQ(stats.hits + stats.misses, 0u);
    EXPECT_GT(small.persist()->stats().deadBytes, 0u);
    std::uint64_t resident = 0;
    for (std::uint64_t i = 0; i < kCells; ++i) {
        SimResult r;
        if (small.probe(streamMachine(i), "LL2", cfg, true, &r)) {
            ++resident;
            expectSameResult(r, sampleResult(i), std::to_string(i));
        }
    }
    EXPECT_EQ(resident, stats.entries);
}

TEST_F(PersistCacheTest, JournalFromTheUnboundedCacheWarmLoadsUnchanged)
{
    // tests/golden/journal_v4_51ab0e8.mfuj was written by a daemon
    // built at 51ab0e8, whose cache had no budget: a /v1/sweep of
    // three machines over four loops, an audited /v1/simulate of an
    // unrolled loop and one Tomasulo cell.  Its records warm-load
    // as they are, the file is not rewritten, and every cell is a
    // hit equal to a fresh simulation.
    const std::string fixture =
        std::string(MFUSIM_TEST_GOLDEN_DIR) + "/journal_v4_51ab0e8.mfuj";
    std::ifstream in(fixture, std::ios::binary);
    ASSERT_TRUE(in) << fixture;
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream(journalPath(), std::ios::binary) << bytes;

    struct Cell
    {
        const char *machine;
        const char *loop;
        MachineConfig cfg;
        bool audited;
    };
    std::vector<Cell> cells;
    for (const char *loop : { "1", "3", "7", "12" })
        for (const char *machine : { "cray", "ruu:4:50", "ooo:4,pred=2bit" })
            cells.push_back({ machine, loop, configM5BR2(), false });
    cells.push_back({ "seq:2", "1x4", configM11BR5(), true });
    cells.push_back({ "tomasulo:2:1", "5", configM11BR2(), false });

    ResultCache &cache = ResultCache::instance();
    std::vector<SimResult> fresh;
    for (const Cell &c : cells) {
        std::vector<std::unique_ptr<Simulator>> sims;
        sims.push_back(parseMachineSpec(c.machine, c.cfg));
        fresh.push_back(runCachedCell(sims, parseLoopSpec(c.loop), c.cfg,
                                      c.audited)
                            .front()
                            .result);
    }
    cache.clear();
    cache.setVersion("51ab0e8");
    const PersistLoadStats load =
        cache.attachPersist(std::make_unique<PersistentCache>(dir_));
    EXPECT_EQ(load.recovered, cells.size());
    EXPECT_EQ(load.discardedCorrupt + load.discardedVersion, 0u);
    EXPECT_EQ(load.truncatedBytes, 0u);
    EXPECT_EQ(cache.stats().entries, cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
        std::vector<std::unique_ptr<Simulator>> sims;
        sims.push_back(parseMachineSpec(cells[i].machine, cells[i].cfg));
        const CachedCellResult warm =
            runCachedCell(sims, parseLoopSpec(cells[i].loop), cells[i].cfg,
                          cells[i].audited)
                .front();
        EXPECT_TRUE(warm.cached) << cells[i].machine << " " << cells[i].loop;
        expectSameResult(warm.result, fresh[i], cells[i].machine);
    }
    EXPECT_EQ(cache.stats().misses, 0u);
    cache.detachPersist();
    std::ifstream after(journalPath(), std::ios::binary);
    EXPECT_EQ(std::string((std::istreambuf_iterator<char>(after)),
                          std::istreambuf_iterator<char>()),
              bytes);
}

TEST_F(PersistCacheTest, InjectedLoadFailureStartsCold)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    {
        PersistentCache journal(dir_);
        journal.open("test-build",
                     [](std::string, const SimResult &) {});
        journal.append("a", sampleResult(1));
    }
    ResultCache &cache = ResultCache::instance();
    cache.clear();
    cache.setVersion("test-build");
    FaultRegistry::instance().configure("persist.load:once");
    const PersistLoadStats load = cache.attachPersist(
        std::make_unique<PersistentCache>(dir_));
    FaultRegistry::instance().reset();
    EXPECT_TRUE(load.loadFailed);
    EXPECT_EQ(cache.stats().entries, 0u);
    // The journal stays attached and usable for appends.
    ASSERT_NE(cache.persist(), nullptr);
    cache.store("m", "LL1", configM11BR5(), false, sampleResult(5));
    EXPECT_GE(cache.persist()->stats().appends, 1u);
}

} // namespace
} // namespace mfusim
