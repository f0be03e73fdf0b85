/**
 * @file
 * The trace library's memory rule (trace_library.hh): building every
 * body, view and periodicity analysis frees no heap block of 128 KiB
 * or more.  Freeing an mmapped block that large raises glibc's mmap
 * and trim thresholds for the rest of the process, and the
 * simulators' per-run scratch then stays resident.
 *
 * The check replaces the global operator delete of this test binary
 * with one that notes the usable size of each freed block while a
 * watch is armed.  Sanitizer runtimes own operator new/delete, so
 * the check skips under them.
 *
 * The same watch also nets the usable sizes of the blocks operator
 * new hands out against those freed, which pins the bodies'
 * footprint: a 4 B/op shape-id column plus the interned shape and
 * row tables, under 5 B/op for the library's loops and under 21 B/op
 * for an aperiodic trace.  It pins the result cache's footprint too:
 * at most 100 B per cached cell, packed record, interned machine
 * key and index slot included.
 *
 * The same rule holds for a simulation run: no RuuSim or
 * MultiIssueSim run allocates a block of 128 KiB, and a run's heap
 * peak is bounded by its window and the trace's segments, not by the
 * trace's length.
 */

#include <gtest/gtest.h>

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "mfusim/codegen/synthetic.hh"
#include "mfusim/harness/spec_parse.hh"
#include "mfusim/harness/trace_library.hh"
#include "mfusim/serve/result_cache.hh"
#include "mfusim/spec/predictor.hh"
#include "multi_issue_cells.hh"
#include "test_util.hh"

namespace
{

std::atomic<bool> g_watching{ false };
std::atomic<std::size_t> g_largestFree{ 0 };
std::atomic<std::size_t> g_largestAlloc{ 0 };
std::atomic<std::int64_t> g_liveBytes{ 0 };
std::atomic<std::int64_t> g_peakBytes{ 0 };

void
raiseTo(auto &max, auto value)
{
    auto seen = max.load(std::memory_order_relaxed);
    while (value > seen && !max.compare_exchange_weak(seen, value)) {
    }
}

// Unused under the sanitizers, whose runtimes keep operator new/delete.
[[maybe_unused]] void *
acquire(std::size_t size)
{
    void *const p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr)
        throw std::bad_alloc();
    if (g_watching.load(std::memory_order_relaxed)) {
        const std::size_t size = malloc_usable_size(p);
        raiseTo(g_largestAlloc, size);
        raiseTo(g_peakBytes, g_liveBytes += std::int64_t(size));
    }
    return p;
}

[[maybe_unused]] void
release(void *p) noexcept
{
    if (p != nullptr && g_watching.load(std::memory_order_relaxed)) {
        const std::size_t size = malloc_usable_size(p);
        g_liveBytes -= std::int64_t(size);
        raiseTo(g_largestFree, size);
    }
    std::free(p);
}

} // namespace

#if !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
void *operator new(std::size_t size) { return acquire(size); }
void *operator new[](std::size_t size) { return acquire(size); }
void operator delete(void *p) noexcept { release(p); }
void operator delete[](void *p) noexcept { release(p); }
void operator delete(void *p, std::size_t) noexcept { release(p); }
void operator delete[](void *p, std::size_t) noexcept { release(p); }
#endif

namespace mfusim
{
namespace
{

TEST(TraceLibraryMemory, SetUpFreesNoBlockOf128KiB)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime owns operator delete";
#endif
    TraceLibrary lib;
    g_largestFree = 0;
    g_watching = true;
    for (int loop = 1; loop <= 14; ++loop) {
        for (const MachineConfig &cfg : standardConfigs()) {
            const DecodedTrace &view = lib.decoded(loop, cfg);
            view.periodicity();
            view.writtenRegs();
        }
    }
    g_watching = false;
    EXPECT_EQ(lib.tracesHeld(), 0u);
    EXPECT_LT(g_largestFree.load(), std::size_t(128) * 1024);
}

TEST(TraceLibraryMemory, BodiesHoldSixteenBytesPerOp)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime owns operator new/delete";
#endif
    // What building the 14 bodies leaves allocated, at most 5 B/op:
    // the 4 B/op shape-id column plus, per body, its shape table
    // (16 B a shape, 1,380 shapes in the library), its row table
    // (20 B a row, 12-113 rows each), object and name.  The test's
    // name predates the shape table; it stays so that the filters
    // which select it keep doing so.
    TraceLibrary lib;
    g_liveBytes = 0;
    g_watching = true;
    std::size_t ops = 0;
    for (int loop = 1; loop <= 14; ++loop)
        ops += lib.body(loop)->size();
    g_watching = false;
    const std::int64_t live = g_liveBytes.load();
    EXPECT_GT(live, std::int64_t(4 * ops));
    EXPECT_LE(live, std::int64_t(5 * ops)) << ops << " ops";
}

TEST(TraceLibraryMemory, AperiodicBodyHoldsUnderTwentyOneBytesPerOp)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime owns operator new/delete";
#endif
    // A random trace repeats few (row, links) shapes, so interning
    // costs about 0.9 shapes of 16 B per op on top of the 4 B/op
    // column.
    constexpr std::size_t kOps = 100000;
    const DynTrace trace = test::randomTrace(0x5eed, kOps);
    g_liveBytes = 0;
    g_watching = true;
    auto body = std::make_unique<const TraceBody>(trace);
    g_watching = false;
    const std::int64_t live = g_liveBytes.load();
    EXPECT_GT(body->numShapes(), kOps / 2);
    EXPECT_GT(live, std::int64_t(4 * kOps));
    EXPECT_LE(live, std::int64_t(21 * kOps));
}

TEST(ResultCacheMemory, CellHoldsAtMostOneHundredBytes)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime owns operator new/delete";
#endif
    // 2,856 distinct cells, keyed as the daemon keys them: 204 RUU
    // machines (widths 1-4, sizes 50-100), each under one of the four
    // configs, over the 14 loops, with a short git SHA as the
    // version.  Each cell's result has the magnitudes of an RUU run:
    // no stall counters, most ops closed by steady state.
    std::vector<std::string> machineKeys;
    std::vector<MachineConfig> configs;
    for (unsigned width = 1; width <= 4; ++width)
        for (unsigned size = 50; size <= 100; ++size) {
            const MachineConfig &cfg =
                standardConfigs()[machineKeys.size() % 4];
            machineKeys.push_back(
                parseMachineSpec("ruu:" + std::to_string(width) + ":" +
                                     std::to_string(size),
                                 cfg)
                    ->cacheKey());
            configs.push_back(cfg);
        }
    std::vector<std::string> traceKeys;
    for (int loop = 1; loop <= 14; ++loop)
        traceKeys.push_back("LL" + std::to_string(loop));

    ResultCache cache;
    cache.setVersion("51ab0e8");
    g_liveBytes = 0;
    g_watching = true;
    for (std::size_t m = 0; m < machineKeys.size(); ++m)
        for (std::size_t l = 0; l < traceKeys.size(); ++l) {
            SimResult r;
            r.instructions = 2000 + 131 * l + m;
            r.cycles = r.instructions * 3 / 2 + m;
            r.steadyOpsSkipped = r.instructions * 4 / 5;
            cache.store(machineKeys[m], traceKeys[l], configs[m], false,
                        r);
        }
    g_watching = false;
    const std::int64_t live = g_liveBytes.load();
    const std::uint64_t cells = cache.stats().entries;
    ASSERT_EQ(cells, 2856u);
    EXPECT_EQ(cache.stats().evictions, 0u);
    EXPECT_LE(live, std::int64_t(100 * cells))
        << double(live) / double(cells) << " B per cell";
    RecordProperty("bytes_per_cell",
                   std::to_string(double(live) / double(cells)));
}

/**
 * Heap peak of one run of @p spec on @p trace, above what was live
 * when it started.
 */
std::int64_t
runPeak(const std::string &spec, const DecodedTrace &trace)
{
    const auto sim = parseMachineSpec(spec, trace.config());
    g_liveBytes = 0;
    g_peakBytes = 0;
    g_watching = true;
    sim->run(trace);
    g_watching = false;
    return g_peakBytes.load();
}

TEST(SimulatorMemory, NoRunAllocatesABlockOf128KiB)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime owns operator new/delete";
#endif
    // Every machine of the multiple-issue reference grid plus
    // ruu:8:256 on each bus, over the 14 loops and four
    // configurations, unarmed and under 2-bit counters.  When runs
    // kept per-op arrays, one run of LL6 (16,887 ops) allocated
    // 135,096 B of completion times on seq:2, and 202,644 B of
    // entries plus 135,096 B of result times on any RUU.
    std::vector<test::MultiIssueMachine> machines =
        test::multiIssueMachines();
    for (const char *bus : { "", ",1bus", ",xbar" }) {
        const std::string spec = std::string("ruu:8:256") + bus;
        machines.push_back(
            { spec, [spec](const MachineConfig &cfg) {
                 return parseMachineSpec(spec, cfg);
             } });
    }
    TraceLibrary lib;
    for (int loop = 1; loop <= 14; ++loop)
        for (const MachineConfig &cfg : standardConfigs())
            lib.decoded(loop, cfg).periodicity();

    std::size_t runs = 0;
    for (const char *pred : { "", "2bit" }) {
        for (const MachineConfig &base : standardConfigs()) {
            MachineConfig cfg = base;
            if (*pred != '\0')
                cfg.predictor = PredictorSpec::parse(pred);
            for (const test::MultiIssueMachine &machine : machines) {
                const auto sim = machine.make(cfg);
                for (int loop = 1; loop <= 14; ++loop) {
                    const DecodedTrace &trace = lib.decoded(loop, base);
                    g_largestAlloc = 0;
                    g_largestFree = 0;
                    g_watching = true;
                    sim->run(trace);
                    g_watching = false;
                    ++runs;
                    ASSERT_LT(g_largestAlloc.load(), std::size_t(128) * 1024)
                        << machine.label << " " << pred << " "
                        << cfg.name() << " LL" << loop;
                    ASSERT_LT(g_largestFree.load(), std::size_t(128) * 1024)
                        << machine.label << " " << pred << " "
                        << cfg.name() << " LL" << loop;
                }
            }
        }
    }
    EXPECT_EQ(runs, 2 * 4 * 14 * machines.size());
}

TEST(SimulatorMemory, RunPeakDoesNotGrowWithTheTrace)
{
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "the sanitizer runtime owns operator new/delete";
#endif
    // A run's state is its window, its ring of op times and the
    // steady-state tracker's packed records, so one fixed bound
    // holds for LL6 (16,887 ops) and for traces six times longer:
    // a periodic one the fast path closes and an aperiodic one it
    // cannot, run to the end.  When runs kept per-op arrays,
    // ruu:8:256 peaked at 360,008 B and ooo:8 at 136,616 B on LL6,
    // and at 2.7 MB and 1.0 MB on the 128,000-op periodic trace.
    constexpr std::int64_t kBound = 96 * 1024;
    const MachineConfig cfg = configM11BR5();
    TraceLibrary lib;
    const DecodedTrace &ll6 = lib.decoded(6, cfg);
    const DecodedTrace periodic(synthetic::loopPattern(30, 4000), cfg);
    const DecodedTrace aperiodic(test::randomTrace(0x5eed, 120000), cfg);
    for (const DecodedTrace *trace : { &ll6, &periodic, &aperiodic }) {
        ASSERT_TRUE(trace == &ll6 || trace->size() > 6 * ll6.size());
        trace->periodicity();
    }
    ASSERT_FALSE(periodic.periodicity().segments.empty());

    for (const bool steady : { true, false }) {
        test::SteadyGuard guard(steady);
        for (const char *spec : { "ruu:8:256", "ooo:8" }) {
            for (const DecodedTrace *trace : { &ll6, &periodic, &aperiodic }) {
                const std::int64_t peak = runPeak(spec, *trace);
                EXPECT_LE(peak, kBound)
                    << spec << " on " << trace->size() << " ops, steady "
                    << steady;
                RecordProperty(std::string(spec) + "_" +
                                   std::to_string(trace->size()) +
                                   (steady ? "_steady" : "_plain"),
                               std::to_string(peak));
            }
        }
    }
}

} // namespace
} // namespace mfusim
